"""Exhaustive matrix searches and the single-matrix witness pipeline."""

import multiprocessing
import os
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from search_reference import brute_force_search, reference_scan_orbits

from stretchlab import _kernels, search
from stretchlab.errors import InputError
from stretchlab.families import enumerate_admissible
from stretchlab.matrices import IntMatrix
from stretchlab.poly import IntPolynomial
from stretchlab.search import (
    BudgetExceededError,
    SearchConfig,
    run_search,
    witness_check,
)

P = IntPolynomial

REMARK = IntMatrix([[0, 0, 1, 1], [1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0]])


def test_search_n2():
    result = run_search(SearchConfig(n=2, max_entry=2))
    assert result.count_scanned == 81
    assert result.minimum is not None
    assert result.minimum.char_poly == P((-1, -1, 1))
    assert abs(float(result.minimum.normalized) - 2.618033988749895) < 1e-9
    # sigma^2 sits exactly on the bound and must NOT count as a violation
    sigma_class = [c for c in result.classes if c.char_poly == P((-1, -2, 1))]
    assert sigma_class and sigma_class[0] not in result.violations
    # mu^2 < sigma^2 is a certified below-bound value (fine for n < 4)
    assert [v.char_poly for v in result.violations] == [P((-1, -1, 1))]


def test_search_n3_witness():
    result = run_search(SearchConfig(n=3, max_entry=2))
    assert result.count_scanned == 3**9
    mu3 = [c for c in result.classes if c.char_poly == P((-1, -2, 0, 1))]
    assert mu3, "companion-type realizations of t^3 - 2t - 1 must qualify"
    assert abs(float(mu3[0].normalized) - 4.23606797749979) < 1e-9
    assert result.minimum.char_poly == P((-1, -2, 0, 1))


def test_search_n4_zero_violations():
    result = run_search(SearchConfig(n=4, max_entry=1))
    assert result.count_scanned == 65536
    assert result.violations == ()
    assert result.minimum.char_poly in {
        P((-1, -1, 0, -1, 1)),
        P((-1, -2, -1, 0, 1)),
    }
    assert abs(float(result.minimum.normalized) - 6.854101966249685) < 1e-9
    # consistency with the family enumeration at n=4
    family_polys = {r.polynomial for r in enumerate_admissible(4)}
    assert result.minimum.char_poly in family_polys


def test_search_deterministic_across_threads():
    for n, max_entry in ((3, 1), (4, 1), (3, 2)):
        a = run_search(SearchConfig(n=n, max_entry=max_entry), threads=1)
        b = run_search(SearchConfig(n=n, max_entry=max_entry), threads=2)
        assert a.count_qualifying == b.count_qualifying
        assert a.minimum == b.minimum
        assert a.classes == b.classes


#: Every slice brute force covers: n <= 4 over {0,1}, n <= 3 over {0,1,2},
#: n = 2 over {0..3}.
BRUTE_FORCE_SLICES = [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2), (2, 3)]


@pytest.mark.parametrize("n, max_entry", BRUTE_FORCE_SLICES)
def test_orbit_search_matches_brute_force(n, max_entry):
    cfg = SearchConfig(n=n, max_entry=max_entry)
    assert run_search(cfg) == brute_force_search(cfg)


@pytest.mark.parametrize("n, max_entry", BRUTE_FORCE_SLICES)
def test_orbits_partition_the_slice(n, max_entry):
    # Burnside: the orbits of the canonical codes cover every matrix once
    base = max_entry + 1
    codes = search.canonical_codes(n, max_entry)
    orbits = [search._orbit(code, n) for code in codes]
    assert sum(map(len, orbits)) == base ** (n * n)
    assert set().union(*orbits) == set(product(range(base), repeat=n * n))
    for code, orbit in zip(codes, orbits):
        # each orbit holds the matrix whose code represents it
        rows = search.code_rows(code, n)
        assert tuple(e for row in rows for e in row) in orbit


@pytest.mark.parametrize("n, max_entry", BRUTE_FORCE_SLICES)
def test_scan_matches_the_per_candidate_reference(n, max_entry):
    parents = search.canonical_codes(n - 1, max_entry)
    scanned = search.scan_orbits(n, max_entry, parents)
    assert scanned
    assert scanned == reference_scan_orbits(n, max_entry, parents)


@pytest.mark.parametrize("n, max_entry", [(5, 1), (4, 2)])
def test_scan_matches_the_per_candidate_reference_on_sampled_parents(n, max_entry):
    # past the brute-force slices: 30 seeded parents keep the reference quick
    parents = random.Random(n * 10 + max_entry).sample(
        search.canonical_codes(n - 1, max_entry), 30
    )
    scanned = search.scan_orbits(n, max_entry, parents)
    assert scanned
    assert scanned == reference_scan_orbits(n, max_entry, parents)


entries = st.integers(-3, 5)


@st.composite
def bordered(draw):
    """(B, r, c, d): B is m x m for m = 0..6, often singular or with a zero row."""
    m = draw(st.integers(0, 6))
    b = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(m)]
    if m:
        kind = draw(st.sampled_from(["any", "zero row", "repeated row"]))
        i = draw(st.integers(0, m - 1))
        if kind == "zero row":
            b[i] = [0] * m
        elif kind == "repeated row" and m > 1:
            b[i] = list(b[(i + 1) % m])
    r = draw(st.lists(entries, min_size=m, max_size=m))
    c = draw(st.lists(entries, min_size=m, max_size=m))
    return b, r, c, draw(entries)


@settings(max_examples=300, deadline=None)
@given(bordered())
def test_bordering_identities_give_the_char_poly_and_det(case):
    b, r, c, d = case
    n = len(b) + 1
    a = [[*row, x] for row, x in zip(b, c)] + [[*r, d]]
    p = _kernels.charpoly(b)
    u = _kernels.adjugate_rows(list(zip(*b)), p, r)
    assert len(u) == max(len(b), 1)
    chi = _kernels.bordered_charpoly(p, u, c, d)
    assert chi == _kernels.charpoly(a)
    # charpoly borders too, so check chi(t) = det(tI - A) by Bareiss at n
    # points, which fixes a monic chi of degree n
    for t in range(n):
        t_minus_a = [[t * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(a)]
        assert sum(x * t**k for k, x in enumerate(chi)) == _kernels.determinant(t_minus_a)
    # the scan's |det| table holds r N_0 c
    r_n0_c = sum(x * y for x, y in zip(u[0], c))
    assert (-1) ** n * (-d * p[0] - r_n0_c) == _kernels.determinant(a)


def test_orbit_counts():
    # one matrix per orbit of S_n x <transpose>
    assert len(search.canonical_codes(3, 1)) == 74
    assert len(search.canonical_codes(4, 1)) == 1740
    assert len(search.canonical_codes(3, 2)) == 1950


def test_search_budget_guard():
    with pytest.raises(BudgetExceededError):
        run_search(SearchConfig(n=5, max_entry=2))


@pytest.mark.parametrize(
    "n, max_entry, message",
    [
        (0, 1, "--n must be at least 1, got 0"),
        (-1, 1, "--n must be at least 1, got -1"),
        (2, -1, "--max-entry must be at least 0, got -1"),
    ],
    ids=["n=0", "n=-1", "max_entry=-1"],
)
def test_search_rejects_a_dimension_below_1_or_a_negative_entry_bound(n, max_entry, message):
    # max_entry = -1 would scan an empty space and certify nothing
    with pytest.raises(InputError) as err:
        run_search(SearchConfig(n=n, max_entry=max_entry))
    assert str(err.value) == message


@pytest.mark.parametrize("threads", [0, (os.cpu_count() or 1) + 1], ids=["zero", "cpus-plus-1"])
def test_search_rejects_a_thread_count_outside_the_cpus_before_any_pool(threads, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    cpus = os.cpu_count() or 1
    with pytest.raises(InputError) as err:
        run_search(SearchConfig(n=3, max_entry=1), threads=threads)
    assert str(err.value) == (
        f"--threads must be between 1 and {cpus} (the CPU count), got {threads}"
    )


def test_witness_remark_matrix():
    w = witness_check(REMARK)
    assert w.qualifies
    assert w.det == -1 and w.in_glnz
    assert w.spectral_class.skew_up_to_cyclotomic
    assert abs(float(w.normalized) - 6.854101966249685) < 1e-9
    assert w.below_threshold is False


def test_witness_identity_fails_primitivity():
    w = witness_check(IntMatrix([[1, 0], [0, 1]]))
    assert not w.qualifies
    assert not w.primitivity.primitive


def test_witness_fibonacci():
    w = witness_check(IntMatrix([[1, 1], [1, 0]]))
    assert w.qualifies
    assert abs(float(w.normalized) - 2.618033988749895) < 1e-9
    assert w.below_threshold is True
