"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS line with its runtime and asserts that the
runtime is within the criterion's stated budget.

The headline theorems quantify over all n and all k; these checks cover the
finite desk-scale slices the reports also advertise.
"""

import random
import time
from fractions import Fraction

from conftest import (
    all_track_fixtures,
    random_polynomial,
    random_reciprocal,
    random_skew_reciprocal,
)
from matrix_reference import wielandt_positive
from stretchlab.classify import (
    classify,
    is_skew_reciprocal_up_to_cyclotomic,
    parity_condition,
    sqrt_min_poly,
    strip_cyclotomic,
)
from stretchlab.curvegraph import verify_clique_identity
from stretchlab.families import enumerate_admissible, monotonicity_scan
from stretchlab.matrices import (
    IntMatrix,
    char_poly,
    determinant,
    is_primitive,
    normalized_spectral_radius,
)
from stretchlab.poly import IntPolynomial
from stretchlab.roots import (
    cauchy_root_bound,
    compare_enclosures,
    largest_real_root,
    real_roots_in_interval,
    sturm_chain,
    unit_circle_root_count,
)
from stretchlab.search import SearchConfig, run_search
from stretchlab.sharpness import build_example, convergence_table, expected_char_poly
from stretchlab.traintrack import (
    radical_elements,
    radical_report,
    satisfies_switch_conditions,
    thurston_form,
    weight_space,
)

P = IntPolynomial

MU2 = 2.6180339887498949
MU3 = 4.2360679774997896
MU4 = 6.8541019662496845
SILVER_SQ = 5.8284271247461903

REMARK_MATRIX = IntMatrix([[0, 0, 1, 1], [1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0]])


def _finish(name: str, started: float, budget_s: float):
    elapsed = time.perf_counter() - started
    print(f"criterion {name}: PASS in {elapsed:.2f}s (budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"{name} exceeded its runtime budget"


def test_criterion_1_remark_fixture():
    started = time.perf_counter()
    chi = char_poly(REMARK_MATRIX)
    assert chi == P((-1, -2, -1, 0, 1))
    assert is_primitive(REMARK_MATRIX).primitive
    assert determinant(REMARK_MATRIX) == -1
    sc = classify(chi)
    assert sc.skew_up_to_cyclotomic
    assert sc.cyclotomic_part == P((1, 1, 1))
    assert sc.core == P((-1, -1, 1))
    value = normalized_spectral_radius(REMARK_MATRIX, Fraction(1, 2**40))
    assert abs(float(value) - MU4) < 1e-9
    _finish("1 (worked 4x4 fixture)", started, 1.0)


def test_criterion_2_family_minima():
    started = time.perf_counter()
    minima = {}
    for n in (4, 5, 6, 7, 8, 9, 10, 12):
        reports = enumerate_admissible(n)
        for r in reports:
            assert float(r.normalized) >= SILVER_SQ - 1e-9, (n, r.polynomial)
        minima[n] = float(reports[0].normalized) if reports else None
    assert minima[4] is not None and abs(minima[4] - MU4) < 1e-9
    _finish("2 (family minima over the five forms)", started, 60.0)


def test_criterion_3_matrix_search():
    started = time.perf_counter()
    r4 = run_search(SearchConfig(n=4, max_entry=1), threads=2)
    assert r4.count_scanned == 65536
    assert r4.violations == ()
    assert abs(float(r4.minimum.normalized) - MU4) < 1e-9

    r2 = run_search(SearchConfig(n=2, max_entry=2))
    mu2_class = [c for c in r2.classes if c.char_poly == P((-1, -1, 1))]
    assert mu2_class and abs(float(mu2_class[0].normalized) - MU2) < 1e-9
    assert float(mu2_class[0].normalized) < SILVER_SQ

    r3 = run_search(SearchConfig(n=3, max_entry=2))
    mu3_class = [c for c in r3.classes if c.char_poly == P((-1, -2, 0, 1))]
    assert mu3_class and abs(float(mu3_class[0].normalized) - MU3) < 1e-9
    assert float(mu3_class[0].normalized) < SILVER_SQ
    _finish("3 (exhaustive matrix scans n=4, witnesses n=2,3)", started, 300.0)


def test_criterion_4_clique_identity():
    started = time.perf_counter()
    for n in (1, 2, 3, 4):
        for bits in range(2 ** (n * n)):
            rows = [[(bits >> (n * i + j)) & 1 for j in range(n)] for i in range(n)]
            assert verify_clique_identity(IntMatrix(rows)), rows
    rng = random.Random(424242)
    for _ in range(500):
        n = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
        assert verify_clique_identity(m), m.rows
    _finish("4 (clique identity, exhaustive + random)", started, 60.0)


def test_criterion_5_monotonicity_endpoints():
    started = time.perf_counter()
    scan3 = monotonicity_scan("3A1", 12)
    assert scan3.strictly_increasing
    assert abs(float(scan3.points[0].normalized) - SILVER_SQ) < 1e-7

    scan4 = monotonicity_scan("4A1", 12)
    assert scan4.strictly_increasing
    assert abs(float(scan4.points[0].normalized) - 10.908326913195984) < 1e-7

    scan5 = monotonicity_scan("5A1", 12, range(0, 4))
    assert scan5.strictly_increasing
    assert abs(float(scan5.points[0].normalized) - 17.944271909999159) < 1e-7
    _finish("5 (monotonicity endpoints and strictness at n=12)", started, 30.0)


def test_criterion_6_sharpness_family():
    started = time.perf_counter()
    rows = convergence_table(40)
    by_k = {r.k: r for r in rows}
    for k in range(2, 41):
        # char poly form, primitivity, GL membership, skew class and the
        # strict bound are all certified inside build_example; spot-check
        # the polynomial form once more here.
        assert by_k[k].normalized.lo > 0
        assert expected_char_poly(k).coeffs[0] == -1
        assert float(by_k[k].normalized) > SILVER_SQ
    assert abs(float(by_k[2].normalized) - MU4) < 1e-9
    assert abs(float(by_k[3].normalized) - 8.186) < 5e-3
    ex200 = build_example(200)
    assert abs(float(ex200.normalized) - SILVER_SQ) < 1e-3
    _finish("6 (sharpness family k=2..40 and k=200)", started, 60.0)


def test_criterion_7_number_theory_suite():
    started = time.perf_counter()
    q4, irr4 = sqrt_min_poly(4, 1)
    q5, irr5 = sqrt_min_poly(5, 1)
    q3, irr3 = sqrt_min_poly(3, 1)
    assert q4 == P((1, 0, -4, 0, 1)) and irr4
    assert q5 == P((1, 0, -5, 0, 1)) and irr5
    assert q3 == P((1, 0, -3, 0, 1)) and not irr3

    lehmer = P((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
    lt = P((1, -1, -1, -1, 1))
    assert unit_circle_root_count(lehmer) == 8
    assert unit_circle_root_count(lt) == 2

    lehmer9 = largest_real_root(lehmer).powered(9)
    lt3 = largest_real_root(lt).powered(3)
    assert abs(float(lehmer9) - 4.311) < 1e-3
    assert abs(float(lt3) - 5.107) < 1e-3

    mu = largest_real_root(P((-1, -1, 1)))
    sigma = largest_real_root(P((-1, -2, 1)))
    mu2 = largest_real_root(P((1, -3, 1)))
    assert compare_enclosures(mu, sigma) == -1
    assert compare_enclosures(sigma, mu2) == -1
    _finish("7 (square roots, Salem values, ordering)", started, 10.0)


def test_criterion_8_property_suites():
    started = time.perf_counter()
    rng = random.Random(314159)

    # parity closure for reciprocal x skew-reciprocal products
    done = 0
    while done < 500:
        r = random_reciprocal(rng)
        s = random_skew_reciprocal(rng)
        if r.is_zero() or s.is_zero():
            continue
        assert parity_condition(r * s)
        done += 1

    # strip/recompose exactness
    done = 0
    while done < 150:
        p = random_polynomial(rng, max_degree=7)
        if p.is_zero() or p.constant_term() == 0:
            continue
        cyclo, core = strip_cyclotomic(p)
        assert cyclo * core == p
        if is_skew_reciprocal_up_to_cyclotomic(p):
            assert parity_condition(p)
        done += 1

    # Sturm enclosure soundness
    done = 0
    while done < 60:
        p = random_polynomial(rng, max_degree=8)
        if p.degree() < 1:
            continue
        bound = cauchy_root_bound(p)
        if real_roots_in_interval(p, 0, bound) == 0:
            continue
        enc = largest_real_root(p)
        chain = sturm_chain(p)
        assert chain.count(enc.lo, enc.hi) == 1
        if enc.hi < bound:
            assert chain.count(enc.hi, bound) == 0
        done += 1

    # skew form (antisymmetry + bilinearity) and radical containment on
    # every track fixture
    for track in all_track_fixtures():
        ws = weight_space(track)
        if ws.dim:
            w1, w2, w3 = (
                ws.combine([Fraction(rng.randint(-4, 4)) for _ in range(ws.dim)])
                for _ in range(3)
            )
            assert thurston_form(track, w1, w1) == 0
            assert thurston_form(track, w1, w2) == -thurston_form(track, w2, w1)
            a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
            combo = tuple(a * x + b * y for x, y in zip(w1, w2))
            assert thurston_form(track, combo, w3) == a * thurston_form(
                track, w1, w3
            ) + b * thurston_form(track, w2, w3)
        rep = radical_report(track)
        assert all(satisfies_switch_conditions(track, r) for r in radical_elements(track))
        assert rep.elements_in_radical

    # graph primitivity agrees with the Wielandt power oracle, exhaustively
    for n in (1, 2, 3):
        for bits in range(2 ** (n * n)):
            rows = [[(bits >> (n * i + j)) & 1 for j in range(n)] for i in range(n)]
            m = IntMatrix(rows)
            assert is_primitive(m).primitive == wielandt_positive(m)
    _finish("8 (exact property suites)", started, 120.0)
