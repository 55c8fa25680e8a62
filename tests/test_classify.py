"""Reciprocity predicates, cyclotomic stripping, and the spectral class."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stretchlab.poly
from conftest import random_polynomial, random_reciprocal, random_skew_reciprocal
from cyclotomic_reference import strip_by_trial_division
from stretchlab.classify import (
    classify,
    is_reciprocal,
    is_salem_like,
    is_skew_reciprocal,
    is_skew_reciprocal_up_to_cyclotomic,
    parity_condition,
    qualify,
    sqrt_min_poly,
    strip_cyclotomic,
)
from stretchlab.families import ALL_FORMS, _form_instances, instantiate
from stretchlab.poly import IntPolynomial, cyclotomic, cyclotomic_indices_up_to_degree, divrem

P = IntPolynomial

LEHMER = P((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
LT = P((1, -1, -1, -1, 1))


def test_is_reciprocal_examples():
    assert is_reciprocal(P((1, -1, -1, -1, 1))) == 1
    assert is_reciprocal(P((-1, -1, 1))) is None
    assert is_reciprocal(P((1, 1, 1))) == 1
    assert is_reciprocal(P((-1, 0, 1))) == -1  # t^2 - 1 antipalindromic


def test_is_skew_reciprocal_examples():
    assert is_skew_reciprocal(P((-1, -1, 1))) == -1
    assert is_skew_reciprocal(P((-1, -2, -1, 0, 1))) is None
    assert is_skew_reciprocal(P((-1, -1, 0, 0, 0, -1, 1))) == -1


def test_skew_reciprocal_numeric_root_cross_check():
    # roots of t^6 - t^5 - t - 1 form a multiset invariant under z -> -1/z
    roots = np.roots([1, -1, 0, 0, 0, -1, -1])
    images = [-1 / z for z in roots]
    for w in images:
        assert min(abs(w - z) for z in roots) < 1e-8


def test_skew_reciprocal_odd_degree_always_absent():
    rng = random.Random(3)
    for _ in range(100):
        deg = rng.choice((1, 3, 5, 7))
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice((1, -1, 3))]
        coeffs[0] = coeffs[0] or 1
        assert is_skew_reciprocal(P(coeffs)) is None


def test_skew_reciprocal_requires_nonzero_constant():
    with pytest.raises(ValueError):
        is_skew_reciprocal(P((0, 1)))


def test_strip_cyclotomic_examples():
    assert strip_cyclotomic(P((-1, -2, -1, 0, 1))) == (P((1, 1, 1)), P((-1, -1, 1)))
    assert strip_cyclotomic(P((-1, 0, 1, -2, 1))) == (P((1, -1, 1)), P((-1, -1, 1)))
    cyclo, core = strip_cyclotomic(P((-1, -1, 0, 0, 0, -1, 1)))
    assert cyclo == P((1,)) and core == P((-1, -1, 0, 0, 0, -1, 1))


def test_strip_cyclotomic_multiplicity():
    p = cyclotomic(4) * cyclotomic(4) * cyclotomic(3) * P((-1, -1, 1))
    cyclo, core = strip_cyclotomic(p)
    assert core == P((-1, -1, 1))
    assert cyclo == cyclotomic(4) * cyclotomic(4) * cyclotomic(3)


def test_strip_decomposition_soundness_random():
    rng = random.Random(17)
    for _ in range(80):
        p = random_polynomial(rng, max_degree=7)
        if p.is_zero() or p.constant_term() == 0:
            continue
        cyclo, core = strip_cyclotomic(p)
        assert cyclo * core == p
        if core.degree() >= 1:
            for m in cyclotomic_indices_up_to_degree(core.degree()):
                phi = cyclotomic(m)
                if phi.degree() > core.degree():
                    continue
                _, rem, _, exact = divrem(core, phi)
                assert not (exact and rem.is_zero()), (p, m)


#: Strips t^d + 2 for d = 1..40 and prints the bytes still allocated after.
_RETAINED_BY_STRIPPING = """
import tracemalloc
from stretchlab.classify import strip_cyclotomic
from stretchlab.poly import IntPolynomial
tracemalloc.start()
for d in range(1, 41):
    strip_cyclotomic(IntPolynomial([2] + [0] * (d - 1) + [1]))
print(tracemalloc.get_traced_memory()[0])
"""


def test_stripping_retains_only_the_divisor_lists():
    # a fresh process, so no earlier test has filled a cache; what stays is
    # each degree's divisor list and its Phi_m (~0.2 MB), not a phi sieve
    # of 2 d^2 entries per degree (~1.5 MB over these degrees)
    src = str(Path(stretchlab.poly.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _RETAINED_BY_STRIPPING],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert int(done.stdout) < 750_000


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from((1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 30)), max_size=6),
    st.lists(st.integers(-6, 6), min_size=1, max_size=7),
    st.integers(0, 2),
)
@example(indices=[1, 2, 2, 12], cofactor=[-1, -1, 1], twos=1)
def test_strip_cyclotomic_matches_trial_division(indices, cofactor, twos):
    # twos > 0 puts t - 2 in the cofactor, so p(2) = 0 and no division is skipped
    cofactor[0] = cofactor[0] or 1
    p = P(cofactor) * P((-2, 1)) ** twos
    for m in indices:
        p = p * cyclotomic(m)
    cyclo, core = strip_cyclotomic(p)
    assert (cyclo, core) == strip_by_trial_division(p)
    assert cyclo * core == p


def test_strip_cyclotomic_matches_trial_division_on_family_survivors():
    candidates = {
        instantiate(form, 16) for tag in ALL_FORMS for form in _form_instances(tag, 16)
    }
    survivors = [p for p in candidates if p.constant_term() and parity_condition(p)]
    assert len(survivors) > 300
    assert any(strip_cyclotomic(p)[0].degree() > 0 for p in survivors)
    for p in survivors:
        assert strip_cyclotomic(p) == strip_by_trial_division(p), p


def test_skew_up_to_cyclotomic_examples():
    assert is_skew_reciprocal_up_to_cyclotomic(P((-1, -2, -1, 0, 1)))
    assert is_skew_reciprocal_up_to_cyclotomic(P((-1, -2, 0, 1)))  # (t+1)(t^2-t-1)
    assert not is_skew_reciprocal_up_to_cyclotomic(P((-1, 1, -1, -1, 1)))
    assert not is_skew_reciprocal_up_to_cyclotomic(P((0, 1)))  # root at 0


@st.composite
def skew_reciprocal_polynomials(draw) -> P:
    """Skew-reciprocal polynomials with nonzero constant term, degree 0..8."""
    half = draw(st.integers(0, 4))
    eps = draw(st.sampled_from((1, -1))) if half else 1
    low = draw(st.lists(st.integers(-5, 5), min_size=half + 1, max_size=half + 1))
    low[0] = low[0] or 1
    coeffs = [0] * (2 * half + 1)
    for j in range(half):
        coeffs[j] = low[j]
        coeffs[2 * half - j] = eps * (-1) ** j * low[j]
    if eps * (-1) ** half == 1:
        coeffs[half] = low[half]
    return P(coeffs)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 12), max_size=3), skew_reciprocal_polynomials())
def test_parity_is_necessary_for_skew_up_to_cyclotomic(indices, skew):
    # the lemma behind the early exit: cyclotomic x skew-reciprocal has parity
    assert is_skew_reciprocal(skew) is not None
    p = skew
    for m in indices:
        p = p * cyclotomic(m)
    assert parity_condition(p), (indices, skew)
    assert is_skew_reciprocal_up_to_cyclotomic(p)


def _skew_up_to_cyclotomic_by_trial_division(p: P) -> bool:
    if p.constant_term() == 0:
        return False
    core = strip_by_trial_division(p)[1]
    return core.degree() == 0 or is_skew_reciprocal(core) is not None


def test_predicate_matches_trial_division_definition():
    cases = {
        instantiate(form, n)
        for n in range(4, 11)
        for tag in ALL_FORMS
        for form in _form_instances(tag, n)
    }
    rng = random.Random(67)
    for _ in range(150):
        cases.add(random_polynomial(rng, 8))
        cofactor = random_skew_reciprocal(rng) if rng.random() < 0.5 else random_polynomial(rng, 6)
        cases.add(cofactor * cyclotomic(rng.choice((1, 2, 3, 4, 5, 6, 8, 10, 12))))
    assert any(_skew_up_to_cyclotomic_by_trial_division(p) for p in cases)
    for p in cases:
        expected = _skew_up_to_cyclotomic_by_trial_division(p)
        assert is_skew_reciprocal_up_to_cyclotomic(p) == expected, p


def test_parity_condition_examples():
    assert parity_condition(P((-1, -2, -1, 0, 1)))
    assert not parity_condition(P((-1, 0, 0, -1, 1)))
    assert parity_condition(P((-1, 0, -2, 0, 1)))


def test_parity_closure_of_products():
    rng = random.Random(29)
    for _ in range(500):
        r = random_reciprocal(rng)
        s = random_skew_reciprocal(rng)
        if r.is_zero() or s.is_zero():
            continue
        assert parity_condition(r * s), (r, s)


def test_predicate_consistency():
    rng = random.Random(41)
    cases = [random_skew_reciprocal(rng) for _ in range(100)]
    cases += [random_polynomial(rng, 6) for _ in range(200)]
    # cyclotomic factors and roots at 0 reach the stripped core and the p(0) = 0 path
    cases += [cyclotomic(rng.choice((1, 2, 3, 4, 6))) * random_skew_reciprocal(rng) for _ in range(50)]
    cases += [p.shift(1) for p in cases[:20]]
    for p in cases:
        if p.is_zero():
            continue
        # the classifier and the predicate decide through one helper
        assert classify(p).skew_up_to_cyclotomic == is_skew_reciprocal_up_to_cyclotomic(p)
        if p.constant_term() == 0:
            continue
        if is_skew_reciprocal(p) is not None:
            assert is_skew_reciprocal_up_to_cyclotomic(p)
        if is_skew_reciprocal_up_to_cyclotomic(p):
            assert parity_condition(p)


def _numeric_skew_invariant(p: P) -> bool:
    roots = np.roots(list(reversed(p.coeffs)))
    if len(roots) == 0:
        return True
    for z in roots:
        if min(abs(-1 / z - w) for w in roots) > 1e-8:
            return False
    return True


def test_coefficient_test_matches_numeric_roots():
    rng = random.Random(53)
    agree = 0
    for _ in range(200):
        p = random_skew_reciprocal(rng) if rng.random() < 0.5 else random_polynomial(rng, 8)
        if p.is_zero() or p.constant_term() == 0 or p.degree() < 1:
            continue
        coeff_says = is_skew_reciprocal(p) is not None
        roots_say = _numeric_skew_invariant(p)
        assert coeff_says == roots_say, p
        agree += 1
    assert agree > 150


def test_classify_record():
    sc = classify(P((-1, -2, -1, 0, 1)))
    assert sc.skew_up_to_cyclotomic and sc.parity_ok and not sc.degenerate
    assert sc.cyclotomic_part == P((1, 1, 1))
    assert sc.core == P((-1, -1, 1))
    assert sc.reciprocal is None and sc.skew_reciprocal is None


def test_classify_degenerate_cyclotomic():
    sc = classify(cyclotomic(6))
    assert sc.degenerate and sc.skew_up_to_cyclotomic
    assert sc.core.degree() == 0


def test_classify_zero_constant_term():
    sc = classify(P((0, 0, -1, -1, 1)) * cyclotomic(3))
    assert not sc.skew_up_to_cyclotomic
    assert sc.skew_reciprocal is None
    assert sc.cyclotomic_part == cyclotomic(3)
    assert sc.cyclotomic_part * sc.core == sc.polynomial


def test_sqrt_min_poly_examples():
    q4, irr4 = sqrt_min_poly(4, 1)
    assert q4 == P((1, 0, -4, 0, 1)) and irr4
    q5, irr5 = sqrt_min_poly(5, 1)
    assert q5 == P((1, 0, -5, 0, 1)) and irr5
    q3, irr3 = sqrt_min_poly(3, 1)
    assert q3 == P((1, 0, -3, 0, 1)) and not irr3
    # the factorization witness, checked by exact multiplication
    assert P((-1, -1, 1)) * P((-1, 1, 1)) == q3


def test_sqrt_min_poly_errors():
    with pytest.raises(ValueError):
        sqrt_min_poly(1, 5)  # negative discriminant
    with pytest.raises(ValueError):
        sqrt_min_poly(1, 0)  # largest root is 1, not > 1
    with pytest.raises(ValueError):
        sqrt_min_poly(-3, 1)  # largest root below 1


def test_salem_like():
    assert is_salem_like(LEHMER)
    assert is_salem_like(LT)
    assert not is_salem_like(P((-1, -1, 1)))
    # right unit-circle count but not reciprocal: (t^2+1)(t^2-t-1)
    assert not is_salem_like(P((-1, -1, 0, -1, 1)))


def test_qualify_sides():
    # sigma^2 exactly: t^2 - 2t - 1 has root 1 + sqrt(2), decided algebraically
    assert qualify(P((-1, -2, 1)), 2).side == 0
    golden = qualify(P((-1, -1, 1)), 2)  # mu^2 below the bound
    assert golden.side == -1
    assert golden.normalized == golden.root.powered(2)
    assert qualify(P((-1, -1, 0, -1, 1)), 4).side == 1  # mu^4 above it


@pytest.mark.parametrize(
    "chi",
    [
        P((-1, -2, 0, 0, 1)),  # t^4 - 2t - 1: not skew up to cyclotomics
        cyclotomic(5),  # no root above 1
        P((-1, 0, 0, -1, 1)),  # t^4 - t^3 - 1: parity fails
    ],
    ids=str,
)
def test_qualify_rejects(chi):
    assert qualify(chi, chi.degree()) is None


def test_qualify_takes_the_skew_value_a_caller_holds():
    tol = Fraction(1, 2**10)
    for tag in ALL_FORMS:
        for form in _form_instances(tag, 6):
            chi = instantiate(form, 6)
            skew = is_skew_reciprocal_up_to_cyclotomic(chi)
            assert qualify(chi, 6, tol, skew) == qualify(chi, 6, tol)
