"""Certified root enclosures, Sturm counts and unit-circle counts."""

import importlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_repeated_product, random_structured_reciprocal
from poly_reference import square_free_part
from stretchlab.poly import IntPolynomial, cyclotomic
from stretchlab.roots import (
    DEFAULT_TOL,
    SILVER_SQUARED_DECIMAL,
    NoRealRootError,
    RootEnclosure,
    cauchy_root_bound,
    compare_enclosures,
    compare_power_to_silver_squared,
    dyadic_str,
    fraction_to_decimal_str,
    largest_real_root,
    largest_root_above_one,
    real_roots_in_interval,
    sturm_chain,
    unit_circle_root_count,
)
from stretchlab.sharpness import expected_char_poly

P = IntPolynomial

GOLDEN = P((-1, -1, 1))
SILVER = P((-1, -2, 1))
SILVER_SQUARE = P((1, -6, 1))  # its larger root is 3 + 2*sqrt(2)
LEHMER = P((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
LT = P((1, -1, -1, -1, 1))


def test_golden_and_silver_ratios():
    mu = largest_real_root(GOLDEN)
    assert abs(float(mu) - 1.6180339887498949) < 1e-12
    sigma = largest_real_root(SILVER)
    assert abs(float(sigma) - 2.414213562373095) < 1e-12


def test_quartic_normalized_value():
    # t^4 - 2t^2 - 1: fourth power of the largest root is 3 + 2*sqrt(2)
    r = largest_real_root(P((-1, 0, -2, 0, 1)))
    powered = r.powered(4)
    assert abs(float(powered) - 5.828427124746190) < 1e-9


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Fraction(1, 10**12), Fraction(1, 3)])
@pytest.mark.parametrize("n", [1, 4, 37, 400])
def test_powered_rounds_outward_to_a_fine_dyadic_grid(tol, n):
    r = largest_real_root(LEHMER, tol)
    exact_lo, exact_hi = r.lo**n, r.hi**n
    v = r.powered(n)
    assert v.lo <= exact_lo and exact_hi <= v.hi
    assert v.width <= (exact_hi - exact_lo) * Fraction(129, 128)
    for end in (v.lo, v.hi):
        assert end.denominator & (end.denominator - 1) == 0  # a power of two


def test_real_root_counts():
    assert real_roots_in_interval(GOLDEN, 0, 2) == 1
    assert real_roots_in_interval(P((1, 0, 1)), -10, 10) == 0
    assert real_roots_in_interval(P((-1, 0, -2, 0, 1)), -2, 2) == 2


def test_count_half_open_semantics():
    # roots at +-1; (a, b] includes the right endpoint only
    p = P((-1, 0, 1))
    assert real_roots_in_interval(p, -1, 1) == 1
    assert real_roots_in_interval(p, -2, 1) == 2
    assert real_roots_in_interval(p, 1, 2) == 0


@pytest.mark.parametrize(
    "coeffs",
    [(1, 0, 1), (-1, 1), (-1, 2)],
    ids=["t^2+1", "t-1", "2t-1"],
)
def test_largest_root_above_one_none(coeffs):
    assert largest_root_above_one(P(coeffs)) is None


def test_largest_root_above_one_is_the_largest_root_enclosure():
    tol = Fraction(1, 2**20)
    assert largest_root_above_one(GOLDEN, tol) == largest_real_root(GOLDEN, tol)
    assert largest_root_above_one(GOLDEN) == largest_real_root(GOLDEN)


def test_enclosure_soundness_random():
    rng = random.Random(23)
    checked = 0
    while checked < 60:
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 9))] + [
            rng.choice((1, -1, 2))
        ]
        p = P(coeffs)
        bound = cauchy_root_bound(p)
        if real_roots_in_interval(p, 0, bound) == 0:
            continue
        enc = largest_real_root(p)
        chain = sturm_chain(p)
        # exactly one distinct root inside, none between hi and the bound
        assert chain.count(enc.lo, enc.hi) == 1
        if enc.hi < bound:
            assert chain.count(enc.hi, bound) == 0
        assert enc.width <= DEFAULT_TOL
        assert enc.polynomial.sign_at(enc.lo) * enc.polynomial.sign_at(enc.hi) == -1
        checked += 1


def test_exact_dyadic_roots():
    for p, root in [
        (P((-1, 1)), Fraction(1)),
        (P((-1, 2)), Fraction(1, 2)),
        (P((-3, 4)), Fraction(3, 4)),
    ]:
        enc = largest_real_root(p)
        assert enc.lo < root <= enc.hi
        assert enc.width <= DEFAULT_TOL


def test_multiple_roots_squarefree_certificate():
    enc = largest_real_root(P((4, -4, 1)))  # (t - 2)^2
    assert enc.polynomial == P((-2, 1))
    assert enc.lo < 2 <= enc.hi


@pytest.mark.parametrize(
    "p, distinct_real",
    [
        (GOLDEN * GOLDEN * P((2, 1)), 3),  # (t^2 - t - 1)^2 (t + 2)
        # Phi_5^2 (t^3 - 2t - 1), and t^3 - 2t - 1 = (t + 1)(t^2 - t - 1)
        (cyclotomic(5) * cyclotomic(5) * P((-1, -2, 0, 1)), 3),
        (P((-2, 0, 1)) * P((-2, 0, 1)), 2),  # (t^2 - 2)^2
    ],
    ids=["golden-squared", "phi5-squared", "perfect-square"],
)
def test_one_pass_chain_on_repeated_factors(p, distinct_real):
    chain = sturm_chain(p)
    sf = square_free_part(p)
    assert chain.chain[0] == sf
    assert sf.degree() < p.degree()
    bound = cauchy_root_bound(p)
    assert real_roots_in_interval(p, -bound, bound) == distinct_real
    assert real_roots_in_interval(sf, -bound, bound) == distinct_real
    assert largest_real_root(p).polynomial == sf


@pytest.mark.parametrize("c", [1, 5, -3])
def test_chain_of_a_constant_is_one(c):
    assert sturm_chain(P((c,))).chain == (P((1,)),)


def test_zero_polynomial_has_no_chain():
    with pytest.raises(ValueError):
        real_roots_in_interval(P(()), 0, 1)
    with pytest.raises(ValueError):
        largest_real_root(P(()))
    with pytest.raises(ValueError):
        sturm_chain(P(()))


def test_no_real_root_errors():
    with pytest.raises(NoRealRootError):
        largest_real_root(P((1, 0, 1)))
    with pytest.raises(NoRealRootError):
        largest_real_root(P((2, 3)))  # only root is negative
    with pytest.raises(ValueError):
        largest_real_root(P(()))


def test_refinement_narrows():
    enc = largest_real_root(GOLDEN, Fraction(1, 4))
    finer = enc.refined(Fraction(1, 2**60))
    assert finer.width <= Fraction(1, 2**60)
    assert finer.lo >= enc.lo and finer.hi <= enc.hi


def test_unit_circle_counts_paper_values():
    assert unit_circle_root_count(LEHMER) == 8
    assert unit_circle_root_count(LT) == 2
    assert unit_circle_root_count(GOLDEN) == 0


def test_unit_circle_multiplicity():
    p = cyclotomic(4) * cyclotomic(4) * GOLDEN  # (t^2+1)^2 doubles the count
    assert unit_circle_root_count(p) == 4


def test_unit_circle_errors():
    with pytest.raises(ValueError):
        unit_circle_root_count(P((0, 1)))
    with pytest.raises(ValueError):
        unit_circle_root_count(P(()))


# (factor, its roots on the unit circle): a root of f^k counts k times
UNIT_COUNT_FACTORS = (
    (cyclotomic(1), 1),
    (cyclotomic(2), 1),
    (cyclotomic(3), 2),
    (cyclotomic(5), 4),
    (cyclotomic(12), 4),
    (LEHMER, 8),
    (LT, 2),  # the Salem quartic of repro set-theorem
    (P((1, -3, 1)), 0),
)


@pytest.mark.parametrize(
    "powers, content, expected",
    [
        ({0: 4, 1: 3}, 1, 7),
        ({2: 2, 7: 3}, -1, 4),
        ({5: 2, 7: 3}, 6, 16),
        ({6: 4}, -2, 8),
        ({3: 3, 4: 2, 6: 1}, -3, 22),
        ({0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 6: 1, 7: 1}, 1, 14),
    ],
    ids=["pm1", "neg-lead", "content", "salem-fourth", "mixed", "square-free"],
)
def test_unit_circle_count_with_multiplicities(powers, content, expected):
    p = P((content,))
    for i, k in powers.items():
        p = p * UNIT_COUNT_FACTORS[i][0] ** k
    assert unit_circle_root_count(p) == expected


def test_unit_circle_count_on_random_powers_of_known_factors():
    rng = random.Random(41)
    for _ in range(40):
        p = P((rng.choice((1, -1, 2, -6)),))
        expected = 0
        for factor, roots in rng.sample(UNIT_COUNT_FACTORS, rng.randint(1, 3)):
            k = rng.randint(1, 4)
            while k > 1 and p.degree() + k * factor.degree() > 24:
                k -= 1
            p = p * factor**k
            expected += k * roots
        assert unit_circle_root_count(p) == expected, p


def numeric_unit_circle_count(p: IntPolynomial, tol: float = 1e-9) -> int:
    """Float oracle: roots from np.roots within ``tol`` of modulus one."""
    roots = np.roots([float(c) for c in reversed(p.coeffs)])
    return sum(1 for z in roots if abs(abs(z) - 1.0) <= tol)


def test_unit_circle_exact_agrees_with_numeric():
    rng = random.Random(97)
    for _ in range(200):
        p = random_structured_reciprocal(rng)
        assert unit_circle_root_count(p) == numeric_unit_circle_count(p), p


def test_unit_circle_exact_agrees_with_numeric_on_repeated_factors():
    # np.roots moves a root of multiplicity k by about eps^(1/k), so the
    # tolerance is loose; every pool root off the circle has |log|z|| > 0.6
    rng = random.Random(98)
    for _ in range(150):
        p = random_repeated_product(rng)
        assert unit_circle_root_count(p) == numeric_unit_circle_count(p, 1e-3), p


def test_compare_enclosures_ordering_and_equality():
    mu = largest_real_root(GOLDEN)
    sigma = largest_real_root(SILVER)
    mu_again = largest_real_root(P((-1, -1, 0, -1, 1)))  # (t^2+1)(t^2-t-1)
    assert compare_enclosures(mu, sigma) == -1
    assert compare_enclosures(sigma, mu) == 1
    assert compare_enclosures(mu, mu_again) == 0


tolerances = st.integers(0, 40).map(lambda k: Fraction(1, 2**k))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10**12), st.sampled_from([1, 2, 3, 4, 6, 12]), tolerances, tolerances)
def test_compare_enclosures_on_equal_roots(n, m, tol_a, tol_b):
    # sqrt(n), certified once by t^2 - n and once by (t^2 - n) Phi_m
    a = largest_real_root(P((-n, 0, 1)), tol_a)
    b = largest_real_root(P((-n, 0, 1)) * cyclotomic(m), tol_b)
    assert compare_enclosures(a, b) == 0
    assert compare_enclosures(b, a) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10**12), st.integers(1, 1000), tolerances, tolerances, st.booleans())
def test_compare_enclosures_on_nearly_equal_roots(n, gap, tol_a, tol_b, shared):
    # sqrt(n) < sqrt(n + gap), which can lie within 1e-9 of each other; with
    # ``shared`` the larger root's certificate also has sqrt(n) as a root
    big = P((-(n + gap), 0, 1))
    if shared:
        big = big * P((-n, 0, 1))
    a = largest_real_root(P((-n, 0, 1)), tol_a)
    b = largest_real_root(big, tol_b)
    assert compare_enclosures(a, b) == -1
    assert compare_enclosures(b, a) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.sampled_from([1, 2, 3, 4, 6]), tolerances)
def test_power_comparison_on_the_threshold(e, m, tol):
    # x^e = 3 + 2 sqrt(2) exactly for the largest root x of t^2e - 6 t^e + 1
    composed = [0] * (2 * e + 1)
    composed[0], composed[e], composed[2 * e] = 1, -6, 1
    x = largest_real_root(P(composed) * cyclotomic(m), tol)
    assert compare_power_to_silver_squared(x, e) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 10**6), st.sampled_from([-1, 1]), tolerances)
def test_power_comparison_near_the_threshold(e, k, side, tol):
    # x^e = 3 + sqrt(8 + side/k), just above (side 1) or below (side -1) the bound
    perturbed = [0] * (2 * e + 1)
    perturbed[0], perturbed[e], perturbed[2 * e] = k - side, -6 * k, k
    x = largest_real_root(P(perturbed), tol)
    assert compare_power_to_silver_squared(x, e) == side


def test_silver_threshold_and_power_comparison():
    s2 = largest_real_root(SILVER_SQUARE)
    assert abs(float(s2) - 5.82842712474619) < 1e-10
    sigma = largest_real_root(SILVER)
    mu = largest_real_root(GOLDEN)
    assert compare_power_to_silver_squared(sigma, 2) == 0  # sigma^2 exactly
    assert compare_power_to_silver_squared(mu, 2) == -1  # mu^2 below
    assert compare_power_to_silver_squared(mu, 4) == 1  # mu^4 above


def test_power_comparison_below_the_reciprocal_threshold():
    # x = sqrt(2) - 1, the largest real root of t^2 + 2t - 1, has x^2 = 1/sigma^2
    inverse_sigma = P((-1, 2, 1))
    assert compare_power_to_silver_squared(largest_real_root(inverse_sigma), 2) == -1
    # a wide enclosure overlaps the threshold, so the algebraic test decides
    wide = RootEnclosure(Fraction(0), Fraction(3), inverse_sigma)
    assert compare_power_to_silver_squared(wide, 2) == -1


def test_power_comparison_separates_before_the_gcd(monkeypatch):
    roots_module = importlib.import_module("stretchlab.roots")
    mu = largest_real_root(GOLDEN)
    sharp = largest_real_root(expected_char_poly(12))
    sigma = largest_real_root(SILVER)
    gcd = roots_module.poly_gcd
    calls = []
    monkeypatch.setattr(roots_module, "poly_gcd", lambda p, q: calls.append(q) or gcd(p, q))
    assert compare_power_to_silver_squared(mu, 4) == 1
    assert compare_power_to_silver_squared(mu, 2) == -1
    assert compare_power_to_silver_squared(sharp, 24) == 1
    assert calls == []
    assert compare_power_to_silver_squared(sigma, 2) == 0
    assert len(calls) == 1


def test_comparators_isolate_no_threshold_and_take_one_gcd(monkeypatch):
    roots_module = importlib.import_module("stretchlab.roots")
    mu = largest_real_root(GOLDEN)
    sigma = largest_real_root(SILVER)
    inverse_sigma = largest_real_root(P((-1, 2, 1)))
    near = largest_real_root(P((-(10**12 + 1), 0, 1)))  # sqrt(10^12 + 1), beside 10^6
    shared = largest_real_root(P((-(10**12 + 1), 0, 1)) * P((-(10**12), 0, 1)))

    def forbidden(*args, **kwargs):
        raise AssertionError("the comparator built an enclosure of the threshold")

    gcd = roots_module.poly_gcd
    calls = []
    monkeypatch.setattr(roots_module, "largest_real_root", forbidden)
    monkeypatch.setattr(RootEnclosure, "powered", forbidden)
    monkeypatch.setattr(roots_module, "poly_gcd", lambda p, q: calls.append(q) or gcd(p, q))
    assert [compare_power_to_silver_squared(mu, e) for e in range(2, 9)] == [-1, -1] + [1] * 5
    assert compare_power_to_silver_squared(sigma, 2) == 0
    assert compare_power_to_silver_squared(inverse_sigma, 2) == -1
    # each comparison of overlapping enclosures takes at most one gcd
    for a, b, side in ((mu, mu, 0), (near, shared, 0), (shared, near, 0)):
        calls.clear()
        assert compare_enclosures(a, b) == side
        assert len(calls) <= 1
    million = RootEnclosure(Fraction(999_999), Fraction(1_000_001), P((-(10**12), 0, 1)))
    calls.clear()
    assert compare_enclosures(million, near) == -1  # overlaps first, then refines apart
    assert len(calls) == 1
    monkeypatch.undo()
    fine = Fraction(1, 2**50)
    assert largest_real_root(SILVER_SQUARE, fine).width <= fine


def test_printed_bound_is_the_silver_square_correctly_rounded():
    # d / 10^9 is 3 + sqrt(8) to 10 digits iff 3 + sqrt(8) lies within half a
    # unit of the last digit: lo < 2 * 10^9 * sqrt(8) < hi, squared in integers
    whole, frac = SILVER_SQUARED_DECIMAL.split(".")
    assert len(whole + frac) == 10 and whole.isdigit() and frac.isdigit()
    scale = 10 ** len(frac)
    d = int(whole + frac)
    lo, hi = 2 * d - 1 - 6 * scale, 2 * d + 1 - 6 * scale
    assert 0 < lo and lo**2 < 8 * (2 * scale) ** 2 < hi**2


def test_decimal_and_dyadic_rendering():
    assert fraction_to_decimal_str(Fraction(1618033989, 10**9), sig=10) == "1.618033989"
    assert dyadic_str(Fraction(3, 8)) == "3/2^3"
    assert dyadic_str(Fraction(7)) == "7"
    enc = largest_real_root(GOLDEN)
    assert enc.decimal(10) == "1.618033989"
    js = enc.to_json()
    assert set(js) == {"lo", "hi", "decimal"}
