"""The one-sign-change route of ``largest_real_root`` against the Sturm route.

A monic p with p(0) < 0, one coefficient sign change and a square-free proof
modulo a word-size prime is bisected from (0, CauchyBound] with p as its own
certificate; every other p keeps the Sturm chain.  Both routes must give the
same (lo, hi, certificate) at each tolerance and after refinement, and the
integer-dyadic bisection must give the enclosures of ``Fraction`` midpoints.
"""

import random
from fractions import Fraction

import pytest

import poly_reference
from conftest import random_polynomial
from stretchlab import roots
from stretchlab.families import ALL_FORMS, FamilyForm, _form_instances, instantiate
from stretchlab.poly import IntPolynomial
from stretchlab.roots import (
    DEFAULT_TOL,
    cauchy_root_bound,
    largest_real_root,
    largest_root_above_one,
    real_roots_in_interval,
)
from stretchlab.sharpness import expected_char_poly

P = IntPolynomial
TOLS = (DEFAULT_TOL, Fraction(1, 1000), Fraction(1, 3))
COARSE = (Fraction(1, 3),)


def takes_route(p: IntPolynomial) -> bool:
    return roots._one_sign_change(p) and roots._square_free_mod_prime(p)


def assert_routes_agree(p: IntPolynomial, tols=TOLS, refine: bool = True) -> None:
    """Identical (lo, hi, certificate) at each tol, and after ``refined(tol / 1024)``."""
    for tol in tols:
        fast = largest_real_root(p, tol)
        sturm = roots._sturm_largest_root(p, tol)
        pairs = [(fast, sturm)]
        if refine:
            pairs.append((fast.refined(tol / 1024), sturm.refined(tol / 1024)))
        for a, b in pairs:
            assert (a.lo, a.hi, a.polynomial) == (b.lo, b.hi, b.polynomial), (str(p), tol)


def one_sign_change_forms(n: int) -> list[IntPolynomial]:
    forms = {instantiate(f, n) for tag in ALL_FORMS for f in _form_instances(tag, n)}
    return sorted((p for p in forms if roots._one_sign_change(p)), key=lambda p: p.coeffs)


def scan_polynomials(branch: str, n: int) -> list[IntPolynomial]:
    """The points of ``monotonicity_scan(branch, n)`` over its full grid."""
    g = n // 2
    if branch == "5A1":
        grid = [(a, b) for a in range(g) for b in range(a, g)]
    else:
        grid = [(d,) for d in range(g)]
    middle = (g,) if branch == "4A1" else ()
    return [
        instantiate(
            FamilyForm(branch, tuple(g - x for x in reversed(ps)) + middle + tuple(g + x for x in ps)),
            n,
        )
        for ps in grid
    ]


def random_one_sign_change(rng: random.Random) -> IntPolynomial:
    """Monic, p(0) < 0: coefficients <= 0 below a cut and >= 0 from it on."""
    degree = rng.randint(1, 10)
    cut = rng.randint(1, degree)
    coeffs = [-rng.randint(1, 9)]
    coeffs += [-rng.randint(0, 9) for _ in range(1, cut)]
    coeffs += [rng.randint(0, 9) for _ in range(cut, degree)]
    return P(coeffs + [1])


def test_sharpness_polynomials_take_the_route_with_identical_enclosures():
    for k in range(2, 201):
        p = expected_char_poly(k)
        assert takes_route(p), k
        assert_routes_agree(p)


@pytest.mark.parametrize("n", range(2, 17))
def test_every_one_sign_change_family_form(n):
    # n = 9..16 hold 19,000 of the 20,328 forms: there one coarse isolation
    # settles the gate decision, the certificate and the start interval
    for p in one_sign_change_forms(n):
        if n <= 8:
            assert_routes_agree(p)
        else:
            assert_routes_agree(p, COARSE, refine=False)


@pytest.mark.parametrize("branch", ["3A1", "4A1", "5A1"])
def test_scan_points(branch):
    # every even n <= 64 for 3A1 and 4A1, all tolerances up to n = 32; the
    # two-parameter 5A1 grid (5,983 points up to 64) at the workload's n = 16
    # and the cap n = 64
    ns = range(4, 65, 2) if branch != "5A1" else (16, 64)
    for n in ns:
        for p in scan_polynomials(branch, n):
            assert takes_route(p)
            if n <= 32:
                assert_routes_agree(p)
            else:
                assert_routes_agree(p, COARSE, refine=False)


def test_seeded_polynomials_with_repeated_factors():
    # (t + 1)^2 q keeps one sign change but is not square-free, so it must
    # leave the route: the Sturm certificate is q (t + 1), not the input
    rng = random.Random(31)
    routed = repeated = 0
    for _ in range(500):
        q = random_one_sign_change(rng)
        doubled = q * P((1, 1)) ** 2
        assert roots._one_sign_change(doubled)
        assert not roots._square_free_mod_prime(doubled)
        routed += takes_route(q)
        repeated += largest_real_root(doubled).polynomial != doubled
        for p in (q, doubled, q * q):
            assert_routes_agree(p)
    assert routed > 450 and repeated == 500


def test_gate_keeps_square_free_parts_as_certificates():
    # (t - 2)(t + 1)^2 = t^3 - 3t - 2 and (t - 3)(t + 2)^2 = t^3 + t^2 - 8t - 12
    for p, sf in [
        (P((-2, -3, 0, 1)), P((-2, -1, 1))),
        (P((-12, -8, 1, 1)), P((-6, -1, 1))),
    ]:
        assert roots._one_sign_change(p) and not roots._square_free_mod_prime(p)
        assert largest_real_root(p).polynomial == sf


@pytest.mark.parametrize(
    "p",
    [P((-1, 1)), P((-2, 1)), P((-3, 0, 1)), P((-1, -1, 1)), P((-1, 0, 0, 0, 1)), P((-5, -1, 0, 1))],
    ids=["t-1", "t-2", "t^2-3", "t^2-t-1", "t^4-1", "t^3-t-5"],
)
def test_root_above_one_from_the_sign_at_one(p):
    # a root at exactly 1 is not above 1
    above = real_roots_in_interval(p, 1, cauchy_root_bound(p)) > 0
    got = largest_root_above_one(p)
    assert (got is not None) == above
    if above:
        assert got == largest_real_root(p)


@pytest.mark.parametrize("p", [P(()), P((1,)), P((-1,))], ids=["zero", "1", "-1"])
def test_root_above_one_of_a_constant_is_an_error(p):
    assert not roots._one_sign_change(p)
    with pytest.raises(ValueError):
        largest_root_above_one(p)


def assert_above_one_agrees(p: IntPolynomial, tol: Fraction) -> bool | None:
    """The enclosure's answer against the count-then-isolate reference.

    Returns the answer when the enclosure straddles 1 (lo < 1 < hi), where
    only the certificate's signs decide, and None otherwise.
    """
    got = largest_root_above_one(p, tol)
    expected = poly_reference.largest_root_above_one(p, tol)
    assert (got is None) == (expected is None), (str(p), tol)
    if got is not None:
        assert got == expected == largest_real_root(p, tol), (str(p), tol)
    try:
        root = largest_real_root(p, tol)
    except roots.NoRealRootError:
        return None
    return got is not None if root.lo < 1 < root.hi else None


def test_root_above_one_agrees_with_the_sturm_count_on_family_forms():
    for p in one_sign_change_forms(9) + [random_one_sign_change(random.Random(s)) for s in range(200)]:
        assert_above_one_agrees(p, Fraction(1, 3))


def test_root_above_one_on_general_polynomials():
    rng = random.Random(32)
    # t_c is t - c, tc is t + c, and t2_1 is t^2 + 1
    t_1, t_2, t_3, t1, t2 = P((-1, 1)), P((-2, 1)), P((-3, 1)), P((1, 1)), P((2, 1))
    t2_1 = P((1, 0, 1))
    cases = [
        # a root at exactly 1, simple and double: not above 1
        t_1,
        t_1 * t1,
        t_1 * t2_1,
        t_1 * P((-1, 2)),
        t_1 * t_1,
        t_1 * t_1 * t2,
        t_1 * t_1 * P((-1, 2)),
        # positive roots only in (0, 1)
        P((1, -5, 6)),  # (2t - 1)(3t - 1)
        P((-1, 1, 1)),  # root 0.618...
        P((-3, 4)) * t2,
        P((1, -9, 9)),  # roots 0.127..., 0.872...
        # no positive root
        t1,
        t2_1,
        P((2, 3, 1)),
        P((5, 1, 0, 1)),
        # several sign changes
        t_2 * t_3 * t1,
        P((-1, 4, 2, -4, 1)),
        P((1, -3, 1)),  # roots 0.38..., 2.61...
        P((-1, 3, -3, 1, 0, 1)),
        # not square-free
        t_2 * t_2 * t1,
        P((-3, 0, 1)) * P((-3, 0, 1)),
        t_1 * t_1 * t_1 * t_3,
        P((-1, 2)) * P((-1, 2)) * t_3 * t_3,
        P((-1, -1, 1)) * P((-1, -1, 1)) * t2_1,
    ]
    cases += [random_polynomial(rng, 8, 5) for _ in range(300)]
    straddled = set()
    for p in cases:
        if p.degree() < 1:
            continue
        # a coarse tol leaves 1 inside many enclosures, so the certificate's
        # signs at 1 and lo must decide there
        for tol in (DEFAULT_TOL, Fraction(1, 3), Fraction(16)):
            straddled.add(assert_above_one_agrees(p, tol))
    assert straddled == {None, False, True}


def test_integer_dyadic_bisection_matches_fraction_midpoints():
    rng = random.Random(7)
    tols = [DEFAULT_TOL, Fraction(1, 1000), Fraction(1, 3), Fraction(2, 7), Fraction(1, 10**9)]
    cases = [
        (P((-1, 1)), Fraction(0), Fraction(2)),  # exact root at the first midpoint
        (P((-3, 4)), Fraction(0), Fraction(2)),  # exact root 3/4 after a few steps
        (P((-1, 0, 1)), Fraction(1, 3), Fraction(1)),  # root at hi, non-dyadic lo
        (P((-2, 0, 1)), Fraction(-1, 7), Fraction(5, 3)),  # non-dyadic ends
    ]
    for _ in range(200):
        q = random_one_sign_change(rng)
        cases.append((q, Fraction(0), cauchy_root_bound(q)))
    for sf, lo, hi in cases:
        for tol in tols:
            got = roots._sign_bisect(sf, lo, hi, tol)
            assert got == poly_reference.sign_bisect(sf, lo, hi, tol), (str(sf), lo, hi, tol)
            # refining a collapsed or non-dyadic enclosure bisects it again
            finer = tol / 1024
            assert roots._sign_bisect(sf, *got, finer) == poly_reference.sign_bisect(sf, *got, finer)
