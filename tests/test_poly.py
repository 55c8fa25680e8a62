"""Exact polynomial arithmetic, division, gcd and cyclotomics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotomic_reference import moebius_cyclotomic
from matrix_reference import matmul
from stretchlab.poly import (
    InexactDivisionError,
    IntPolynomial,
    _phi_sieve,
    cyclotomic,
    cyclotomic_indices_up_to_degree,
    divrem,
    exact_div,
    from_power_sums,
    int_from_json,
    one,
    poly_from_json,
    poly_gcd,
    poly_to_json,
    power_sums,
    pseudo_rem,
)
from stretchlab.matrices import companion
from stretchlab.roots import sturm_chain

P = IntPolynomial


def test_trimming_and_degree():
    assert P((1, 2, 0, 0)).coeffs == (1, 2)
    assert P(()).degree() == -1
    assert P((0,)).is_zero()
    assert P((5,)).degree() == 0


def test_mul_worked_example():
    # (t^2 - t - 1)(t^2 + t + 1) = t^4 - t^2 - 2t - 1
    assert P((-1, -1, 1)) * P((1, 1, 1)) == P((-1, -2, -1, 0, 1))


def test_mul_identity():
    p = P((3, 0, -2, 7))
    assert p * one() == p


def test_divrem_example():
    quot, rem, den, exact = divrem(P((-1, -1, 0, -1, 1)), P((1, 0, 1)))
    assert exact and den == 1
    assert quot == P((-1, -1, 1))
    assert rem.is_zero()
    # cross-check by exact multiplication
    assert P((1, 0, 1)) * quot == P((-1, -1, 0, -1, 1))


def test_divrem_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        divrem(P((1, 1)), P(()))


def test_divrem_rational_case():
    # (2t + 1) / (3t) = 2/3 with remainder 1: denominator tracks exactness
    quot, rem, den, exact = divrem(P((1, 2)), P((0, 3)))
    assert not exact
    assert den == 3
    # den * p == quot * q + rem
    assert P((1, 2)) * den == quot * P((0, 3)) + rem


coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=13)


@settings(max_examples=150, deadline=None)
@given(coeff_lists, coeff_lists)
def test_divrem_roundtrip(pc, qc):
    p, q = P(pc), P(qc)
    if q.is_zero():
        return
    quot, rem, den, exact = divrem(p * q, q)
    assert exact and den == 1
    assert quot == p
    assert rem.is_zero()


@settings(max_examples=150, deadline=None)
@given(coeff_lists, coeff_lists)
def test_pseudo_rem_is_positive_multiple_of_remainder(pc, qc):
    p, q = P(pc), P(qc)
    if q.is_zero():
        return
    prem = pseudo_rem(p, q)
    rem = divrem(p, q).remainder
    assert prem.degree() < q.degree()
    if rem.is_zero():
        assert prem.is_zero()
        return
    factor = prem.lead // rem.lead
    assert factor > 0
    assert prem == rem * factor


def test_exact_div_raises_with_remainder():
    with pytest.raises(InexactDivisionError) as err:
        exact_div(P((1, 1, 1)), P((1, 1)))
    assert err.value.remainder is not None


def _random_monic(rng: random.Random, degree: int) -> IntPolynomial:
    return P([rng.randint(-5, 5) for _ in range(degree)] + [1])


def test_power_sums_are_the_traces_of_companion_powers():
    # the roots of p are the eigenvalues of its companion matrix C, so
    # s_j = tr(C^j), exactly; 2 deg p reaches past the identities' first regime
    rng = random.Random(24)
    for _ in range(60):
        p = _random_monic(rng, rng.randint(1, 7))
        c = companion(p).rows
        traces, power = [], c
        for _ in range(2 * len(c)):
            traces.append(sum(power[i][i] for i in range(len(c))))
            power = matmul(power, c)
        assert power_sums(p, 2 * p.degree()) == traces, p


def test_from_power_sums_inverts_power_sums():
    rng = random.Random(25)
    for _ in range(200):
        p = _random_monic(rng, rng.randint(0, 10))
        assert from_power_sums(power_sums(p, p.degree())) == p
    assert power_sums(P((-2, 1)), 4) == [2, 4, 8, 16]  # the root 2
    assert power_sums(P((1, 0, 1)), 4) == [0, -2, 0, 2]  # the roots +-i


def test_power_sum_bridge_edge_cases():
    assert from_power_sums([]) == one()
    assert power_sums(one(), 3) == [0, 0, 0]
    for bad in (P((1, 2)), P(()), P((1, 1, -1))):
        with pytest.raises(ValueError):
            power_sums(bad, 2)
    # s_1 = 1, s_2 = 0 needs a_2 = (1 - 0) / 2: not an integer
    for sums in ([1, 0], [0, 0, 1], [3, 2]):
        with pytest.raises(InexactDivisionError):
            from_power_sums(sums)


def test_cyclotomic_small():
    assert cyclotomic(1) == P((-1, 1))
    assert cyclotomic(2) == P((1, 1))
    assert cyclotomic(6) == P((1, -1, 1))
    assert cyclotomic(12) == P((1, 0, -1, 0, 1))
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_cyclotomic_matches_the_moebius_reference():
    # the library divides t^m - 1 by the Phi_d of the proper divisors of m;
    # the reference is the Moebius product over t^d - 1
    for m in range(1, 301):
        assert cyclotomic(m) == moebius_cyclotomic(m), m


def test_cyclotomic_degree_and_monic():
    for m in range(1, 40):
        phi = cyclotomic(m)
        assert phi.is_monic()
        assert phi.degree() == _phi_sieve(40)[m]


def test_cyclotomic_index_bound():
    indices = cyclotomic_indices_up_to_degree(4)
    assert set(indices) == {m for m in range(1, 33) if _phi_sieve(32)[m] <= 4}


def test_poly_gcd_and_square_free():
    p = P((-1, -1, 1))
    q = P((1, 1, 1))
    assert poly_gcd(p * q, p) == p
    assert poly_gcd(p, q) == one()
    assert sturm_chain(p * p * q).chain[0] == p * q


def test_eval_scaled_sign_matches_fraction_eval():
    from fractions import Fraction

    rng = random.Random(5)
    for _ in range(100):
        p = P([rng.randint(-9, 9) for _ in range(rng.randint(1, 9))])
        if p.is_zero():
            continue
        num, den = rng.randint(-20, 20), rng.randint(1, 16)
        exact = p.evaluate(Fraction(num, den))
        scaled = p.eval_scaled(num, den)
        assert (exact > 0) == (scaled > 0) and (exact < 0) == (scaled < 0)


def test_json_roundtrip():
    p = P((-1, -2, -1, 0, 1))
    assert poly_from_json(poly_to_json(p)) == p
    with pytest.raises(ValueError):
        poly_from_json({"nope": []})


def test_wire_integers_are_json_ints_or_decimal_strings():
    assert int_from_json(-7) == -7
    assert int_from_json("-12") == -12
    assert poly_from_json({"coeffs": [-1, "-1", 1]}) == P((-1, -1, 1))
    # a float or a bool is not truncated to an int
    for bad in (1.5, 2.0, True, False, None, [1], "1.5"):
        with pytest.raises(ValueError):
            int_from_json(bad)
    with pytest.raises(ValueError):
        poly_from_json({"coeffs": [1.5, 1]})
    with pytest.raises(ValueError):
        poly_from_json({"coeffs": [True, 1]})


def test_str_rendering():
    assert str(P((-1, -2, -1, 0, 1))) == "t^4 - t^2 - 2*t - 1"
    assert str(P(())) == "0"
    assert str(P((1,))) == "1"
