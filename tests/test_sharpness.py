"""The asymptotic-sharpness family P + N."""

import math

import pytest
import sympy

from stretchlab.classify import is_skew_reciprocal_up_to_cyclotomic, parity_condition
from stretchlab.errors import InputError
from stretchlab.families import FamilyForm, instantiate
from stretchlab.matrices import char_poly, determinant, is_primitive
from stretchlab.poly import IntPolynomial
from stretchlab.roots import compare_enclosures, largest_real_root
from stretchlab.sharpness import (
    build_example,
    build_matrix,
    convergence_table,
    SHARPNESS_CAP,
    expected_char_poly,
    silver_parameters,
)

P = IntPolynomial

SILVER_SQ = 5.828427124746190
MU4 = 6.854101966249685


def test_silver_parameters():
    assert silver_parameters(2) == (3, 3)
    assert silver_parameters(3) == (5, 5)
    assert silver_parameters(5) == (7, 3)  # 7 * 3 = 21 = 1 mod 10
    for k in range(2, 41):
        p, q = silver_parameters(k)
        assert math.gcd(p, 2 * k) == 1
        assert 0 < q < 2 * k and (p * q) % (2 * k) == 1
    with pytest.raises(ValueError):
        silver_parameters(1)


def test_build_matrix_k2():
    m = build_matrix(2)
    assert m.rows == ((1, 0, 1, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))
    assert char_poly(m) == P((-1, -1, 0, -1, 1))
    # factorization witness (t^2+1)(t^2-t-1), by exact multiplication
    assert P((1, 0, 1)) * P((-1, -1, 1)) == P((-1, -1, 0, -1, 1))


def test_char_poly_shapes():
    assert expected_char_poly(3) == P((-1, -1, 0, 0, 0, -1, 1))
    assert expected_char_poly(5) == P((-1, 0, 0, -1, 0, 0, 0, -1, 0, 0, 1))


def test_build_example_small_values():
    ex2 = build_example(2)
    assert abs(float(ex2.normalized) - MU4) < 1e-9
    ex3 = build_example(3)
    assert abs(float(ex3.normalized) - 8.186) < 5e-3
    assert ex3.char_poly == P((-1, -1, 0, 0, 0, -1, 1))


def test_family_invariants_through_k12():
    for k in range(2, 13):
        ex = build_example(k)
        assert ex.char_poly == expected_char_poly(k)
        assert is_primitive(ex.matrix).primitive
        assert determinant(ex.matrix) in (1, -1)
        assert is_skew_reciprocal_up_to_cyclotomic(ex.char_poly)
        assert parity_condition(ex.char_poly)
        assert float(ex.normalized) > SILVER_SQ


def test_char_poly_is_a_3a1_family_polynomial():
    # t^2k - t^p - t^(2k-p) - 1 is the 3A1 curve graph with weights p, 2k - p
    for k in range(2, 61):
        p, _ = silver_parameters(k)
        form = FamilyForm("3A1", tuple(sorted((p, 2 * k - p))))
        assert expected_char_poly(k) == instantiate(form, 2 * k)


def test_same_parity_decrease():
    rows = {r.k: r for r in convergence_table(40)}
    for k in range(6, 41, 2):
        assert rows[k].normalized.hi < rows[k - 2].normalized.lo
    for k in range(7, 41, 2):
        assert rows[k].normalized.hi < rows[k - 2].normalized.lo


def test_normalized_equation_is_the_char_poly():
    # P - (s + 1/s) sqrt(P) - 1 with P = lam^(2k) and s = P^(1/2k) (k even)
    # or P^(1/k) (k odd), expanded in lam, is exactly the k-th char poly
    lam = sympy.Symbol("lam", positive=True)
    for k in range(2, 41):
        value = lam ** (2 * k)
        s = value ** sympy.Rational(1, 2 * k if k % 2 == 0 else k)
        equation = sympy.expand(value - (s + 1 / s) * sympy.sqrt(value) - 1)
        coeffs = sympy.Poly(equation, lam).all_coeffs()
        assert P([int(c) for c in reversed(coeffs)]) == expected_char_poly(k), k


def conjectured_minimum(k):
    """The normalized largest root of the conjectured minimizer, without the matrix."""
    return largest_real_root(expected_char_poly(k)).powered(2 * k)


def test_conjectured_minimum_equals_family_value():
    for k in (2, 3, 4):
        ex = build_example(k)
        conj = conjectured_minimum(k)
        assert ex.char_poly == expected_char_poly(k)
        # the same polynomial at the same tol: the same enclosure, exactly
        assert (conj.lo, conj.hi) == (ex.normalized.lo, ex.normalized.hi)
    assert abs(float(conjectured_minimum(2)) - MU4) < 1e-9
    assert abs(float(conjectured_minimum(3)) - 8.186) < 5e-3


def test_verify_conjecture_values_rows():
    rows = [(k, build_example(k).normalized) for k in range(2, 7)]
    for k, normalized in rows:
        conj = conjectured_minimum(k)
        assert (conj.lo, conj.hi) == (normalized.lo, normalized.hi)
    assert abs(float(rows[0][1]) - MU4) < 1e-9


def test_roots_distinct_across_k():
    r4 = build_example(4).root
    r6 = build_example(6).root
    assert compare_enclosures(r6, r4) == -1  # lambda_6 < lambda_4


def test_k_below_two_rejected():
    with pytest.raises(ValueError):
        build_example(1)
    with pytest.raises(ValueError):
        convergence_table(1)


def test_k_above_the_cap_rejected_before_any_matrix():
    assert silver_parameters(SHARPNESS_CAP)[0] == SHARPNESS_CAP + 1
    with pytest.raises(InputError, match="exceeds the sharpness cap"):
        build_matrix(SHARPNESS_CAP + 1)
    with pytest.raises(InputError, match="exceeds the sharpness cap"):
        convergence_table(10**8)
