"""Lazy pseudo-division, the one-pass Sturm chain and sparse Horner against
the frozen two-pass reference in ``poly_reference.py``."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poly_reference as ref
from stretchlab.families import enumerate_admissible
from stretchlab.poly import IntPolynomial, _pseudo_divide, divrem, poly_gcd, pseudo_rem
from stretchlab.roots import largest_real_root, sturm_chain
from stretchlab.sharpness import expected_char_poly

P = IntPolynomial

MAX_DEGREE = 14
coefficient = st.integers(-9, 9)
dense = st.lists(coefficient, max_size=MAX_DEGREE + 1)
sparse = st.dictionaries(
    st.integers(0, MAX_DEGREE), coefficient.filter(bool), max_size=5
).map(lambda terms: [terms.get(i, 0) for i in range(MAX_DEGREE + 1)])
polys = st.one_of(dense, sparse).map(P)
nonzero_polys = polys.filter(bool)
small = st.lists(coefficient, min_size=2, max_size=4).map(P).filter(lambda p: p.degree() >= 1)
# f^2 * g: repeated factors, which random polynomials almost never have
squareful = st.tuples(small, st.lists(coefficient, min_size=1, max_size=7).map(P)).map(
    lambda fg: fg[0] * fg[0] * fg[1]
).filter(bool)


def _poly_value(p: IntPolynomial, x: Fraction) -> Fraction:
    return sum((c * x**i for i, c in enumerate(p.coeffs)), Fraction(0))


@settings(max_examples=300, deadline=None)
@given(polys, nonzero_polys)
def test_divrem_matches_eager_reference(p, q):
    assert divrem(p, q) == ref.divrem(p, q)


@settings(max_examples=300, deadline=None)
@given(polys, nonzero_polys)
def test_lazy_pseudo_division_invariant(p, q):
    quot, rem, mult = _pseudo_divide(p, q)
    steps = max(p.degree() - q.degree() + 1, 0)
    assert any(mult == q.lead**j for j in range(steps + 1))
    assert P(rem).degree() < q.degree()
    assert p * mult == P(quot) * q + P(rem)


@settings(max_examples=300, deadline=None)
@given(polys, nonzero_polys)
def test_pseudo_rem_primitive_part_matches_reference(p, q):
    assert pseudo_rem(p, q).primitive_part() == ref.pseudo_rem(p, q).primitive_part()


# a shared factor h, which independent polynomials almost never have
sharing = st.tuples(small, nonzero_polys, nonzero_polys).map(lambda h: (h[0] * h[1], h[0] * h[2]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(polys, nonzero_polys), sharing))
@example((P((6,)), P((4, 2))))  # constants: gcd 1, as the content is dropped
@example((P((-1, -1, 1)) * P((1, 1)), -P((-1, -1, 1)) * P((2, -1))))
def test_poly_gcd_matches_reference(pq):
    p, q = pq
    assert poly_gcd(p, q) == poly_gcd(q, p) == ref.poly_gcd(p, q)


@settings(max_examples=300, deadline=None)
@given(st.one_of(nonzero_polys, squareful))
def test_sturm_chain_matches_two_pass_reference(p):
    assert sturm_chain(p).chain == ref.sturm_chain(p)


@settings(max_examples=300, deadline=None)
@given(polys, st.integers(-40, 40), st.integers(1, 64))
@example(P((0, 0, 3, 0, -1)), 0, 7)
@example(P((5,)), 0, 1)
@example(P((1, 0, 0, 0, 0, -2)), -3, 1)
@example(P((0, 0, 0, 4)), -5, 2)
def test_eval_scaled_is_the_scaled_rational_value(p, num, den):
    expected = den ** max(p.degree(), 0) * _poly_value(p, Fraction(num, den))
    assert p.eval_scaled(num, den) == expected
    assert p.eval_scaled(num, den) == ref.eval_scaled(p, num, den)


def _enclosure(p: IntPolynomial):
    e = largest_real_root(p)
    return e.lo, e.hi, e.polynomial


@pytest.mark.parametrize("k", range(2, 41))
def test_sharpness_enclosures_match_reference(k):
    chi = expected_char_poly(k)
    assert _enclosure(chi) == ref.largest_real_root(chi)


def test_family_16_enclosures_match_reference():
    reports = enumerate_admissible(16)
    assert reports
    for r in reports:
        assert (r.root.lo, r.root.hi, r.root.polynomial) == ref.largest_real_root(r.polynomial)
