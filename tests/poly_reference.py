"""Frozen two-pass reference for ``stretchlab.poly`` division and ``stretchlab.roots``.

It keeps the eager pseudo-division, which multiplies the whole remainder
and quotient by lead(q) at every step (zero coefficients included), and
the two-pass Sturm chain: the square-free part p / gcd(p, p') first, then
a second remainder sequence on it.  Evaluation is dense Horner over every
coefficient.  ``largest_real_root`` repeats the library's Sturm isolation
on top of these, and ``sign_bisect`` bisects on ``Fraction`` midpoints, so
the library's lazy division, one-pass chain, sparse evaluation,
one-sign-change route and integer-dyadic bisection must give the same
results, enclosures included.

``compare_power_to_silver_squared`` is the interval comparator of the bound:
powers of the enclosure against an enclosure of 3 + 2*sqrt(2).  The
library's sign test must give the same side.  ``largest_root_above_one``
counts roots on (1, CauchyBound] before it isolates; the library reads the
same answer off the one enclosure.
"""

from __future__ import annotations

import math
from fractions import Fraction

from stretchlab.poly import DivisionResult, IntPolynomial
from stretchlab.roots import (
    DEFAULT_TOL,
    RootEnclosure,
    cauchy_root_bound,
    real_roots_in_interval,
)
from stretchlab.roots import largest_real_root as lib_largest_real_root


def eager_pseudo_divide(p: IntPolynomial, q: IntPolynomial) -> tuple[list[int], list[int], int]:
    """``lead(q)^steps * p == quot * q + rem`` with steps = max(deg p - deg q + 1, 0)."""
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    lq = q.lead
    dq = q.degree()
    steps = max(p.degree() - dq + 1, 0)
    rem = list(p.coeffs)
    quot = [0] * steps
    for k in range(p.degree(), dq - 1, -1):
        coef = rem[k]
        if lq != 1:
            for i in range(len(rem)):
                rem[i] *= lq
            for i in range(steps):
                quot[i] *= lq
        quot[k - dq] += coef
        if coef:
            for j in range(dq + 1):
                rem[k - dq + j] -= coef * q.coeffs[j]
    return quot, rem, lq**steps


def divrem(p: IntPolynomial, q: IntPolynomial) -> DivisionResult:
    quot, rem, den = eager_pseudo_divide(p, q)
    if den < 0:
        den = -den
        quot = [-c for c in quot]
        rem = [-c for c in rem]
    g = math.gcd(den, *quot, *rem)
    if g > 1:
        den //= g
        quot = [c // g for c in quot]
        rem = [c // g for c in rem]
    return DivisionResult(IntPolynomial(quot), IntPolynomial(rem), den, den == 1)


def pseudo_rem(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """|lead(q)|^steps * (p mod q)."""
    _, rem, den = eager_pseudo_divide(p, q)
    return IntPolynomial(rem) if den > 0 else -IntPolynomial(rem)


def _primitive_positive(p: IntPolynomial) -> IntPolynomial:
    return (p if p.lead > 0 else -p).primitive_part()


def poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    a, b = p.primitive_part(), q.primitive_part()
    if a.degree() < b.degree():
        a, b = b, a
    while not b.is_zero():
        a, b = b, pseudo_rem(a, b).primitive_part()
    return _primitive_positive(a)


def square_free_part(p: IntPolynomial) -> IntPolynomial:
    if p.degree() == 0:
        return IntPolynomial((1,))
    res = divrem(_primitive_positive(p), poly_gcd(p, p.derivative()))
    assert res.exact and res.remainder.is_zero()
    return _primitive_positive(res.quotient)


def sturm_chain(p: IntPolynomial) -> tuple[IntPolynomial, ...]:
    """Square-free part first, then the signed primitive remainder sequence of it."""
    f = square_free_part(p)
    if f.degree() < 1:
        return (f,)
    chain = [f, f.derivative().primitive_part()]
    while chain[-1].degree() > 0:
        rem = pseudo_rem(chain[-2], chain[-1])
        if rem.is_zero():
            break
        chain.append((-rem).primitive_part())
    return tuple(chain)


def eval_scaled(p: IntPolynomial, num: int, den: int) -> int:
    """den^deg * p(num/den) by Horner over every coefficient."""
    if p.is_zero():
        return 0
    acc = p.coeffs[-1]
    denpow = 1
    for c in reversed(p.coeffs[:-1]):
        denpow *= den
        acc = acc * num + c * denpow
    return acc


def _sign(p: IntPolynomial, x: Fraction) -> int:
    v = eval_scaled(p, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def _variations(chain, x: Fraction) -> int:
    signs = [s for s in (_sign(f, x) for f in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def largest_real_root(p: IntPolynomial, tol: Fraction = DEFAULT_TOL):
    """``(lo, hi, certificate)`` of the largest real root, by the library's steps."""
    chain = sturm_chain(p)
    sf = chain[0]
    a, b = Fraction(0), cauchy_root_bound(sf)
    v_top = _variations(chain, b)
    if _variations(chain, a) == v_top:
        raise ArithmeticError("no real root in (0, bound]")
    while not (_variations(chain, a) - v_top == 1 and _sign(sf, a) != 0):
        m = (a + b) / 2
        if _variations(chain, m) - v_top >= 1:
            a = m
        else:
            b = m
    return (*sign_bisect(sf, a, b, tol), sf)


def sign_bisect(sf: IntPolynomial, lo: Fraction, hi: Fraction, tol: Fraction):
    """``(lo, hi)`` of width <= tol by sign bisection on ``Fraction`` midpoints;
    an exact dyadic root m collapses to [m - tol/4, m + tol/4] cut to (lo, hi)."""
    s_lo, s_hi = _sign(sf, lo), _sign(sf, hi)
    if s_hi == 0:
        return max(lo, hi - tol / 4), hi + tol / 4
    assert s_lo and s_lo != s_hi
    while hi - lo > tol:
        m = (lo + hi) / 2
        sm = _sign(sf, m)
        if sm == 0:
            return max(lo, m - tol / 4), min(hi, m + tol / 4)
        if sm == s_lo:
            lo = m
        else:
            hi = m
    return lo, hi


def largest_root_above_one(p: IntPolynomial, tol: Fraction = DEFAULT_TOL):
    """The library's ``largest_real_root(p, tol)`` when a Sturm count finds a
    root in (1, CauchyBound], else None: count first, then isolate.  A bound
    of 1 leaves no such interval: every root of c t^k is 0."""
    bound = cauchy_root_bound(p)
    if bound == 1 or real_roots_in_interval(p, 1, bound) == 0:
        return None
    return lib_largest_real_root(p, tol)


def compare_power_to_silver_squared(base: RootEnclosure, exponent: int) -> int:
    """-1, 0, +1 for base^exponent against 3 + 2*sqrt(2), by interval arithmetic.

    The interval route the library's sign test replaced: the outward-rounded
    power of ``base`` against an enclosure of the threshold, both refined
    until they separate.  A value on the threshold or its reciprocal is a
    root of t^(2e) - 6t^e + 1, which the gcd with the certificate detects
    while the first enclosures overlap; the position against 1 then tells
    3 + 2*sqrt(2) from 3 - 2*sqrt(2).
    """
    threshold = lib_largest_real_root(IntPolynomial((1, -6, 1)))  # 3 +- 2*sqrt(2)
    b = base
    for round_ in range(13):  # the first test and 12 refinements
        powered = b.powered(exponent)
        if powered.hi < threshold.lo:
            return -1
        if powered.lo > threshold.hi:
            return 1
        if round_ == 0:
            comp = [0] * (2 * exponent + 1)
            comp[0], comp[exponent], comp[2 * exponent] = 1, -6, 1
            g = poly_gcd(base.polynomial, IntPolynomial(comp))
            if g.degree() >= 1 and real_roots_in_interval(g, base.lo, base.hi) >= 1:
                while not (b.lo > 1 or b.hi < 1):
                    b = b.refined(b.width / 4)
                return 0 if b.lo > 1 else -1
        b = b.refined(b.width / 256)
        threshold = threshold.refined(threshold.width / 256)
    raise ArithmeticError("cannot separate the normalized value from the bound")
