"""Reciprocity predicates and the spectral classification of integer polynomials.

A polynomial is reciprocal when its roots are fixed (as a multiset) by
t -> 1/t and skew-reciprocal when fixed by t -> -1/t; both reduce to sign
conditions on the coefficient vector.  "Skew-reciprocal up to cyclotomic
factors" allows roots of unity to break the symmetry, equivalently the
polynomial splits as (product of cyclotomics) x (skew-reciprocal).  The
classifier strips the maximal cyclotomic divisor by exact trial division
and tests the cyclotomic-free core; the predicate alone first rejects, by
the parity condition, the polynomials that cannot split that way.  The
stripping attempts a division by Phi_m only when the integer Phi_m(2)
divides the value of the remaining core at 2.  That is necessary for Phi_m
to divide the core (Gauss's lemma), not sufficient, so it skips only
divisions that would fail: at n = 16 the families make 761 divisions where
plain trial division makes 8,700.

``qualify`` is the verdict the bound is about: whether a char poly qualifies
(skew up to cyclotomics, a real root lambda > 1) and on which side of
3 + 2*sqrt(2) its normalized value lambda^n lies.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from ._immutable import Immutable, set_field
from .errors import InputError
from .poly import (
    IntPolynomial,
    cyclotomic,
    cyclotomic_indices_up_to_degree,
    divrem,
    one,
)
from .roots import (
    DEFAULT_TOL,
    RootEnclosure,
    ValueInterval,
    compare_power_to_silver_squared,
    largest_root_above_one,
    unit_circle_root_count,
)


def is_reciprocal(p: IntPolynomial) -> int | None:
    """The sign eps with p(t) = eps * t^deg * p(1/t), or None."""
    if p.is_zero():
        raise ValueError("classification of the zero polynomial")
    c = p.coeffs
    d = p.degree()
    for eps in (1, -1):
        if all(c[j] == eps * c[d - j] for j in range(d + 1)):
            return eps
    return None


def is_skew_reciprocal(p: IntPolynomial) -> int | None:
    """The sign eps with p(t) = eps * t^deg * p(-1/t), or None.

    Odd degree can never satisfy the involution (roots would pair up), so it
    always returns None; a root at 0 is outside the involution's domain and
    must be stripped by the caller first.
    """
    if p.is_zero():
        raise ValueError("classification of the zero polynomial")
    if p.constant_term() == 0:
        raise ValueError("skew-reciprocity needs a nonzero constant term")
    d = p.degree()
    if d % 2:
        return None
    c = p.coeffs
    for eps in (1, -1):
        if all(c[j] == eps * (-1) ** (j % 2) * c[d - j] for j in range(d + 1)):
            return eps
    return None


#: Largest degree ``strip_cyclotomic`` accepts: its divisor list sieves phi up
#: to 2 deg^2 and holds every Phi_m with phi(m) <= deg, so time grows about
#: as deg^3 (degree 400 takes ~3 s).
STRIP_DEGREE_CAP = 400


@functools.cache
def _cyclotomic_divisors(deg: int) -> tuple[tuple[IntPolynomial, int], ...]:
    """(Phi_m, Phi_m(2)) for every m with phi(m) <= deg."""
    phis = map(cyclotomic, cyclotomic_indices_up_to_degree(deg))
    return tuple((phi, phi.evaluate(2)) for phi in phis)


def strip_cyclotomic(p: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """(maximal cyclotomic divisor with multiplicity, cyclotomic-free core).

    Exact division by Phi_m for every m with phi(m) <= deg(p) (search bound
    m <= 2 deg^2, since phi(m) >= sqrt(m/2)), repeating each Phi_m until it
    stops dividing.  A division is attempted only when Phi_m(2) divides
    core(2).  Phi_m is monic, so by Gauss's lemma core = Phi_m * q forces q
    into Z[t] and core(2) = Phi_m(2) * q(2): the test is necessary but not
    sufficient, and only skips divisions that would fail.  Every factor
    removed is still certified by an exact division.  When p(2) = 0 every
    test passes, as does Phi_1(2) = 1, so nothing is lost.
    """
    if p.is_zero():
        raise ValueError("cannot strip the zero polynomial")
    if p.constant_term() == 0:
        raise ValueError("strip_cyclotomic needs a nonzero constant term")
    if p.degree() > STRIP_DEGREE_CAP:
        raise InputError(f"degree {p.degree()} exceeds the cyclotomic strip cap {STRIP_DEGREE_CAP}")
    core = p
    cyclo = one()
    value = p.evaluate(2)
    for phi_m, phi_m_at_2 in _cyclotomic_divisors(p.degree()):
        while core.degree() >= phi_m.degree() and value % phi_m_at_2 == 0:
            quot, rem, _, exact = divrem(core, phi_m)
            if not exact or not rem.is_zero():
                break
            core = quot
            cyclo = cyclo * phi_m
            value //= phi_m_at_2
        if core.degree() == 0:
            break
    return cyclo, core


def is_skew_reciprocal_up_to_cyclotomic(p: IntPolynomial) -> bool:
    """Whether p = (product of cyclotomics) x (skew-reciprocal polynomial).

    A root at 0 classifies as False.  A purely cyclotomic p counts as True
    (the skew factor is the constant), flagged degenerate by classify().

    The parity condition is necessary, so a polynomial failing it is
    rejected before any trial division.  Write p = C * S with C a product
    of cyclotomics and S skew-reciprocal, and f* = t^deg f(1/t) for the
    reversal.  Then p* = C* S*, where C* = +-C (each Phi_m is palindromic
    up to sign) and S* = +-S(-t).  Modulo 2 both signs and t -> -t vanish,
    so p* = p coefficientwise mod 2, which is parity_condition(p).
    """
    if p.is_zero():
        raise ValueError("classification of the zero polynomial")
    if p.constant_term() == 0:
        return False
    # p skew-reciprocal implies its cyclotomic-free core is too: the
    # involution t -> -1/t permutes roots of unity among themselves.
    if is_skew_reciprocal(p) is not None:
        return True
    if not parity_condition(p):
        return False
    return _skew_core(strip_cyclotomic(p)[1])


def _skew_core(core: IntPolynomial) -> bool:
    """Whether a cyclotomic-free core is constant or skew-reciprocal."""
    return core.degree() == 0 or is_skew_reciprocal(core) is not None


class Qualification(NamedTuple):
    """lambda > 1, lambda^n and the side (-1, 0, +1) of 3 + 2*sqrt(2) it lies on."""

    root: RootEnclosure
    normalized: ValueInterval
    side: int


def qualify(
    chi: IntPolynomial, n: int, tol: Fraction = DEFAULT_TOL, skew: bool | None = None
) -> Qualification | None:
    """The verdict on chi normalized by n, or None unless chi is skew up to
    cyclotomics with a real root above 1; the side is exact at any ``tol``.

    A caller that already holds ``is_skew_reciprocal_up_to_cyclotomic(chi)``
    passes it as ``skew``.
    """
    if not (is_skew_reciprocal_up_to_cyclotomic(chi) if skew is None else skew):
        return None
    root = largest_root_above_one(chi, tol)
    if root is None:
        return None
    return Qualification(root, root.powered(n), compare_power_to_silver_squared(root, n))


def parity_condition(p: IntPolynomial) -> bool:
    """c_d + c_{k-d} even for all d; necessary for reciprocal x skew products."""
    if p.is_zero():
        raise ValueError("classification of the zero polynomial")
    c = p.coeffs
    k = p.degree()
    return all((c[d] + c[k - d]) % 2 == 0 for d in range(k + 1))


class SpectralClass(Immutable):
    """Full classification record of one integer polynomial.

    ``degenerate`` marks a purely cyclotomic polynomial: spectral radius 1,
    never a stretch factor.  The constructor asserts that the cyclotomic
    part times the core is the polynomial.
    """

    __slots__ = (
        "polynomial",
        "reciprocal",
        "skew_reciprocal",
        "cyclotomic_part",
        "core",
        "skew_up_to_cyclotomic",
        "parity_ok",
        "degenerate",
    )

    def __init__(
        self,
        polynomial: IntPolynomial,
        reciprocal: int | None,
        skew_reciprocal: int | None,
        cyclotomic_part: IntPolynomial,
        core: IntPolynomial,
        skew_up_to_cyclotomic: bool,
        parity_ok: bool,
        degenerate: bool,
    ):
        assert cyclotomic_part * core == polynomial
        set_field(self, "polynomial", polynomial)
        set_field(self, "reciprocal", reciprocal)
        set_field(self, "skew_reciprocal", skew_reciprocal)
        set_field(self, "cyclotomic_part", cyclotomic_part)
        set_field(self, "core", core)
        set_field(self, "skew_up_to_cyclotomic", skew_up_to_cyclotomic)
        set_field(self, "parity_ok", parity_ok)
        set_field(self, "degenerate", degenerate)


def classify(p: IntPolynomial) -> SpectralClass:
    """Classify p; exact in every field.

    For p(0) = 0 the power of t joins the core (0 is not a root of unity)
    and every involution-based predicate reports absent/False.
    """
    if p.is_zero():
        raise ValueError("classification of the zero polynomial")
    order = next(i for i, c in enumerate(p.coeffs) if c)
    cyclo, core = strip_cyclotomic(IntPolynomial(p.coeffs[order:]) if order else p)
    # a skew p has a skew core (see the predicate), so the core decides
    return SpectralClass(
        polynomial=p,
        reciprocal=is_reciprocal(p),
        skew_reciprocal=None if order else is_skew_reciprocal(p),
        cyclotomic_part=cyclo,
        core=core.shift(order),
        skew_up_to_cyclotomic=not order and _skew_core(core),
        parity_ok=parity_condition(p),
        degenerate=not order and core.degree() == 0,
    )


def _is_perfect_square(x: int) -> bool:
    if x < 0:
        return False
    r = math.isqrt(x)
    return r * r == x


def sqrt_min_poly(p: int, q: int) -> tuple[IntPolynomial, bool]:
    """Minimal-polynomial candidate x^4 - p x^2 + q for sqrt of the larger
    root of t^2 - p t + q, plus its irreducibility over Q.

    Requires that larger root alpha to be real and > 1.  Irreducibility is
    decided by the rational-root test plus all monic integer splits into two
    quadratics (the only factorization shapes a monic quartic admits).
    """
    disc = p * p - 4 * q
    if disc < 0:
        raise ValueError(f"t^2 - {p}t + {q} has no real roots")
    # alpha = (p + sqrt(disc))/2 > 1  iff  sqrt(disc) > 2 - p
    if 2 - p >= 0 and disc <= (2 - p) ** 2:
        raise ValueError(f"largest root of t^2 - {p}t + {q} is not > 1")
    quartic = IntPolynomial((q, 0, -p, 0, 1))
    if q == 0:
        return quartic, False
    reducible = False
    for r in range(1, abs(q) + 1):
        if q % r == 0 and (quartic.evaluate(r) == 0 or quartic.evaluate(-r) == 0):
            reducible = True
            break
    if not reducible:
        # (x^2 + b)(x^2 + d): b + d = -p, bd = q
        if _is_perfect_square(disc):
            s = math.isqrt(disc)
            if (-p + s) % 2 == 0:
                reducible = True
    if not reducible and _is_perfect_square(abs(q)):
        # (x^2 + ax + b)(x^2 - ax + b): b^2 = q, a^2 = 2b + p
        root = math.isqrt(abs(q))
        if root * root == q:
            for b in (root, -root):
                if _is_perfect_square(2 * b + p):
                    reducible = True
                    break
    return quartic, not reducible


def is_salem_like(p: IntPolynomial) -> bool:
    """Reciprocal with all roots except lambda^{+-1} on the unit circle (exact)."""
    if p.is_zero():
        raise ValueError("classification of the zero polynomial")
    m = p.degree()
    if m < 4:
        return False
    if is_reciprocal(p) is None:
        return False
    return unit_circle_root_count(p) == m - 2
