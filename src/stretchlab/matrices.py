"""Exact integer matrices: characteristic polynomials, primitivity, GL_n(Z).

The characteristic polynomial is division-free (Hessenberg recurrence when
the shape allows, Samuelson bordering over the leading principal
submatrices otherwise) and the determinant is fraction-free Bareiss, so no
rational rounding can occur.  The spectral radius of a matrix with a
negative entry is gated exactly too, through the polynomial of pairwise
eigenvalue products built from chi's power sums, so nothing here touches
floating point.  Primitivity is the graph criterion: nonnegative, strongly
connected, cycle-length gcd one.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import _kernels
from ._immutable import Immutable, set_field
from .errors import CheckFailed, InputError
from .poly import IntPolynomial, from_power_sums, int_from_json, power_sums
from .roots import (
    DEFAULT_TOL,
    NoRealRootError,
    RootEnclosure,
    ValueInterval,
    cauchy_root_bound,
    largest_real_root,
    real_roots_in_interval,
)

SIGNED_GATE_CAP = 12  # the signed gate's polynomial has degree n(n+1)/2


class PerronPreconditionError(CheckFailed):
    """Spectral radius is not realized by a real eigenvalue."""


class IntMatrix(Immutable):
    """Immutable square matrix of arbitrary-precision integers.

    Entries go through ``operator.index``, as polynomial coefficients do:
    bools and numpy integers become ints, and a float raises TypeError.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        data = tuple(tuple(map(operator.index, row)) for row in rows)
        if not data or any(len(row) != len(data) for row in data):
            raise ValueError("matrix must be square and nonempty")
        set_field(self, "rows", data)

    def __eq__(self, other):
        if other.__class__ is not IntMatrix:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows!r})"

    @property
    def n(self) -> int:
        return len(self.rows)

    def is_nonnegative(self) -> bool:
        return min(map(min, self.rows)) >= 0


def matrix_to_json(a: IntMatrix) -> dict:
    """Entries as decimal strings; ``str`` runs once per distinct entry."""
    text = {e: str(e) for e in set().union(*a.rows)}
    return {"rows": [list(map(text.__getitem__, row)) for row in a.rows]}


def matrix_from_json(data: dict) -> IntMatrix:
    rows = data.get("rows") if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("matrix JSON must be an object with a 'rows' list of lists")
    return IntMatrix(map(int_from_json, row) for row in rows)


def char_poly(a: IntMatrix) -> IntPolynomial:
    """det(tI - A), monic, exact."""
    return IntPolynomial(_kernels.charpoly(a.rows))


def determinant(a: IntMatrix) -> int:
    """Exact determinant, fraction-free."""
    return _kernels.determinant(a.rows)


def in_glnz(a: IntMatrix) -> bool:
    return determinant(a) in (1, -1)


class PrimitivityReport(NamedTuple):
    nonnegative: bool
    strongly_connected: bool
    period: int  # gcd of directed cycle lengths, 0 if acyclic
    primitive: bool


def is_primitive(a: IntMatrix) -> PrimitivityReport:
    """Graph-theoretic primitivity; negative entries never error, only fail."""
    nonneg = a.is_nonnegative()
    strongly_connected, period = _kernels.digraph_structure(a.rows)
    return PrimitivityReport(
        nonnegative=nonneg,
        strongly_connected=strongly_connected,
        period=period,
        primitive=nonneg and strongly_connected and period == 1,
    )


def companion(p: IntPolynomial) -> IntMatrix:
    """Companion matrix with the coefficients in the last row."""
    if not p.is_monic():
        raise ValueError("companion matrix needs a monic polynomial")
    n = p.degree()
    if n < 1:
        raise ValueError("companion matrix needs degree >= 1")
    rows = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)]
    rows.append([-p.coeffs[j] for j in range(n)])
    return IntMatrix(rows)


def verify_block_structure(m: IntMatrix, split: int) -> bool:
    """True iff m = [[P, *], [0, F]] with P a split x split permutation matrix."""
    n = m.n
    if not 0 < split < n:
        raise ValueError("split must be strictly inside the dimension")
    for i in range(split, n):
        if any(m.rows[i][j] != 0 for j in range(split)):
            return False
    for i in range(split):
        if sorted(m.rows[i][:split]) != [0] * (split - 1) + [1]:
            return False
    for j in range(split):
        if sum(m.rows[i][j] for i in range(split)) != 1:
            return False
    return True


def spectral_radius(
    a: IntMatrix, tol: Fraction = DEFAULT_TOL, chi: IntPolynomial | None = None
) -> RootEnclosure:
    """Enclosure of rho(A) as the largest real root of the char polynomial.

    For nonnegative A this is Perron-Frobenius: rho(A) is itself an
    eigenvalue, so it is the largest real root of chi.  For a matrix with a
    negative entry the claim is checked exactly, and the call errors when it
    fails.  Every |a|^2 = a * conj(a) is a root of chi(Sym^2 A), whose roots
    are the pairwise products a_i a_j (i <= j), so its power sums are
    (s_k^2 + s_2k)/2 in the power sums s_k of chi and Newton's identities
    build it from chi.  rho(A)^2 is its largest real root, and the square of
    the largest real root lambda of chi is a root too: the enclosure of
    lambda is refined until its square isolates lambda^2, and a Sturm count
    above it decides; a count of 0 there is a bug and raises AssertionError.
    A signed A above ``SIGNED_GATE_CAP`` raises InputError first.  A caller
    that holds ``chi = char_poly(a)`` passes it.
    """
    signed = not a.is_nonnegative()
    if signed and a.n > SIGNED_GATE_CAP:
        raise InputError(f"n = {a.n} exceeds the signed-matrix gate cap {SIGNED_GATE_CAP}")
    if chi is None:
        chi = char_poly(a)
    try:
        enclosure = largest_real_root(chi, tol)
    except NoRealRootError as exc:
        raise PerronPreconditionError(
            "no positive real eigenvalue; spectral radius is not a real root"
        ) from exc
    if signed:
        s = power_sums(chi, a.n * (a.n + 1))  # s_1..s_2N, N = n(n+1)/2
        square = from_power_sums([(s[k] ** 2 + s[2 * k + 1]) // 2 for k in range(len(s) // 2)])
        e = enclosure  # lambda lies in (lo, hi] with lo >= 0, so lambda^2 in (lo^2, hi^2]
        while (count := real_roots_in_interval(square, e.lo**2, e.hi**2)) != 1:
            if count == 0:
                raise AssertionError("the gate polynomial lacks lambda^2 as a root; this is a bug")
            e = e.refined(e.width / 256)
        top = cauchy_root_bound(square)
        if e.hi**2 < top and real_roots_in_interval(square, e.hi**2, top) > 0:
            raise PerronPreconditionError(
                "a complex eigenvalue exceeds the largest real root"
            )
    return enclosure


def normalized_spectral_radius(
    a: IntMatrix, tol: Fraction = DEFAULT_TOL, enclosure: RootEnclosure | None = None
) -> ValueInterval:
    """rho(A)^n by interval arithmetic, refined until the width is <= tol.

    ``enclosure`` is the result of ``spectral_radius(a)`` when the caller
    already holds it.
    """
    tol = Fraction(tol)
    if enclosure is None:
        enclosure = spectral_radius(a, tol)
    powered = enclosure.powered(a.n)
    while powered.width > tol:
        enclosure = enclosure.refined(enclosure.width / 256)
        powered = enclosure.powered(a.n)
    return powered
