"""The five polynomial families behind the classification of small spectra.

Each family is a curve-graph shape with weights (a, b, ...); its clique
polynomial Q determines the candidate characteristic polynomial
P(t) = t^n Q(1/t).  Forms carry the curve-graph weights:

    2A1..5A1 : Q = 1 - t^a - t^b - ...          (k pairwise intersecting curves)
    A*2      : Q = 1 - t^a - t^b - t^c + t^(a+b) (a, b disjoint; c isolated)

with the instantiation constraint that the top exponent of Q equals n.
Admissibility filters candidates through the parity condition, a
primitivity-compatibility check (not a polynomial in t^d, d > 1 - necessary,
not sufficient), and skew-reciprocity up to cyclotomic factors; survivors
get certified normalized largest-root enclosures.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cmp_to_key
from typing import NamedTuple

from ._immutable import Immutable, set_field
from .classify import (
    classify,
    is_skew_reciprocal,
    is_skew_reciprocal_up_to_cyclotomic,
    parity_condition,
    qualify,
)
from .errors import InputError
from .poly import IntPolynomial
from .roots import DEFAULT_TOL, RootEnclosure, ValueInterval, compare_enclosures, largest_real_root

A_ONE_SIZES = {"2A1": 2, "3A1": 3, "4A1": 4, "5A1": 5}
ALL_FORMS = ("2A1", "3A1", "4A1", "5A1", "AStar2")
DEGREE_CAP = 16
#: Largest n of a monotonicity scan; the 5A1 grid there has 528 points.
SCAN_DEGREE_CAP = 64

class FamilyForm(Immutable):
    """One parameter choice for one of the five shapes.

    For kA1 the params are the k-1 lower curve weights (the top weight is
    pinned to n at instantiation).  For A*2 the params are (a, b, c) with
    a, b the adjacent pair and c isolated; max(c, a+b) must equal n.
    """

    __slots__ = ("tag", "params")

    def __init__(self, tag: str, params: tuple[int, ...]):
        if tag not in ALL_FORMS:
            raise ValueError(f"unknown family tag {tag!r}")
        expected = 3 if tag == "AStar2" else A_ONE_SIZES[tag] - 1
        if len(params) != expected:
            raise ValueError(f"{tag} takes {expected} parameters")
        if min(params) < 1:
            raise ValueError("family parameters must be positive")
        set_field(self, "tag", tag)
        set_field(self, "params", params)


def instantiate(form: FamilyForm, n: int) -> IntPolynomial:
    """P(t) = t^n Q_form(1/t), the reciprocal of the clique polynomial."""
    if n < 1:
        raise ValueError("degree must be positive")
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    if form.tag == "AStar2":
        a, b, c = form.params
        if max(c, a + b) != n or max(a, b, c) > n:
            raise ValueError("A*2 needs max(c, a + b) = n with weights <= n")
        coeffs[n - a] -= 1
        coeffs[n - b] -= 1
        coeffs[n - c] -= 1
        coeffs[n - a - b] += 1
    else:
        exponents = form.params + (n,)
        if max(exponents) > n:
            raise ValueError("a curve weight exceeds the matrix dimension")
        for e in exponents:
            coeffs[n - e] -= 1
    return IntPolynomial(coeffs)


def primitivity_compatible(p: IntPolynomial) -> bool:
    """p is not a polynomial in t^d for any d > 1.

    Necessary (not sufficient) for being the characteristic polynomial of a
    primitive matrix: gcd over the exponents of the nonconstant terms is 1.
    """
    if p.is_zero():
        raise ValueError("primitivity compatibility of the zero polynomial")
    g = 0
    for i in range(1, p.degree() + 1):
        if p.coeffs[i]:
            g = math.gcd(g, i)
            if g == 1:
                return True
    return g == 1


class AdmissibilityReport(NamedTuple):
    polynomial: IntPolynomial
    parity_ok: bool
    primitivity_compatible: bool
    skew_up_to_cyclotomic: bool
    root: RootEnclosure | None
    normalized: ValueInterval | None
    side: int | None  # of 3 + 2*sqrt(2), as in classify.qualify

    @property
    def admissible(self) -> bool:
        return self.root is not None  # set only when every filter passed


def admissibility_report(p: IntPolynomial, tol: Fraction = DEFAULT_TOL) -> AdmissibilityReport:
    """Run the full filter pipeline on one candidate polynomial."""
    parity = parity_condition(p)
    prim = primitivity_compatible(p)
    # parity is necessary for skew up to cyclotomics (see that predicate)
    skew = parity and is_skew_reciprocal_up_to_cyclotomic(p)
    verdict = qualify(p, p.degree(), tol, skew) if prim else None
    root, normalized, side = verdict or (None, None, None)
    return AdmissibilityReport(p, parity, prim, skew, root, normalized, side)


def _form_instances(tag: str, n: int):
    if tag == "AStar2":
        # max(c, a + b) = n with a <= b: c = n when a + b < n, any c when
        # a + b = n; each (a, b, c) comes once, in sorted order
        for a in range(1, n // 2 + 1):
            for b in range(a, n - a + 1):
                for c in range(1, n + 1) if a + b == n else (n,):
                    yield FamilyForm("AStar2", (a, b, c))
    else:
        k = A_ONE_SIZES[tag]
        for lows in itertools.combinations_with_replacement(range(1, n + 1), k - 1):
            yield FamilyForm(tag, lows)


def enumerate_admissible(
    n: int,
    forms=ALL_FORMS,
    tol: Fraction = DEFAULT_TOL,
) -> list[AdmissibilityReport]:
    """Admissible candidates over the requested forms at degree n,
    deduplicated by polynomial, sorted by their certified normalized values
    (compare_enclosures on the roots), equal values by coefficients."""
    if n < 2:
        raise InputError("enumeration needs degree >= 2")
    if n > DEGREE_CAP:
        raise InputError(f"degree {n} exceeds the enumeration cap {DEGREE_CAP}")
    unknown = [tag for tag in forms if tag not in ALL_FORMS]
    if unknown:
        raise InputError(f"unknown family form tag(s) {unknown}; valid tags: {ALL_FORMS}")
    seen: set[tuple[int, ...]] = set()
    reports: list[AdmissibilityReport] = []
    for tag in forms:
        for form in _form_instances(tag, n):
            p = instantiate(form, n)
            if p.coeffs in seen:
                continue
            seen.add(p.coeffs)
            if not parity_condition(p):
                continue  # its report could not be admissible; skip the other filters
            report = admissibility_report(p, tol)
            if report.admissible:
                reports.append(report)
    reports.sort(key=cmp_to_key(_by_value))
    return reports


def _by_value(a: AdmissibilityReport, b: AdmissibilityReport) -> int:
    x, y = a.polynomial.coeffs, b.polynomial.coeffs
    return compare_enclosures(a.root, b.root) or (x > y) - (x < y)


# -- monotonicity scans of the symmetric-exponent branches -------------


class ScanPoint(NamedTuple):
    params: tuple[int, ...]
    polynomial: IntPolynomial
    root: RootEnclosure
    normalized: ValueInterval


class ScanResult(NamedTuple):
    branch: str
    n: int
    points: tuple[ScanPoint, ...]
    strictly_increasing: bool


def monotonicity_scan(
    branch: str,
    n: int,
    d_values=None,
    tol: Fraction = DEFAULT_TOL,
) -> ScanResult:
    """Largest-root enclosures along a symmetric-exponent grid.

    Branches: 3A1 is t^2g - t^(g+d) - t^(g-d) - 1; 4A1 adds the middle
    -t^g; 5A1 is the two-parameter t^2g - t^(g+a) - t^(g+b) - t^(g-b)
    - t^(g-a) - 1 scanned over the (a, b) grid.  Each point is the kA1
    form ``instantiate`` builds from curve weights symmetric about g = n/2,
    (g-d, g+d), (g-d, g, g+d) or (g-b, g-a, g+a, g+b).  Strict increase is
    certified pointwise by disjoint enclosures (refined geometrically, as in
    compare_enclosures); an unresolvable pair raises SeparationError.
    """
    if n % 2 or n < 4:
        raise InputError("scans need even n >= 4")
    if n > SCAN_DEGREE_CAP:
        raise InputError(f"degree {n} exceeds the scan cap {SCAN_DEGREE_CAP}")
    g = n // 2
    if d_values is None:
        d_values = range(0, g)
    ds = sorted(set(int(d) for d in d_values))
    if any(d < 0 or d >= g for d in ds):
        raise InputError("scan parameters must satisfy 0 <= d < n/2")
    if branch == "5A1":
        grid = [(a, b) for a in ds for b in ds if a <= b]
    elif branch in ("3A1", "4A1"):
        grid = [(d,) for d in ds]
    else:
        raise InputError(f"unknown scan branch {branch!r}")
    middle = (g,) if branch == "4A1" else ()
    points: list[ScanPoint] = []
    for params in grid:
        weights = tuple(g - x for x in reversed(params)) + middle + tuple(g + x for x in params)
        p = instantiate(FamilyForm(branch, weights), n)
        root = largest_real_root(p, tol)
        points.append(ScanPoint(params, p, root, root.powered(n)))
    if branch == "5A1":
        # neighbours along each coordinate of the (a, b) grid
        by_params = {pt.params: pt for pt in points}
        pairs = [
            (by_params[(a, b)], by_params[nxt])
            for a, b in grid
            for nxt in ((a + 1, b), (a, b + 1))
            if nxt in by_params
        ]
    else:
        pairs = zip(points, points[1:])
    # every pair is compared, so an unresolvable one raises even after a failure
    increasing = all([compare_enclosures(x.root, y.root) == -1 for x, y in pairs])
    return ScanResult(branch=branch, n=n, points=tuple(points), strictly_increasing=increasing)


# -- low-degree exceptional values --------------------------------------


class LowDegreeReport(NamedTuple):
    """The n = 2 and n = 3 exceptions below the degree >= 4 bound."""

    mu_squared: ValueInterval
    mu_cubed: ValueInterval
    n2_skew_sign: int | None
    n3_skew_up_to_cyclotomic: bool
    n3_core: IntPolynomial
    below_bound: bool
    excluded_at_4: tuple[tuple[IntPolynomial, str], ...]
    ok: bool


def verify_low_degree_exceptions(tol: Fraction = DEFAULT_TOL) -> LowDegreeReport:
    """n=2: t^2-t-1 (mu^2); n=3: t^3-2t-1 (mu^3); both below the silver
    bound, with their degree-4 analogues excluded by the filters."""
    p2 = IntPolynomial((-1, -1, 1))
    p3 = IntPolynomial((-1, -2, 0, 1))
    sign2 = is_skew_reciprocal(p2)
    class3 = classify(p3)
    skew3, core3 = class3.skew_up_to_cyclotomic, class3.core
    # both qualify; their sides are exact at any tol
    verdict2 = qualify(p2, 2, tol, sign2 is not None)
    verdict3 = qualify(p3, 3, tol, skew3)
    below = verdict2.side < 0 and verdict3.side < 0
    q1 = IntPolynomial((-1, 0, 0, -1, 1))  # t^4 - t^3 - 1
    q2 = IntPolynomial((-1, -2, 0, 0, 1))  # t^4 - 2t - 1
    # either failure makes a polynomial inadmissible, so both are excluded
    excluded = []
    if not parity_condition(q1):
        excluded.append((q1, "parity"))
    if parity_condition(q2) and not is_skew_reciprocal_up_to_cyclotomic(q2):
        excluded.append((q2, "skew_up_to_cyclotomic"))
    ok = sign2 == -1 and skew3 and core3 == p2 and below and len(excluded) == 2
    return LowDegreeReport(
        mu_squared=verdict2.normalized,
        mu_cubed=verdict3.normalized,
        n2_skew_sign=sign2,
        n3_skew_up_to_cyclotomic=skew3,
        n3_core=core3,
        below_bound=below,
        excluded_at_4=tuple(excluded),
        ok=ok,
    )
