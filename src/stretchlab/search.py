"""Exhaustive desk-scale searches over small nonnegative integer matrices.

A matrix qualifies when it is primitive, lies in GL_n(Z), its characteristic
polynomial is skew-reciprocal up to cyclotomic factors, and its spectral
radius exceeds 1; the search certifies that no qualifying matrix in the
scanned slice has normalized spectral radius below the silver bound
3 + 2*sqrt(2) (a violation requires strictly disjoint enclosures, so interval
overlap can never produce a false positive).

The filter and the characteristic polynomial are invariant under
A -> P A P^T and A -> A^T, so the scan visits one canonical matrix per orbit
of S_n x <transpose> (``_kernels.canonical_codes``) and splits the canonical
(n-1) x (n-1) matrices it extends across the worker pool.  Matrices that
pass the filter are classified once per distinct characteristic polynomial;
a class counts every matrix in its orbits, and the argmin tie-break is the
lexicographically least entry tuple among them, so results are independent
of worker count.
"""

from __future__ import annotations

import os
from fractions import Fraction
from multiprocessing import Pool
from typing import NamedTuple

from . import _kernels
from .classify import classify, is_skew_reciprocal_up_to_cyclotomic
from .errors import BudgetExceededError, InputError
from .matrices import IntMatrix, char_poly, is_primitive
from .poly import IntPolynomial
from .roots import (
    DEFAULT_TOL,
    RootEnclosure,
    ValueInterval,
    compare_enclosures,
    compare_power_to_silver_squared,
    largest_root_above_one,
)

DEFAULT_BUDGET = 10**6
BUDGET_ENV = "STRETCHLAB_BUDGET"


def _budget() -> int:
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{BUDGET_ENV} must be an integer, got {raw!r}") from exc


class SearchConfig(NamedTuple):
    n: int
    max_entry: int
    tol: Fraction = DEFAULT_TOL

    @property
    def space_size(self) -> int:
        return (self.max_entry + 1) ** (self.n * self.n)


class QualifyingClass(NamedTuple):
    """All qualifying matrices sharing one characteristic polynomial."""

    char_poly: IntPolynomial
    root: RootEnclosure
    normalized: ValueInterval
    matrix_count: int
    least_matrix: IntMatrix


class SearchResult(NamedTuple):
    config: SearchConfig
    count_scanned: int
    count_qualifying: int
    classes: tuple[QualifyingClass, ...]
    minimum: QualifyingClass | None
    violations: tuple[QualifyingClass, ...]
    scope_note: str = (
        "finite desk-scale slice; the theorem itself covers every dimension >= 4"
    )


def _survivors(cfg: SearchConfig, threads: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(canonical code, chi) of every orbit that passes the filter."""
    parents = _kernels.canonical_codes(cfg.n - 1, cfg.max_entry)
    if threads <= 1:
        return _kernels.scan_orbits(cfg.n, cfg.max_entry, parents)
    step = max(1, len(parents) // (threads * 8))
    chunks = [
        (cfg.n, cfg.max_entry, parents[start : start + step])
        for start in range(0, len(parents), step)
    ]
    with Pool(threads) as pool:
        parts = pool.starmap(_kernels.scan_orbits, chunks)
    return [survivor for part in parts for survivor in part]


def run_search(cfg: SearchConfig, threads: int = 1) -> SearchResult:
    """Exhaustive search of all (max_entry+1)^(n^2) matrices, one per orbit."""
    total = cfg.space_size
    if total > _budget():
        raise BudgetExceededError(
            f"search space {total} exceeds budget {_budget()}; "
            f"raise {BUDGET_ENV} to override"
        )
    by_poly: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for code, chi in _survivors(cfg, threads):
        by_poly.setdefault(chi, []).append(code)

    base = cfg.max_entry + 1
    classes: list[QualifyingClass] = []
    count_qualifying = 0
    for coeffs in sorted(by_poly):
        poly = IntPolynomial(coeffs)
        if not is_skew_reciprocal_up_to_cyclotomic(poly):
            continue
        root = largest_root_above_one(poly, cfg.tol)
        if root is None:
            continue  # spectral radius not > 1
        indices = set().union(
            *(_kernels.orbit_indices(code, cfg.n, base) for code in by_poly[coeffs])
        )
        count_qualifying += len(indices)
        least = IntMatrix(_kernels.decode_matrix(min(indices), cfg.n, base))
        classes.append(
            QualifyingClass(
                char_poly=poly,
                root=root,
                normalized=root.powered(cfg.n),
                matrix_count=len(indices),
                least_matrix=least,
            )
        )

    minimum = None
    if classes:
        best = [classes[0]]
        for cls in classes[1:]:
            cmp = compare_enclosures(cls.root, best[0].root)
            if cmp < 0:
                best = [cls]
            elif cmp == 0:
                best.append(cls)
        minimum = min(best, key=lambda c: c.least_matrix.rows)

    violations = [
        cls for cls in classes if compare_power_to_silver_squared(cls.root, cfg.n) < 0
    ]

    return SearchResult(
        config=cfg,
        count_scanned=total,
        count_qualifying=count_qualifying,
        classes=tuple(classes),
        minimum=minimum,
        violations=tuple(violations),
    )


class WitnessReport(NamedTuple):
    matrix: IntMatrix
    nonnegative: bool
    primitivity: object
    det: int
    in_glnz: bool
    char_poly: IntPolynomial
    spectral_class: object
    root: RootEnclosure | None
    normalized: ValueInterval | None
    qualifies: bool
    below_threshold: bool | None


def witness_check(a: IntMatrix, tol: Fraction = DEFAULT_TOL) -> WitnessReport:
    """Run the full qualification pipeline on a single matrix."""
    report = is_primitive(a)
    chi = char_poly(a)
    det = (-1) ** a.n * chi.constant_term()
    spectral = classify(chi)
    root = None
    normalized = None
    below = None
    if report.primitive and det in (1, -1) and spectral.skew_up_to_cyclotomic:
        root = largest_root_above_one(chi, tol)
    qualifies = root is not None
    if qualifies:
        normalized = root.powered(a.n)
        below = compare_power_to_silver_squared(root, a.n) < 0
    return WitnessReport(
        matrix=a,
        nonnegative=report.nonnegative,
        primitivity=report,
        det=det,
        in_glnz=det in (1, -1),
        char_poly=chi,
        spectral_class=spectral,
        root=root,
        normalized=normalized,
        qualifies=qualifies,
        below_threshold=below,
    )
