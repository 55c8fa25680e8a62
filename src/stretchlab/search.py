"""Exhaustive desk-scale searches over small nonnegative integer matrices.

A matrix qualifies when it is primitive, lies in GL_n(Z), and
``classify.qualify`` accepts its characteristic polynomial (skew-reciprocal
up to cyclotomics, spectral radius above 1); the search certifies that no
qualifying matrix in the scanned slice has normalized spectral radius below
the silver bound 3 + 2*sqrt(2) (a violation requires strictly disjoint
enclosures, so interval overlap can never produce a false positive).

The filter and the characteristic polynomial are invariant under
A -> P A P^T and A -> A^T, so the scan visits one canonical matrix per orbit
of S_n x <transpose>, by orderly generation (Read, "Every one a winner", Ann.
Discrete Math. 2, 1978; McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998).  The *code* of a k x k matrix lists its entries
vertex by vertex: a[v][v], then the pairs (a[v][j], a[j][v]) for j < v.  So
every leading principal submatrix is a prefix of the code, and the transpose
swaps within each pair.  A code is canonical when no image has a larger code.
Canonicity is hereditary: an image of the prefix that beats it extends,
fixing the new vertex, to an image of the whole that beats it.  So the
canonical k-codes are exactly the canonical extensions of the canonical
(k-1)-codes, and the scan splits the canonical (n-1)-codes it extends across
the worker pool.

The scan factors each parent B, an m x m matrix with m = n - 1, once.  With
p = charpoly(B) and adj(tI - B) = sum_k t^k N_k, the extension
A = [[B, c], [r, d]] has chi_A(t) = (t - d) p(t) - sum_k t^k (r N_k c) and
det A = (-1)^n (-d p_0 - r N_0 c), exactly over Z, for singular B too.  The
rows r N_k follow from r alone (r N_(m-1) = r, r N_(k-1) = (r N_k) B + p_k r,
``_kernels.adjugate_rows``), once per r.  So |det A| = 1 is a lookup in the
parent's table of r N_0 c, and only the tails that pass it reach the
canonicity test; the primitive ones among those get their char poly from the
same identity (``_kernels.bordered_charpoly``).

Matrices that pass the filter are classified once per distinct
characteristic polynomial.  An orbit is the set of row-major entry tuples of
its matrices; a class counts every matrix in its orbits, and the argmin
tie-break is the least entry tuple among them, so results are independent of
worker count.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from operator import itemgetter, mul
from typing import NamedTuple

from ._kernels import adjugate_rows, bordered_charpoly, charpoly, digraph_structure
from .classify import classify, qualify
from .errors import BudgetExceededError, InputError
from .matrices import IntMatrix, char_poly, is_primitive
from .poly import IntPolynomial
from .roots import DEFAULT_TOL, RootEnclosure, ValueInterval, compare_enclosures

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


# -- the orbit search ---------------------------------------------------


def _position(i: int, j: int) -> int:
    """Where entry (i, j) sits in a code."""
    if i == j:
        return i * i
    if i > j:
        return i * i + 1 + 2 * j
    return j * j + 2 + 2 * i


def _getter(positions: tuple[int, ...]):
    if len(positions) == 1:  # itemgetter(p) returns the item, not a 1-tuple
        p = positions[0]
        return lambda code: (code[p],)
    return itemgetter(*positions)


@cache
def _symmetries(k: int) -> tuple[list, list]:
    """Getters for the images of a k x k code under S_k x <transpose>.

    The first list maps a code to the code of each non-identity image, for
    the canonicity test; the second maps it to the row-major entries of every
    image, the identity first.
    """
    cells = []  # code order
    for v in range(k):
        cells.append((v, v))
        for j in range(v):
            cells += [(v, j), (j, v)]
    row_major = [(i, j) for i in range(k) for j in range(k)]
    # image (perm, flip): entry (i, j) is a[perm[i]][perm[j]], transposed if flip
    sources = [
        {
            (i, j): _position(perm[j], perm[i]) if flip else _position(perm[i], perm[j])
            for i, j in row_major
        }
        for perm in permutations(range(k))
        for flip in (False, True)
    ]
    codes = {tuple(src[c] for c in cells) for src in sources} - {tuple(range(k * k))}
    rows = dict.fromkeys(tuple(src[c] for c in row_major) for src in sources)
    return [_getter(c) for c in sorted(codes)], [_getter(r) for r in rows]


def canonical_codes(n: int, max_entry: int) -> list[tuple[int, ...]]:
    """The canonical code of every orbit of n x n matrices over 0..max_entry."""
    codes: list[tuple[int, ...]] = [()]
    for k in range(1, n + 1):
        codes = _canonical_extensions(codes, k, max_entry + 1)
    return codes


def _canonical_extensions(parents, k: int, base: int) -> list[tuple[int, ...]]:
    images = _symmetries(k)[0]
    tails = list(product(range(base), repeat=2 * k - 1))
    out = []
    for parent in parents:
        for tail in tails:
            code = parent + tail
            if not any(image(code) > code for image in images):
                out.append(code)
    return out


def _rows(flat: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    return [flat[r * n : (r + 1) * n] for r in range(n)]


def code_rows(code: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """The rows of the n x n matrix with this code."""
    return _rows(_symmetries(n)[1][0](code), n)


@cache
def _tails(m: int, base: int):
    """The new rows and columns r, c over 0..base-1, and every (r, c) part of
    an extension's tail (r_0, c_0, r_1, c_1, ...) in ``product`` order, with
    the indices of its r and c."""
    vectors = list(product(range(base), repeat=m))
    index = {v: i for i, v in enumerate(vectors)}
    pairs = [
        (rc, index[rc[0::2]], index[rc[1::2]]) for rc in product(range(base), repeat=2 * m)
    ]
    return vectors, pairs


def scan_orbits(n: int, max_entry: int, parents) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(code, chi) of every canonical n x n extension of ``parents`` (canonical
    (n-1)-codes) that is primitive with |det| = 1.

    Each parent B is factored once: the |det| of every tail is a table
    lookup, so the canonicity test, the structure test and the bordered char
    poly run only on tails with |det| = 1, in ``product`` order.
    """
    m = n - 1
    images = _symmetries(n)[0]
    vectors, pairs = _tails(m, max_entry + 1)
    out = []
    for parent in parents:
        b = code_rows(parent, m) if m else []  # _symmetries(0) has no getter
        p = charpoly(b)
        cols = list(zip(*b))
        u = [adjugate_rows(cols, p, r) for r in vectors]
        # det A = (-1)^n (-d p_0 - r N_0 c), so the tails of a given r N_0 c
        # have |det| = 1 exactly for the d with d p_0 + r N_0 c = +-1
        by_value: dict[int, list[int]] = {}
        for i, (_, ri, ci) in enumerate(pairs):
            by_value.setdefault(sum(map(mul, u[ri][0], vectors[ci])), []).append(i)
        for d in range(max_entry + 1):
            ones = by_value.get(1 - d * p[0], []) + by_value.get(-1 - d * p[0], [])
            for i in sorted(ones):
                rc, ri, ci = pairs[i]
                code = parent + (d, *rc)
                if any(image(code) > code for image in images):
                    continue
                c = vectors[ci]
                rows = [(*row, x) for row, x in zip(b, c)] + [(*vectors[ri], d)]
                if digraph_structure(rows) == (True, 1):
                    out.append((code, bordered_charpoly(p, u[ri], c, d)))
    return out


def _orbit(code: tuple[int, ...], n: int) -> set[tuple[int, ...]]:
    """The row-major entry tuples of every matrix in the orbit of ``code``."""
    return {image(code) for image in _symmetries(n)[1]}


def _survivors(cfg: SearchConfig, threads: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(canonical code, chi) of every orbit that passes the filter."""
    parents = canonical_codes(cfg.n - 1, cfg.max_entry)
    if threads <= 1:
        return scan_orbits(cfg.n, cfg.max_entry, parents)
    step = max(1, len(parents) // (threads * 8))
    chunks = [
        (cfg.n, cfg.max_entry, parents[start : start + step])
        for start in range(0, len(parents), step)
    ]
    from multiprocessing import Pool  # loaded only when a pool runs

    with Pool(threads) as pool:
        parts = pool.starmap(scan_orbits, chunks)
    return [survivor for part in parts for survivor in part]


def run_search(cfg: SearchConfig, threads: int = 1) -> SearchResult:
    """Exhaustive search of all (max_entry+1)^(n^2) matrices, one per orbit."""
    cpus = os.cpu_count() or 1
    if not 1 <= threads <= cpus:
        raise InputError(f"--threads must be between 1 and {cpus} (the CPU count), got {threads}")
    if cfg.n < 1:
        raise InputError(f"--n must be at least 1, got {cfg.n}")
    if cfg.max_entry < 0:
        raise InputError(f"--max-entry must be at least 0, got {cfg.max_entry}")
    total = cfg.space_size
    if total > _budget():
        raise BudgetExceededError(
            f"search space {total} exceeds budget {_budget()}; "
            f"raise {BUDGET_ENV} to override"
        )
    by_poly: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for code, chi in _survivors(cfg, threads):
        by_poly.setdefault(chi, []).append(code)

    classes: list[QualifyingClass] = []
    violations: list[QualifyingClass] = []
    count_qualifying = 0
    for coeffs in sorted(by_poly):
        poly = IntPolynomial(coeffs)
        verdict = qualify(poly, cfg.n, cfg.tol)
        if verdict is None:
            continue
        members = set().union(*(_orbit(code, cfg.n) for code in by_poly[coeffs]))
        count_qualifying += len(members)
        cls = QualifyingClass(
            char_poly=poly,
            root=verdict.root,
            normalized=verdict.normalized,
            matrix_count=len(members),
            least_matrix=IntMatrix(_rows(min(members), cfg.n)),
        )
        classes.append(cls)
        if verdict.side < 0:
            violations.append(cls)

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
    verdict = None
    if report.primitive and det in (1, -1):
        verdict = qualify(chi, a.n, tol, spectral.skew_up_to_cyclotomic)
    root, normalized, side = verdict or (None, None, None)
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
        qualifies=verdict is not None,
        below_threshold=None if side is None else side < 0,
    )
