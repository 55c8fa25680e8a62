"""References for ``stretchlab.search``.

``brute_force_search`` is the reference for ``run_search``.  It walks every
matrix of the slice in row-major lexicographic order, keeps the matrices
that are primitive with |det| = 1 (``is_primitive`` and Bareiss
``determinant``), and classifies each distinct char poly.  It visits every
matrix, so it is meant for the slices brute force covers: n <= 4 over
{0,1}, n <= 3 over {0,1,2}.

``reference_scan_orbits`` is the reference for ``scan_orbits``: it runs the
canonicity test on every tail of every parent, then filters each canonical
code with a Bareiss determinant, the structure test and a full char poly.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import product

from stretchlab import _kernels
from stretchlab.classify import is_skew_reciprocal_up_to_cyclotomic
from stretchlab.matrices import IntMatrix, char_poly, determinant, is_primitive
from stretchlab.roots import (
    cauchy_root_bound,
    compare_enclosures,
    compare_power_to_silver_squared,
    largest_real_root,
    real_roots_in_interval,
)
from stretchlab.search import (
    QualifyingClass,
    SearchConfig,
    SearchResult,
    _canonical_extensions,
    code_rows,
)


def primitive_unit_det_charpoly(rows) -> tuple[int, ...] | None:
    """The char poly of a primitive matrix with |det| = 1, else None.

    A Bareiss |det| of 1 first, then strongly connected with period 1 (for
    a nonnegative matrix, primitive), and only then the char poly.
    """
    if abs(_kernels.determinant(rows)) != 1 or _kernels.digraph_structure(rows) != (True, 1):
        return None
    return _kernels.charpoly(rows)


def reference_scan_orbits(n: int, max_entry: int, parents) -> list:
    """(code, chi) of every canonical n x n extension of ``parents`` that
    passes ``primitive_unit_det_charpoly``, one candidate at a time."""
    out = []
    for code in _canonical_extensions(parents, n, max_entry + 1):
        chi = primitive_unit_det_charpoly(code_rows(code, n))
        if chi is not None:
            out.append((code, chi))
    return out


def brute_force_search(cfg: SearchConfig) -> SearchResult:
    n = cfg.n
    by_poly: dict = {}
    # in this order, the first matrix of each class is its least one
    for cells in product(range(cfg.max_entry + 1), repeat=n * n):
        a = IntMatrix(cells[r * n : (r + 1) * n] for r in range(n))
        if abs(determinant(a)) == 1 and is_primitive(a).primitive:
            by_poly.setdefault(char_poly(a), []).append(a)

    classes = []
    for poly in sorted(by_poly, key=lambda p: p.coeffs):
        if not is_skew_reciprocal_up_to_cyclotomic(poly):
            continue
        if real_roots_in_interval(poly, 1, cauchy_root_bound(poly)) == 0:
            continue
        root = largest_real_root(poly, cfg.tol)
        members = by_poly[poly]
        classes.append(
            QualifyingClass(
                char_poly=poly,
                root=root,
                normalized=root.powered(cfg.n),
                matrix_count=len(members),
                least_matrix=members[0],
            )
        )

    minimum = None
    if classes:
        lowest = min(classes, key=cmp_to_key(lambda x, y: compare_enclosures(x.root, y.root)))
        minimum = min(
            (c for c in classes if compare_enclosures(c.root, lowest.root) == 0),
            key=lambda c: c.least_matrix.rows,
        )
    return SearchResult(
        config=cfg,
        count_scanned=cfg.space_size,
        count_qualifying=sum(c.matrix_count for c in classes),
        classes=tuple(classes),
        minimum=minimum,
        violations=tuple(
            c for c in classes if compare_power_to_silver_squared(c.root, cfg.n) < 0
        ),
    )
