"""Brute-force reference for ``stretchlab.search.run_search``.

It walks every matrix of the slice in row-major lexicographic order, keeps the matrices that are primitive
with |det| = 1 (``is_primitive`` and Bareiss ``determinant``), and classifies
each distinct char poly.  It visits every matrix, so it is meant for the
slices brute force covers: n <= 4 over {0,1}, n <= 3 over {0,1,2}.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import product

from stretchlab.classify import is_skew_reciprocal_up_to_cyclotomic
from stretchlab.matrices import IntMatrix, char_poly, determinant, is_primitive
from stretchlab.roots import (
    cauchy_root_bound,
    compare_enclosures,
    compare_power_to_silver_squared,
    largest_real_root,
    real_roots_in_interval,
)
from stretchlab.search import QualifyingClass, SearchConfig, SearchResult


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
