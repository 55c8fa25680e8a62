"""Shared matrix kernels: characteristic polynomial, fraction-free echelon
form and digraph structure.

``matrices`` takes its char poly, determinant and primitivity from here, and
``traintrack`` its weight spaces, Gram kernels and ranks from ``echelon``.
The exhaustive search calls ``charpoly`` once per parent matrix and
``digraph_structure`` on the extensions that pass ``|det| = 1`` and
canonicity.  All functions take plain nested sequences of Python ints and
return plain ints, lists and tuples.  Everything is exact.
"""

from __future__ import annotations

import math
from itertools import compress

#: Read by the benchmark's start-up probe; pure Python is the only backend.
BACKEND = "pure"

#: The public kernels; the benchmark's per-layer tracer wraps the names listed here.
__all__ = ["BACKEND", "charpoly", "determinant", "digraph_structure", "echelon"]


# -- characteristic polynomial ----------------------------------------


def _is_upper_hessenberg(rows, n: int) -> bool:
    return not any(any(rows[i][: i - 1]) for i in range(2, n))


def _charpoly_hessenberg(rows, n: int) -> tuple[int, ...]:
    # det(tI - H) for upper Hessenberg H via the leading-minor recurrence
    # (0-based, s_j = h_{j,j-1}):
    # p_{c+1} = (t - h_cc) p_c - sum_{r<c} h_rc (s_{r+1} ... s_c) p_r
    # Only the nonzero h_rc of column c are visited, from the bottom up,
    # carrying the product of s between them; once it is zero, so is every
    # term above.
    cols = list(zip(*rows))
    polys: list[list[int]] = [[1]]
    for c in range(n):
        col = cols[c]
        prev = polys[c]
        cur = [0, *prev]
        h = col[c]
        if h:
            for i, a in enumerate(prev):
                cur[i] -= h * a
        above = col[:c]
        if any(above):
            prod = 1
            top = c
            for r in compress(range(c - 1, -1, -1), reversed(above)):
                for j in range(r + 1, top + 1):
                    prod *= cols[j - 1][j]
                if prod == 0:
                    break
                top = r
                coef = col[r] * prod
                for i, a in enumerate(polys[r]):
                    cur[i] -= coef * a
        polys.append(cur)
    return tuple(polys[n])


def _charpoly_berkowitz(rows, n: int) -> tuple[int, ...]:
    # Division-free Berkowitz; vec holds descending coefficients.
    vec = [1, -rows[0][0]]
    for size in range(2, n + 1):
        i = size - 1
        row = rows[i]
        col = [rows[r][i] for r in range(i)]
        items = [1, -rows[i][i], -sum(row[j] * col[j] for j in range(i))]
        v = col
        for _ in range(size - 2):
            v = [sum(rows[r][c] * v[c] for c in range(i)) for r in range(i)]
            items.append(-sum(row[j] * v[j] for j in range(i)))
        new = [0] * (size + 1)
        for j in range(size + 1):
            acc = 0
            for k in range(max(0, j - size + 1), min(j, size) + 1):
                it = items[k]
                if it:
                    acc += it * vec[j - k]
            new[j] = acc
        vec = new
    return tuple(reversed(vec))


def charpoly(rows) -> tuple[int, ...]:
    """Coefficients of det(tI - A), constant term first, always monic."""
    n = len(rows)
    if n == 0:
        return (1,)
    if _is_upper_hessenberg(rows, n):
        return _charpoly_hessenberg(rows, n)
    transposed = list(zip(*rows))
    if _is_upper_hessenberg(transposed, n):
        return _charpoly_hessenberg(transposed, n)
    return _charpoly_berkowitz(rows, n)


def echelon(rows) -> tuple[list[list[int]], list[int], int]:
    """(rows, pivot columns, swap sign): fraction-free row echelon form (Bareiss).

    Any rectangular integer matrix.  After k pivots, entry (i, j) below them
    is the (k+1)-minor of the row-permuted input on the pivot rows and row i,
    the pivot columns and column j (Sylvester), so each step divides exactly
    by the previous pivot.  The rows past the rank are zero.
    """
    m = [list(r) for r in rows]
    pivots: list[int] = []
    sign = prev = 1
    for c in range(len(m[0]) if m else 0):
        k = len(pivots)
        p = next((i for i in range(k, len(m)) if m[i][c]), -1)
        if p < 0:
            continue
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        top = m[k]
        pivot = top[c]
        for row in m[k + 1 :]:
            a = row[c]
            for j in range(c, len(row)):
                row[j] = (row[j] * pivot - a * top[j]) // prev
        prev = pivot
        pivots.append(c)
    return m, pivots, sign


def determinant(rows) -> int:
    """Exact determinant: the last ``echelon`` pivot times the swap sign."""
    m, pivots, sign = echelon(rows)
    if len(pivots) < len(m):
        return 0
    return sign * m[-1][-1] if m else 1


# -- digraph structure -------------------------------------------------


def _adjacency(rows, n: int) -> tuple[list[int], list[int]]:
    """Out- and in-neighbour bitmasks; edges are the nonzero entries."""
    adj = [0] * n
    radj = [0] * n
    for u in range(n):
        row = rows[u]
        for v in range(n):
            if row[v]:
                adj[u] |= 1 << v
                radj[v] |= 1 << u
    return adj, radj


def _reachable(adj: list[int], start: int) -> int:
    seen = 1 << start
    frontier = [start]
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            new = adj[u] & ~seen
            if new:
                seen |= new
                while new:
                    low = new & -new
                    nxt.append(low.bit_length() - 1)
                    new ^= low
        frontier = nxt
    return seen


def _period(adj: list[int], n: int, inside: int, root: int) -> int:
    """gcd of the cycle lengths of the strongly connected set ``inside``.

    BFS depths from ``root``; every non-tree edge u -> v inside adds
    depth[u] + 1 - depth[v] to the gcd.  0 if ``inside`` has no edge.
    """
    depth = [-1] * n
    depth[root] = 0
    frontier = [root]
    g = 0
    while frontier:
        nxt = []
        for u in frontier:
            m = adj[u] & inside
            du = depth[u] + 1
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                if depth[v] < 0:
                    depth[v] = du
                    nxt.append(v)
                else:
                    g = math.gcd(g, du - depth[v])
                    # the fold only shrinks and gcd(1, x) = 1: 1 is final
                    if g == 1:
                        return 1
        frontier = nxt
    return g


def digraph_structure(rows) -> tuple[bool, int]:
    """(strongly connected, gcd of all directed cycle lengths; 0 if acyclic).

    Edges are the nonzero entries of the matrix.  Each strongly connected
    component is reach(v) & coreach(v) of its lowest vertex; cycles live
    inside components, so the gcd folds over them.
    """
    n = len(rows)
    adj, radj = _adjacency(rows, n)
    left = (1 << n) - 1
    comps = period = 0
    while left:
        v = (left & -left).bit_length() - 1
        comp = _reachable(adj, v) & _reachable(radj, v)
        left &= ~comp
        comps += 1
        period = math.gcd(period, _period(adj, n, comp, v))
    return comps == 1, period
