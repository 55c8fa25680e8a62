"""Shared matrix kernels: characteristic polynomial, fraction-free echelon
form and digraph structure.

``matrices`` takes its char poly, determinant and primitivity from here, and
``traintrack`` its weight spaces, Gram kernels and ranks from ``echelon``.
Every char poly of a general shape, and every one the exhaustive search
makes, comes from one bordering step (Samuelson):
chi_A = (t - d) chi_B - r adj(tI - B) c for A = [[B, c], [r, d]].
``charpoly`` folds it over the leading principal submatrices unless the
shape is (transposed) upper Hessenberg.  The search factors each parent B
once with ``charpoly`` and ``adjugate_rows`` and borders it with
``bordered_charpoly`` on the extensions that pass ``|det| = 1``, canonicity
and ``digraph_structure``.  All functions take plain nested sequences of
Python ints and return plain ints, lists and tuples.  Everything is exact.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import mul

#: Read by the benchmark's start-up probe; pure Python is the only backend.
BACKEND = "pure"

#: The public kernels; the benchmark's per-layer tracer wraps the names listed here.
__all__ = [
    "BACKEND",
    "adjugate_rows",
    "bordered_charpoly",
    "charpoly",
    "determinant",
    "digraph_structure",
    "echelon",
]


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


def adjugate_rows(cols, p, r) -> list[list[int]]:
    """[r N_0, ..., r N_(m-1)], where adj(tI - B) = sum_k t^k N_k and p = charpoly(B).

    B is given by its m columns.  The N_k are polynomials in B, so they
    commute with it: r N_(m-1) = r and r N_(k-1) = (r N_k) B + p_k r, exact
    over Z for singular B too, and no m x m matrix is formed.  A 0 x 0 B
    has the one row [], so that r N_0 c = 0.
    """
    row = list(r)
    rows = [row]
    for k in range(len(cols) - 1, 0, -1):
        row = [sum(map(mul, row, col)) + p[k] * x for col, x in zip(cols, r)]
        rows.append(row)
    return rows[::-1]


def bordered_charpoly(p, u, c, d) -> tuple[int, ...]:
    """chi of [[B, c], [r, d]] from p = charpoly(B) and u = [r N_k for each k]
    (``adjugate_rows``): (t - d) p(t) - sum_k t^k (r N_k c)."""
    chi = [0, *p]
    for k, a in enumerate(p):
        chi[k] -= d * a
    for k, uk in enumerate(u):
        chi[k] -= sum(map(mul, uk, c))
    return tuple(chi)


def _charpoly_bordered(rows, n: int) -> tuple[int, ...]:
    # fold the bordering step over the leading principal submatrices
    cols = list(zip(*rows))
    p: tuple[int, ...] = (1,)
    for i in range(n):
        lead = [col[:i] for col in cols[:i]]
        p = bordered_charpoly(p, adjugate_rows(lead, p, rows[i][:i]), cols[i][:i], rows[i][i])
    return p


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
    return _charpoly_bordered(rows, n)


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
    cols = range(n)
    for u, row in enumerate(rows):
        bit = 1 << u
        for v in compress(cols, row):
            adj[u] |= 1 << v
            radj[v] |= bit
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
