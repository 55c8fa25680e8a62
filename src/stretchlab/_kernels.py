"""Hot kernels: characteristic polynomials, digraph structure, cycles, cliques
and the orbit scan behind the exhaustive search.

All functions take plain nested sequences of Python ints and return plain
ints and tuples.  Everything is exact.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import compress, permutations, product
from operator import itemgetter

from .errors import CapExceeded

#: Read by the benchmark's start-up probe and printed by ``--version``;
#: pure Python is the only backend.
BACKEND = "pure"

#: The public kernels; the benchmark's per-layer tracer wraps the names listed here.
__all__ = [
    "BACKEND",
    "CapExceeded",
    "charpoly",
    "determinant",
    "digraph_structure",
    "simple_cycle_classes",
    "clique_polynomial_from_classes",
    "decode_matrix",
    "primitive_unit_det_charpoly",
    "canonical_codes",
    "scan_orbits",
    "code_rows",
    "orbit_indices",
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


def determinant(rows) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), -1)
            if pivot < 0:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pivot_val = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot_val - mik * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot_val
    return sign * m[n - 1][n - 1]


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


# -- simple cycles and clique polynomials ------------------------------


def simple_cycle_classes(rows, cap: int) -> list[tuple[int, tuple[int, ...], int]]:
    """Vertex-simple directed cycles of a nonnegative matrix, up to rotation.

    Returns (vertex mask, canonical vertex tuple, multiplicity) triples,
    multiplicity being the product of entry values along the cycle; the
    expanded curve count (sum of multiplicities) is capped by ``cap``.
    Canonical representative: rotation starting at the smallest vertex.
    """
    n = len(rows)
    classes: list[tuple[int, tuple[int, ...], int]] = []
    total = 0
    path: list[int] = []

    def extend(start: int, u: int, mask: int, mult: int):
        nonlocal total
        closing = rows[u][start]
        if closing:
            m = mult * closing
            total += m
            if total > cap:
                raise CapExceeded(f"cycle cap {cap} exceeded")
            classes.append((mask, tuple(path), m))
        for v in range(start + 1, n):
            if rows[u][v] and not mask >> v & 1:
                path.append(v)
                extend(start, v, mask | 1 << v, mult * rows[u][v])
                path.pop()

    for s in range(n):
        path = [s]
        extend(s, s, 1 << s, 1)
    classes.sort(key=lambda c: (len(c[1]), c[1]))
    return classes


def clique_polynomial_from_classes(classes, n: int, guard: int) -> tuple[int, ...]:
    """Clique polynomial coefficients (low to high) over cycle classes.

    A clique picks pairwise vertex-disjoint classes; parallel curves inside
    one class multiply the count.  Each clique contributes
    (-1)^size * (product of multiplicities) * t^(total weight).
    """
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    items = [(mask, len(verts), mult) for mask, verts, mult in classes]
    count = 0

    def rec(start: int, used: int, sign: int, weight: int, mult: int):
        nonlocal count
        for idx in range(start, len(items)):
            mask, w, m = items[idx]
            if mask & used:
                continue
            count += 1
            if count > guard:
                raise CapExceeded(f"clique guard {guard} exceeded")
            coeffs[weight + w] += sign * mult * m
            rec(idx + 1, used | mask, -sign, weight + w, mult * m)

    rec(0, 0, -1, 0, 1)
    return tuple(coeffs)


# -- exhaustive search: one matrix per orbit ----------------------------
#
# The search filter and the char poly are invariant under A -> P A P^T and
# A -> A^T, so the search visits one matrix per orbit of S_n x <transpose>,
# by orderly generation (Read, "Every one a winner", Ann. Discrete Math. 2,
# 1978; McKay, "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).
# The *code* of a k x k matrix lists its entries vertex by vertex: a[v][v],
# then the pairs (a[v][j], a[j][v]) for j < v.  So every leading principal
# submatrix is a prefix of the code, and the transpose swaps within each
# pair.  A code is canonical when no image has a larger code.  Canonicity is
# hereditary: an image of the prefix that beats it extends, fixing the new
# vertex, to an image of the whole that beats it.  So the canonical k-codes
# are exactly the canonical extensions of the canonical (k-1)-codes.


def decode_matrix(index: int, n: int, base: int) -> list[list[int]]:
    """Row-major big-endian digits, so index order is lexicographic order."""
    cells = n * n
    digits = [0] * cells
    for k in range(cells - 1, -1, -1):
        index, digits[k] = divmod(index, base)
    return [digits[r * n : (r + 1) * n] for r in range(n)]


def primitive_unit_det_charpoly(rows) -> tuple[int, ...] | None:
    """The char poly of a primitive matrix with |det| = 1, else None.

    The search filter: a Bareiss |det| of 1 first, since on the search's
    sizes it rejects most candidates for less than the structure test
    costs, then strongly connected with period 1 (for a nonnegative matrix,
    primitive), and only then the char poly.
    """
    if abs(determinant(rows)) != 1 or digraph_structure(rows) != (True, 1):
        return None
    return charpoly(rows)


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


def code_rows(code: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """The rows of the n x n matrix with this code."""
    flat = _symmetries(n)[1][0](code)
    return [flat[r * n : (r + 1) * n] for r in range(n)]


def scan_orbits(n: int, max_entry: int, parents) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(code, chi) of every canonical n x n extension of ``parents`` (canonical
    (n-1)-codes) that passes ``primitive_unit_det_charpoly``."""
    out = []
    for code in _canonical_extensions(parents, n, max_entry + 1):
        chi = primitive_unit_det_charpoly(code_rows(code, n))
        if chi is not None:
            out.append((code, chi))
    return out


def orbit_indices(code: tuple[int, ...], n: int, base: int) -> set[int]:
    """Row-major indices (as in ``decode_matrix``) of every matrix in the orbit."""
    out = set()
    for image in _symmetries(n)[1]:
        index = 0
        for digit in image(code):
            index = index * base + digit
        out.add(index)
    return out
