"""Curve graphs of nonnegative integer matrices and their clique polynomials.

The digraph of a matrix A has a_ij parallel edges from i to j.  Vertices of
the curve graph are vertex-simple directed cycles (parallel edges count as
distinct curves), adjacent when the cycles share no digraph vertex, weighted
by length.  The clique polynomial Q(t) = 1 + sum (-1)^|K| t^w(K) then equals
t^n chi_A(1/t), which ties the growth rate of the graph to the spectral
radius of A.

Enumeration works on multiplicity-compressed cycle classes (same vertex
rotation, product of entry multiplicities); parallel copies of a class are
pairwise non-adjacent, so a clique picks at most one and contributes the
class multiplicity as a factor.  Expansion to individual curves happens only
in the public cycle listing.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .errors import CapExceeded, CheckFailed
from .matrices import IntMatrix, char_poly
from .poly import IntPolynomial
from .roots import DEFAULT_TOL, RootEnclosure, largest_root_above_one

DEFAULT_CYCLE_CAP = 10**5
DEFAULT_CLIQUE_GUARD = 10**6


class GrowthRateError(CheckFailed):
    """The clique polynomial has no root in (0, 1): growth rate <= 1."""


class SimpleCycle(NamedTuple):
    """Vertex-simple directed cycle; rotation starts at the smallest vertex.

    ``edge_choices[i]`` picks which of the parallel edges realizes the step
    vertices[i] -> vertices[i+1] (wrapping), so parallel edges give distinct
    curves.
    """

    vertices: tuple[int, ...]
    edge_choices: tuple[int, ...]

    @property
    def weight(self) -> int:
        return len(self.vertices)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


class CurveGraph(NamedTuple):
    """Weighted graph of simple closed curves, adjacency = vertex-disjointness."""

    n: int
    cycles: tuple[SimpleCycle, ...]
    # (vertex mask, canonical rotation, multiplicity) per cycle class
    classes: tuple[tuple[int, tuple[int, ...], int], ...]

    def adjacent(self, i: int, j: int) -> bool:
        return not (self.cycles[i].vertex_set & self.cycles[j].vertex_set)

    def edges(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(len(self.cycles))
            for j in range(i + 1, len(self.cycles))
            if self.adjacent(i, j)
        ]

    def weights(self) -> tuple[int, ...]:
        return tuple(c.weight for c in self.cycles)


def cycle_classes(
    a: IntMatrix, cap: int = DEFAULT_CYCLE_CAP
) -> list[tuple[int, tuple[int, ...], int]]:
    """Vertex-simple directed cycles of a nonnegative matrix, up to rotation.

    Returns (vertex mask, canonical vertex tuple, multiplicity) triples,
    multiplicity being the product of entry values along the cycle; the
    expanded curve count (sum of multiplicities) is capped by ``cap``.
    Canonical representative: rotation starting at the smallest vertex.
    """
    if not a.is_nonnegative():
        raise ValueError("cycle enumeration needs a nonnegative matrix")
    rows = a.rows
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


def simple_cycles(a: IntMatrix, cap: int = DEFAULT_CYCLE_CAP) -> list[SimpleCycle]:
    """All vertex-simple directed cycles, parallel edges expanded, sorted by
    (weight, vertex rotation, edge choices)."""
    return list(curve_graph(a, cap).cycles)


def curve_graph(a: IntMatrix, cap: int = DEFAULT_CYCLE_CAP) -> CurveGraph:
    classes = tuple(cycle_classes(a, cap))
    cycles: list[SimpleCycle] = []
    for _, verts, _ in classes:
        ranges = [
            range(a.rows[verts[i]][verts[(i + 1) % len(verts)]])
            for i in range(len(verts))
        ]
        cycles.extend(SimpleCycle(verts, choice) for choice in itertools.product(*ranges))
    return CurveGraph(n=a.n, cycles=tuple(cycles), classes=classes)


def _clique_coefficients(classes, n: int, guard: int) -> tuple[int, ...]:
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


def clique_polynomial(
    g: CurveGraph, guard: int = DEFAULT_CLIQUE_GUARD
) -> IntPolynomial:
    """Q(t) = 1 + sum over nonempty cliques K of (-1)^|K| t^(sum of weights)."""
    return IntPolynomial(_clique_coefficients(g.classes, g.n, guard))


def verify_clique_identity(
    a: IntMatrix,
    cap: int = DEFAULT_CYCLE_CAP,
    guard: int = DEFAULT_CLIQUE_GUARD,
) -> bool:
    """Exact check of Q(t) = t^n chi_A(1/t)."""
    q = _clique_coefficients(cycle_classes(a, cap), a.n, guard)
    return IntPolynomial(q) == char_poly(a).reverse()


def growth_rate(g: CurveGraph, tol: Fraction = DEFAULT_TOL) -> RootEnclosure:
    """Reciprocal of the smallest positive root of the clique polynomial.

    That reciprocal is the largest real root of the reversed polynomial, so
    the certificate is a plain largest-root enclosure.  Errors when Q has no
    root in (0, 1).
    """
    return _growth_rate(clique_polynomial(g), tol)


def _growth_rate(q: IntPolynomial, tol: Fraction) -> RootEnclosure:
    rev = q.reverse()  # q(0) = 1, so this preserves the degree
    if rev.degree() < 1:
        raise GrowthRateError("no cycles: growth rate undefined")
    root = largest_root_above_one(rev, tol)
    if root is None:
        raise GrowthRateError("clique polynomial has no root in (0, 1)")
    return root


class GraphShape(NamedTuple):
    """Small curve-graph shapes the classification distinguishes.

    kind "nA1": n pairwise intersecting curves (no edges); weights carries
    all n weights.  kind "A*2": three curves with exactly one disjoint pair;
    weights = (a, b, c) with a, b the adjacent pair and c the isolated one.
    Anything else reports "other".
    """

    kind: str
    weights: tuple[int, ...] = ()


def curve_graph_shape(g: CurveGraph) -> GraphShape:
    k = len(g.cycles)
    edges = g.edges()
    if k >= 1 and not edges:
        return GraphShape(kind="nA1", weights=tuple(sorted(g.weights())))
    if k == 3 and len(edges) == 1:
        i, j = edges[0]
        isolated = ({0, 1, 2} - {i, j}).pop()
        a, b = sorted((g.cycles[i].weight, g.cycles[j].weight))
        return GraphShape(kind="A*2", weights=(a, b, g.cycles[isolated].weight))
    return GraphShape(kind="other")


def curve_graph_report(a: IntMatrix, tol: Fraction = DEFAULT_TOL) -> dict:
    """Everything the curve-graph CLI emits, computed once."""
    g = curve_graph(a)
    q = clique_polynomial(g)
    chi = char_poly(a)
    shape = curve_graph_shape(g)
    try:
        growth = _growth_rate(q, tol)
    except GrowthRateError:
        growth = None
    return {
        "n": g.n,
        "cycles": [
            {"vertices": list(c.vertices), "edge_choices": list(c.edge_choices)}
            for c in g.cycles
        ],
        "weights": list(g.weights()),
        "edges": [list(e) for e in g.edges()],
        "clique_poly": [str(c) for c in q.coeffs],
        "char_poly": [str(c) for c in chi.coeffs],
        "growth_rate": growth.to_json() if growth else None,
        "shape": {"kind": shape.kind, "weights": list(shape.weights)},
        # Q(t) = t^n chi(1/t), the check verify_clique_identity makes
        "identity_ok": q == chi.reverse(),
    }
