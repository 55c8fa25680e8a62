"""Combinatorial train tracks stored as fat graphs.

A track is a set of vertices, each carrying two ordered sides of half-edges
(order = left to right in the plane), and a set of edges pairing half-edges,
each labeled real or infinitesimal.  That data suffices to compute switch
conditions, the weight space, the skew form on it, and to trace boundary
components with their cusps; no ambient surface is needed.  The weight
space, Gram matrix and radical are integer elimination by ``_kernels.echelon``.

Standard embedding (one side of every vertex = exactly the two half-edges of
the infinitesimal polygon through it, the other side all real) is checked by
``is_standardly_embedded`` and required only by the radical constructions;
the weight space and the skew form make sense for any track.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from ._immutable import Immutable, set_field
from ._kernels import echelon
from .errors import InputError


class InvalidTrackError(InputError):
    """The combinatorial data does not describe a train track."""


class TrackVertex(NamedTuple):
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]


class TrackEdge(NamedTuple):
    ends: tuple[int, int]  # the two half-edge ids
    kind: str  # "real" | "inf"


class TrainTrack(Immutable):
    """Vertices and edges of a validated track.

    The constructor walks the half-edges once: it validates them and builds
    the lookups half-edge -> edge / mate / side / rotation successor that
    every derived structure reads.  The derived data (boundary, switch
    matrix, weight space, skew form, Gram form) is computed once and cached
    in the instance ``__dict__``; the fields cannot be reassigned, so the
    caches never go stale.
    """

    def __init__(self, vertices: Iterable, edges: Iterable):
        vs = tuple(
            v if isinstance(v, TrackVertex) else TrackVertex(tuple(v[0]), tuple(v[1]))
            for v in vertices
        )
        es = tuple(
            e if isinstance(e, TrackEdge) else TrackEdge((e[0][0], e[0][1]), e[1])
            for e in edges
        )
        edge_of: dict[int, int] = {}
        mate: dict[int, int] = {}
        for i, e in enumerate(es):
            if e.kind not in ("real", "inf"):
                raise InvalidTrackError(f"edge kind must be 'real' or 'inf', got {e.kind!r}")
            h1, h2 = e.ends
            if h1 == h2:
                raise InvalidTrackError("an edge needs two distinct half-edge ids")
            edge_of[h1] = edge_of[h2] = i
            mate[h1], mate[h2] = h2, h1
        if len(edge_of) != 2 * len(es):
            raise InvalidTrackError("a half-edge id appears on more than one edge end")
        side_of: dict[int, int] = {}  # 0 = side_a, 1 = side_b
        rotation_next: dict[int, int] = {}
        on_sides = 0
        for v in vs:
            if not v.side_a or not v.side_b:
                raise InvalidTrackError("both sides of every vertex must be nonempty")
            side_of.update(dict.fromkeys(v.side_a, 0))
            side_of.update(dict.fromkeys(v.side_b, 1))
            # counterclockwise rotation: side_a right-to-left, side_b left-to-right
            rotation = v.side_a[::-1] + v.side_b
            rotation_next.update(zip(rotation, rotation[1:] + rotation[:1]))
            on_sides += len(rotation)
        if len(side_of) != on_sides:
            raise InvalidTrackError("a half-edge id appears on more than one side")
        if side_of.keys() != edge_of.keys():
            raise InvalidTrackError("side half-edges and edge ends do not match up")
        set_field(self, "vertices", vs)
        set_field(self, "edges", es)
        set_field(self, "_edge_of", edge_of)
        set_field(self, "_mate", mate)
        set_field(self, "_side_of", side_of)
        set_field(self, "_rotation_next", rotation_next)

    def __eq__(self, other):
        if other.__class__ is not TrainTrack:
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def real_edges(self) -> list[int]:
        return [i for i, e in enumerate(self.edges) if e.kind == "real"]

    def infinitesimal_edges(self) -> list[int]:
        return [i for i, e in enumerate(self.edges) if e.kind == "inf"]

    @cached_property
    def _boundary(self) -> tuple[BoundaryComponent, ...]:
        return boundary_components(self)

    @cached_property
    def _switch(self) -> tuple[tuple[int, ...], ...]:
        rows = []
        edge_of = self._edge_of
        for v in self.vertices:
            row = [0] * self.n_edges
            for h in v.side_a:
                row[edge_of[h]] += 1
            for h in v.side_b:
                row[edge_of[h]] -= 1
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def _weight_space(self) -> WeightSpace:
        return WeightSpace(self, _kernel(self._switch, self.n_edges))

    @cached_property
    def _skew(self) -> list[list[int]]:
        """The matrix F with omega(w, w2) = w F w2: each same-side pair h1
        left of h2 adds +1 at (e1, e2) and -1 at (e2, e1)."""
        f = [[0] * self.n_edges for _ in self.edges]
        edge_of = self._edge_of
        for v in self.vertices:
            for side in v:
                for h1, h2 in itertools.combinations(side, 2):
                    e1, e2 = edge_of[h1], edge_of[h2]
                    f[e1][e2] += 1
                    f[e2][e1] -= 1
        return f

    @cached_property
    def _gram(self) -> GramForm:
        basis = self._weight_space.basis
        images = [_apply(self._skew, u) for u in basis]
        return GramForm(tuple(tuple(_dot(v, fu) for fu in images) for v in basis))


def is_standardly_embedded(track: TrainTrack) -> bool:
    """One side per vertex = exactly two infinitesimal half-edges, the other
    all real; this makes the infinitesimal edges a disjoint union of cycles."""
    edges, edge_of = track.edges, track._edge_of
    for v in track.vertices:
        kinds = [{edges[edge_of[h]].kind for h in side} for side in v]
        if kinds == [{"inf"}, {"real"}]:
            inf_side = v.side_a
        elif kinds == [{"real"}, {"inf"}]:
            inf_side = v.side_b
        else:
            return False
        if len(inf_side) != 2:
            return False
    return True


# -- switch conditions and the weight space -----------------------------


def switch_matrix(track: TrainTrack) -> tuple[tuple[int, ...], ...]:
    """Rows = vertices; entry = (#halves of e on side_a) - (#on side_b)."""
    return track._switch


def _dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def _apply(rows: Sequence[Sequence[int]], w: Sequence) -> list:
    return [_dot(row, w) for row in rows]


def _kernel(rows: Sequence[Sequence[int]], n_cols: int) -> tuple[tuple[int, ...], ...]:
    """Integer basis of {v : rows v = 0}: per free column f of the echelon
    form, v_f = d (the last pivot), 0 on the other free columns, and
    back-substitution.  The pivot block P of the row-permuted input has
    det P = d, so by Cramer's rule every pivot entry is an integer minor and
    every division is exact."""
    m, pivots, _ = echelon(rows)
    d = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for f in sorted(set(range(n_cols)).difference(pivots)):
        v = [0] * n_cols
        v[f] = d
        for k in range(len(pivots) - 1, -1, -1):
            c = pivots[k]
            v[c] = -_dot(m[k][c + 1 :], v[c + 1 :]) // m[k][c]
        basis.append(tuple(v))
    return tuple(basis)


class WeightSpace(NamedTuple):
    """Integer basis of the solutions of all switch conditions."""

    track: TrainTrack
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def combine(self, coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(coeffs) != self.dim:
            raise ValueError("coefficient count must match the dimension")
        cs = tuple(map(Fraction, coeffs))
        n = self.track.n_edges
        return tuple(Fraction(_dot(cs, [v[i] for v in self.basis])) for i in range(n))


def satisfies_switch_conditions(track: TrainTrack, w: Sequence) -> bool:
    if len(w) != track.n_edges:
        raise ValueError("weight vector length must match the edge count")
    return not any(_apply(track._switch, tuple(map(Fraction, w))))


def weight_space(track: TrainTrack) -> WeightSpace:
    """ker of the switch-condition map, as an integer basis."""
    return track._weight_space


# -- the skew bilinear form ---------------------------------------------


def thurston_form(track: TrainTrack, w: Sequence, w2: Sequence) -> Fraction:
    """sum over vertices and same-side pairs (e1 left of e2) of
    w_{e1} w2_{e2} - w_{e2} w2_{e1}, that is w F w2; exact rational."""
    w, w2 = tuple(map(Fraction, w)), tuple(map(Fraction, w2))
    if not (satisfies_switch_conditions(track, w) and satisfies_switch_conditions(track, w2)):
        raise ValueError("both weight vectors must satisfy the switch conditions")
    return _dot(w, _apply(track._skew, w2))


class GramForm(NamedTuple):
    """Matrix of the skew form in a weight-space basis."""

    matrix: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def is_antisymmetric(self) -> bool:
        m = self.matrix
        return all(x == -y for row, col in zip(m, zip(*m)) for x, y in zip(row, col))


def gram_form(track: TrainTrack) -> GramForm:
    return track._gram


# -- boundary components --------------------------------------------


class BoundaryComponent(NamedTuple):
    """One boundary walk of the fattened track.

    ``walk`` lists departing half-edge ids; step i enters the next vertex
    through the mate of walk[i] and leaves along walk[i+1].  A cusp sits at
    position i when the transition into walk[i] stays on one side of the
    vertex (tangential corner); smooth corners cross between sides.
    """

    walk: tuple[int, ...]
    cusp_positions: tuple[int, ...]
    inner: bool  # all traversed edges infinitesimal

    @property
    def cusps(self) -> int:
        return len(self.cusp_positions)


def boundary_components(track: TrainTrack) -> tuple[BoundaryComponent, ...]:
    mate, side_of = track._mate, track._side_of
    step = {h: track._rotation_next[mate[h]] for h in mate}
    seen: set[int] = set()
    comps = []
    for h0 in sorted(step):
        if h0 in seen:
            continue
        walk = [h0]
        seen.add(h0)
        h = step[h0]
        while h != h0:
            walk.append(h)
            seen.add(h)
            h = step[h]
        cusp_positions = []
        for i, h in enumerate(walk):
            prev = walk[i - 1]
            arrival = mate[prev]
            if side_of[arrival] == side_of[h]:
                cusp_positions.append(i)
        inner = all(track.edges[track._edge_of[h]].kind == "inf" for h in walk)
        comps.append(
            BoundaryComponent(tuple(walk), tuple(cusp_positions), inner)
        )
    return tuple(comps)


# -- radical -----------------------------------------------------------


def radical_element(track: TrainTrack, component: BoundaryComponent) -> tuple[int, ...]:
    """The alternating weight vector of an even-cusped boundary component:
    every edge traversed on the k-th side (cusp-to-cusp arc) picks up (-1)^k."""
    n = component.cusps
    if n == 0 or n % 2:
        raise ValueError("radical elements need an even, positive cusp count")
    edge_of = track._edge_of
    weights = [0] * track.n_edges
    positions = list(component.cusp_positions)
    length = len(component.walk)
    for k, start in enumerate(positions, start=1):
        end = positions[k % n]  # next cusp position, cyclically
        for i in range(start, start + (end - start) % length):
            weights[edge_of[component.walk[i % length]]] += (-1) ** k
    if any(_apply(track._switch, weights)):
        raise InvalidTrackError("radical element violates a switch condition")
    return tuple(weights)


def radical_elements(track: TrainTrack) -> list[tuple[int, ...]]:
    """r_c for every even-cusped boundary component (smooth ones skipped)."""
    return [radical_element(track, c) for c in track._boundary if c.cusps and c.cusps % 2 == 0]


def radical(track: TrainTrack) -> tuple[int, list[tuple[int, ...]]]:
    """(dimension, integer basis in edge coordinates) of the kernel of the
    skew form on the weight space."""
    ws = track._weight_space
    columns = list(zip(*ws.basis))
    coords = _kernel(track._gram.matrix, ws.dim)
    basis = [tuple(_dot(c, col) for col in columns) for c in coords]
    return len(basis), basis


class RadicalReport(NamedTuple):
    dimension: int
    element_count: int
    elements_in_radical: bool
    spans_equal: bool


def radical_report(track: TrainTrack) -> RadicalReport:
    """Check span{r_c} against rad(omega): containment always, equality reported."""
    dim, _ = radical(track)
    elements = radical_elements(track)  # radical_element checks the switch conditions
    basis = track._weight_space.basis
    # omega(r, b) = -(F r).b, as F is antisymmetric
    images = [_apply(track._skew, r) for r in elements]
    in_rad = all(_dot(fr, b) == 0 for fr in images for b in basis)
    span_rank = len(echelon(elements)[1])
    return RadicalReport(
        dimension=dim,
        element_count=len(elements),
        elements_in_radical=in_rad,
        spans_equal=in_rad and span_rank == dim,
    )


# -- JSON wire format ---------------------------------------------------


def track_to_json(track: TrainTrack) -> dict:
    return {
        "vertices": [
            {"sideA": list(v.side_a), "sideB": list(v.side_b)} for v in track.vertices
        ],
        "edges": [{"ends": list(e.ends), "kind": e.kind} for e in track.edges],
    }


def _half_edge_ids(ids) -> list[int]:
    """A side or an edge's ends: a JSON list of int ids (a bool is not an id)."""
    if not isinstance(ids, list) or any(type(i) is not int for i in ids):
        raise InvalidTrackError("sides and edge ends must be lists of int half-edge ids")
    return ids


def track_from_json(data: dict) -> TrainTrack:
    try:
        vertices = [
            (_half_edge_ids(v["sideA"]), _half_edge_ids(v["sideB"])) for v in data["vertices"]
        ]
        edges = []
        for e in data["edges"]:
            ends = _half_edge_ids(e["ends"])
            edges.append(((ends[0], ends[1]), e["kind"]))
    except (KeyError, TypeError, IndexError) as exc:
        raise InvalidTrackError(f"malformed track JSON: {exc}") from exc
    return TrainTrack(vertices, edges)


def track_report(track: TrainTrack) -> dict:
    """Everything the traintrack CLI emits."""
    ws = weight_space(track)
    gram = gram_form(track)
    comps = track._boundary
    rep = radical_report(track)
    return {
        "edges": track.n_edges,
        "real_edges": len(track.real_edges()),
        "infinitesimal_edges": len(track.infinitesimal_edges()),
        "standardly_embedded": is_standardly_embedded(track),
        "weight_space_dim": ws.dim,
        "gram_antisymmetric": gram.is_antisymmetric(),
        "boundary": [
            {"length": len(c.walk), "cusps": c.cusps, "inner": c.inner} for c in comps
        ],
        "radical_dim": rep.dimension,
        "radical_elements": rep.element_count,
        "radical_containment": rep.elements_in_radical,
        "radical_spans_equal": rep.spans_equal,
    }
