"""Train tracks: weight spaces, the skew form, boundaries and radicals."""

import random
from fractions import Fraction

import pytest
import sympy

import stretchlab.traintrack
from conftest import (
    all_track_fixtures,
    bigon_track,
    chorded_square_track,
    polygon_track,
    single_loop_track,
)
from stretchlab.traintrack import (
    InvalidTrackError,
    TrainTrack,
    boundary_components,
    gram_form,
    is_standardly_embedded,
    radical,
    radical_element,
    radical_elements,
    radical_report,
    satisfies_switch_conditions,
    switch_matrix,
    thurston_form,
    track_from_json,
    track_report,
    track_to_json,
    weight_space,
)


def test_single_loop_weight_space():
    track = single_loop_track()
    ws = weight_space(track)
    assert ws.dim == 1
    assert satisfies_switch_conditions(track, (Fraction(7),))


def test_bigon_dimensions():
    track = bigon_track()
    assert is_standardly_embedded(track)
    ws = weight_space(track)
    assert ws.dim == track.n_edges - 2


def test_weight_space_dim_equals_corank_of_switch_map():
    for track in all_track_fixtures():
        if not track.vertices:
            continue
        ws = weight_space(track)
        m = sympy.Matrix(switch_matrix(track))
        assert ws.dim == track.n_edges - m.rank()
        # independent kernel oracle
        assert len(m.nullspace()) == ws.dim
        for vec in ws.basis:
            assert m * sympy.Matrix(vec) == sympy.zeros(len(track.vertices), 1)


def test_switch_matrix_is_built_once_per_track():
    for track in all_track_fixtures():
        rows = switch_matrix(track)
        assert rows is switch_matrix(track)
        assert all(type(row) is tuple for row in rows)
        assert satisfies_switch_conditions(track, weight_space(track).basis[0])
        assert switch_matrix(track) is rows


def test_invalid_tracks_rejected():
    with pytest.raises(InvalidTrackError):
        TrainTrack([((1,), ())], [((1, 2), "real")])  # empty side
    with pytest.raises(InvalidTrackError):
        TrainTrack([((1, 2), (3,))], [((1, 2), "real")])  # dangling side id
    with pytest.raises(InvalidTrackError):
        TrainTrack([((1,), (2,))], [((1, 2), "turbo")])  # bad kind
    with pytest.raises(InvalidTrackError):
        TrainTrack([((1,), (1,))], [((1, 1), "real")])  # repeated half-edge


def test_standard_embedding_detection():
    assert not is_standardly_embedded(single_loop_track())
    assert is_standardly_embedded(bigon_track())
    assert is_standardly_embedded(polygon_track(3))
    assert is_standardly_embedded(chorded_square_track())


def test_thurston_form_properties():
    rng = random.Random(19)
    for track in all_track_fixtures():
        ws = weight_space(track)
        if ws.dim == 0:
            continue
        vecs = [ws.combine([Fraction(rng.randint(-5, 5)) for _ in range(ws.dim)]) for _ in range(3)]
        w1, w2, w3 = vecs
        assert thurston_form(track, w1, w1) == 0
        assert thurston_form(track, w1, w2) == -thurston_form(track, w2, w1)
        a, b = Fraction(3), Fraction(-2)
        combo = tuple(a * x + b * y for x, y in zip(w1, w2))
        assert thurston_form(track, combo, w3) == a * thurston_form(
            track, w1, w3
        ) + b * thurston_form(track, w2, w3)


def test_thurston_form_rejects_non_weights():
    track = bigon_track()
    bad = (1, 0, 0, 0)
    with pytest.raises(ValueError):
        thurston_form(track, bad, bad)


def test_boundary_partition_invariant():
    for track in all_track_fixtures():
        comps = boundary_components(track)
        total = sum(len(c.walk) for c in comps)
        assert total == 2 * track.n_edges
        walked = [h for c in comps for h in c.walk]
        assert len(set(walked)) == total


def test_polygon_inner_component_cusps():
    for n in (2, 3, 4, 6):
        comps = boundary_components(polygon_track(n))
        inner = [c for c in comps if c.inner]
        assert len(inner) == 1
        assert inner[0].cusps == n


def test_single_loop_boundary():
    comps = boundary_components(single_loop_track())
    assert len(comps) == 2
    assert all(c.cusps == 0 for c in comps)
    assert boundary_components(TrainTrack([], [])) == ()


def test_radical_elements_satisfy_switch_conditions():
    for track in all_track_fixtures():
        for r in radical_elements(track):
            assert satisfies_switch_conditions(track, r)


def test_radical_element_odd_component_errors():
    track = polygon_track(3)
    inner = next(c for c in boundary_components(track) if c.inner)
    with pytest.raises(ValueError):
        radical_element(track, inner)


def test_radical_containment_all_fixtures():
    for track in all_track_fixtures():
        rep = radical_report(track)
        assert all(satisfies_switch_conditions(track, r) for r in radical_elements(track))
        assert rep.elements_in_radical


def test_bigon_radical_two_ways():
    track = bigon_track()
    dim, basis = radical(track)
    rep = radical_report(track)
    assert rep.dimension == dim == len(basis)
    # the bigon element: alternating signs on the two polygon edges
    els = radical_elements(track)
    assert els == [(-1, 1, 0, 0)]


def test_square_polygon_radical():
    track = polygon_track(4)
    els = radical_elements(track)
    inner = [r for r in els if sorted(r[:4]) == [-1, -1, 1, 1] and not any(r[4:])]
    assert inner, "the 4-gon inner component must contribute an alternating element"
    rep = radical_report(track)
    assert rep.elements_in_radical


def test_gram_antisymmetric_and_orientation_independent():
    for track in all_track_fixtures():
        gram = gram_form(track)
        assert gram.is_antisymmetric()
        if not track.vertices:
            continue
        # reversing every side order flips omega's sign; the radical dimension
        # is a basis-independent invariant and must not move
        flipped = TrainTrack(
            [(tuple(reversed(v.side_a)), tuple(reversed(v.side_b))) for v in track.vertices],
            [(e.ends, e.kind) for e in track.edges],
        )
        dim_a, _ = radical(track)
        dim_b, _ = radical(flipped)
        assert dim_a == dim_b
        ws = weight_space(track)
        for v in ws.basis[: min(2, ws.dim)]:
            for w in ws.basis[: min(2, ws.dim)]:
                assert thurston_form(track, v, w) == -thurston_form(flipped, v, w)


def test_chorded_square_weight_space():
    track = chorded_square_track()
    ws = weight_space(track)
    assert ws.dim == 2
    rep = radical_report(track)
    assert rep.elements_in_radical


def test_track_json_roundtrip():
    for track in all_track_fixtures():
        data = track_to_json(track)
        rebuilt = track_from_json(data)
        assert rebuilt == track
    with pytest.raises(InvalidTrackError):
        track_from_json({"vertices": [], "edges": [{"ends": [1], "kind": "real"}]})
    with pytest.raises(InvalidTrackError):
        track_from_json({})


def test_track_report_builds_one_gram_form(monkeypatch):
    calls = []
    original = stretchlab.traintrack.gram_form
    monkeypatch.setattr(
        stretchlab.traintrack, "gram_form", lambda *args: calls.append(args) or original(*args)
    )
    for track in all_track_fixtures() + [polygon_track(5)]:
        calls.clear()
        report = track_report(track)
        assert len(calls) == 1
        assert report["radical_dim"] == radical(track)[0]


def test_track_report_traces_the_boundary_once(monkeypatch):
    calls = []
    original = stretchlab.traintrack.boundary_components
    monkeypatch.setattr(
        stretchlab.traintrack,
        "boundary_components",
        lambda *args: calls.append(args) or original(*args),
    )
    track = polygon_track(9)
    report = track_report(track)
    assert len(calls) == 1
    assert report["boundary"] == [
        {"length": len(c.walk), "cusps": c.cusps, "inner": c.inner} for c in original(track)
    ]
    assert report["radical_elements"] == len(radical_elements(track))


def test_track_report_fields():
    report = track_report(bigon_track())
    assert report["standardly_embedded"] is True
    assert report["weight_space_dim"] == 2
    assert report["gram_antisymmetric"] is True
    assert report["radical_containment"] is True
    assert any(b["inner"] and b["cusps"] == 2 for b in report["boundary"])
