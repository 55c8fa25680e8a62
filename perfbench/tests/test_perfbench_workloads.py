"""Seeded generators, and the metric list against BENCHMARK.json."""

import json
import math
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def _inputs(ops):
    return [(op.kind, op.argv, op.files) for op in ops]


def test_same_seed_same_inputs():
    assert _inputs(workloads.build("witness", 7)) == _inputs(workloads.build("witness", 7))
    assert _inputs(workloads.build("witness", 7)) != _inputs(workloads.build("witness", 8))


def test_witness_pass_is_balanced():
    kinds = [op.kind for op in workloads.build("witness", 3)]
    assert kinds.count("classify") == len(workloads.CLASSIFY_DEGREES)
    assert kinds.count("matrix") == kinds.count("curve-graph") == 2 * len(workloads.MATRIX_SIZES)
    sizes = sorted(op.data["size"] for op in workloads.build("witness", 3) if op.kind == "traintrack")
    assert sizes == list(workloads.TRACK_SIZES)


@pytest.mark.parametrize("n", [4, 9, 10, 12, 25])
def test_polygon_track_half_edges_are_distinct(n):
    track = workloads.polygon_track(random.Random(n), n)
    from_edges = [h for e in track["edges"] for h in e["ends"]]
    from_sides = [h for v in track["vertices"] for h in v["sideA"] + v["sideB"]]
    assert len(set(from_edges)) == len(from_edges) == 4 * n
    assert sorted(from_sides) == sorted(from_edges)


@pytest.mark.parametrize("seed", range(6))
def test_sparse_matrices_have_the_requested_primitivity(seed):
    rng = random.Random(seed)
    for n in workloads.MATRIX_SIZES:
        for primitive in (True, False):
            rows = workloads.sparse_matrix(rng, n, primitive)
            period = 0
            for cycle in verify.simple_cycles(rows):
                period = math.gcd(period, len(cycle))
            assert (period == 1) == primitive


def test_random_polynomial_degree_and_cyclotomic_factor():
    rng = random.Random(1)
    for deg in workloads.CLASSIFY_DEGREES:
        plain = workloads.random_polynomial(rng, deg, with_cyclotomic=False)
        assert len(plain) == deg + 1 and plain[-1] != 0
        mixed = workloads.random_polynomial(rng, deg, with_cyclotomic=True)
        assert len(mixed) == deg + 1
    assert verify.cyclotomic(12) == [1, 0, -1, 0, 1]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
