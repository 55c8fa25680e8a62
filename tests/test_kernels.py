"""The hot kernels: caps, decoding, the search filter and digraph structure."""

import random

import pytest

from stretchlab import _kernels
from stretchlab._kernels import BACKEND, CapExceeded
from stretchlab.matrices import IntMatrix, determinant, wielandt_positive


def test_caps_raise():
    rows = [[3] * 4 for _ in range(4)]
    with pytest.raises(CapExceeded):
        _kernels.simple_cycle_classes(rows, 5)
    classes = _kernels.simple_cycle_classes(rows, 10**6)
    with pytest.raises(CapExceeded):
        _kernels.clique_polynomial_from_classes(classes, 4, 3)


def test_decode_matrix_is_lexicographic():
    base = 3
    n = 2
    decoded = [
        tuple(e for row in _kernels.decode_matrix(i, n, base) for e in row)
        for i in range(base ** (n * n))
    ]
    assert decoded == sorted(decoded)
    assert len(set(decoded)) == len(decoded)


def _scan_keeps(rows) -> bool:
    """The search filter, from the definitions: primitive and |det| = 1."""
    no_zero_line = all(any(row) for row in rows) and all(any(col) for col in zip(*rows))
    primitive = no_zero_line and _kernels.digraph_structure(rows) == (True, 1)
    assert primitive == wielandt_positive(IntMatrix(rows)), rows
    return primitive and abs(determinant(IntMatrix(rows))) == 1


def _filter_keeps(rows) -> bool:
    chi = _kernels.primitive_unit_det_charpoly(rows)
    assert chi is None or chi == _kernels.charpoly(rows), rows
    return chi is not None


def test_pure_scan_filter_on_full_small_spaces():
    for n, max_entry in ((1, 1), (2, 1), (3, 1), (2, 2)):
        base = max_entry + 1
        total = base ** (n * n)
        matrices = [_kernels.decode_matrix(i, n, base) for i in range(total)]
        expected = [i for i, rows in enumerate(matrices) if _scan_keeps(rows)]
        assert expected
        assert [i for i, rows in enumerate(matrices) if _filter_keeps(rows)] == expected


def test_pure_scan_filter_on_random_matrices():
    rng = random.Random(404)
    kept = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        max_entry = rng.randint(1, 2)
        density = rng.uniform(0.1, 0.6)
        rows = [
            [rng.randint(1, max_entry) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)
        ]
        index = 0
        for entry in (e for row in rows for e in row):
            index = index * (max_entry + 1) + entry
        assert _kernels.decode_matrix(index, n, max_entry + 1) == rows
        keep = _scan_keeps(rows)
        kept += keep
        assert _filter_keeps(rows) == keep, rows
    assert 0 < kept < 300


def test_digraph_structure_known_values():
    assert _kernels.digraph_structure([[0, 1], [1, 0]]) == (True, 2)
    assert _kernels.digraph_structure([[1, 1], [1, 0]]) == (True, 1)
    assert _kernels.digraph_structure([[0, 1], [0, 0]]) == (False, 0)
    assert _kernels.digraph_structure([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == (True, 3)
    # two disjoint loops: not strongly connected, but cycles of gcd 1
    assert _kernels.digraph_structure([[1, 0], [0, 1]]) == (False, 1)


def test_backend_label():
    # the benchmark's start-up probe and `--version` read it
    assert BACKEND == "pure"
