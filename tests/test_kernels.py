"""Differential tests: the compiled kernels must match the pure twin exactly."""

import random

import pytest

from stretchlab._kernels import BACKEND, CapExceeded, _pure
from stretchlab.matrices import IntMatrix, wielandt_positive

try:
    from stretchlab._kernels import _speedups
except ImportError:  # pragma: no cover - extension failed to build
    _speedups = None

needs_compiled = pytest.mark.skipif(
    _speedups is None, reason="compiled kernels unavailable"
)


def _random_rows(rng, n, lo, hi):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


@needs_compiled
def test_charpoly_and_det_agree():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = _random_rows(rng, n, -9, 9)
        assert _speedups.charpoly(rows) == _pure.charpoly(rows)
        assert _speedups.determinant(rows) == _pure.determinant(rows)


@needs_compiled
def test_charpoly_big_entries_fall_back_correctly():
    rng = random.Random(3)
    rows = _random_rows(rng, 4, -10**12, 10**12)
    assert _speedups.charpoly(rows) == _pure.charpoly(rows)
    assert _speedups.determinant(rows) == _pure.determinant(rows)


@needs_compiled
def test_cycles_and_cliques_agree():
    rng = random.Random(202)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = _random_rows(rng, n, 0, 3)
        a = _speedups.simple_cycle_classes(rows, 10**5)
        b = _pure.simple_cycle_classes(rows, 10**5)
        assert a == b
        qa = _speedups.clique_polynomial_from_classes(a, n, 10**6)
        qb = _pure.clique_polynomial_from_classes(b, n, 10**6)
        assert qa == qb
        assert _speedups.clique_identity_holds(rows, 10**5, 10**6) == \
            _pure.clique_identity_holds(rows, 10**5, 10**6)


@needs_compiled
def test_caps_raise_in_both_backends():
    rows = [[3] * 4 for _ in range(4)]
    for impl in (_speedups, _pure):
        with pytest.raises(CapExceeded):
            impl.simple_cycle_classes(rows, 5)
        classes = impl.simple_cycle_classes(rows, 10**6)
        with pytest.raises(CapExceeded):
            impl.clique_polynomial_from_classes(classes, 4, 3)


@needs_compiled
def test_scan_agrees_on_full_small_spaces():
    for n, max_entry in ((2, 1), (2, 2), (3, 1)):
        total = (max_entry + 1) ** (n * n)
        fast = _speedups.scan_primitive_unit_det(n, max_entry, 0, total, True)
        slow = _pure.scan_primitive_unit_det(n, max_entry, 0, total, True)
        assert fast == slow
        fast_all = _speedups.scan_primitive_unit_det(n, max_entry, 0, total, False)
        slow_all = _pure.scan_primitive_unit_det(n, max_entry, 0, total, False)
        assert fast_all == slow_all


def test_decode_matrix_is_lexicographic():
    base = 3
    n = 2
    decoded = [
        tuple(e for row in _pure.decode_matrix(i, n, base) for e in row)
        for i in range(base ** (n * n))
    ]
    assert decoded == sorted(decoded)
    assert len(set(decoded)) == len(decoded)


def _scan_keeps(rows) -> bool:
    """The scan's filter without the determinant: no zero line, primitive."""
    no_zero_line = all(any(row) for row in rows) and all(any(col) for col in zip(*rows))
    primitive = no_zero_line and _pure.digraph_structure(rows) == (True, 1)
    assert primitive == wielandt_positive(IntMatrix(rows)), rows
    return primitive


def test_pure_scan_filter_on_full_small_spaces():
    for n, max_entry in ((1, 1), (2, 1), (3, 1), (2, 2)):
        base = max_entry + 1
        total = base ** (n * n)
        expected = [i for i in range(total) if _scan_keeps(_pure.decode_matrix(i, n, base))]
        assert expected
        assert _pure.scan_primitive_unit_det(n, max_entry, 0, total, False) == expected


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
        assert _pure.decode_matrix(index, n, max_entry + 1) == rows
        keep = _scan_keeps(rows)
        kept += keep
        scanned = _pure.scan_primitive_unit_det(n, max_entry, index, index + 1, False)
        assert scanned == ([index] if keep else []), rows
    assert 0 < kept < 300


def test_digraph_structure_known_values():
    assert _pure.digraph_structure([[0, 1], [1, 0]]) == (True, 2)
    assert _pure.digraph_structure([[1, 1], [1, 0]]) == (True, 1)
    assert _pure.digraph_structure([[0, 1], [0, 0]]) == (False, 0)
    assert _pure.digraph_structure([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == (True, 3)
    # two disjoint loops: not strongly connected, but cycles of gcd 1
    assert _pure.digraph_structure([[1, 0], [0, 1]]) == (False, 1)


def test_backend_label():
    assert BACKEND in ("compiled", "pure")
