"""The kernels and what calls them: caps, the search filter, digraph structure,
the characteristic polynomial and the fraction-free echelon form."""

import random
from itertools import product

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from matrix_reference import wielandt_positive
from search_reference import primitive_unit_det_charpoly

from stretchlab import _kernels, curvegraph
from stretchlab._kernels import BACKEND
from stretchlab.curvegraph import _clique_coefficients, cycle_classes
from stretchlab.errors import CapExceeded
from stretchlab.matrices import IntMatrix, determinant
from stretchlab.sharpness import build_matrix, expected_char_poly
from stretchlab.traintrack import _kernel


def test_caps_raise(monkeypatch):
    a = IntMatrix([[3] * 4 for _ in range(4)])
    monkeypatch.setattr(curvegraph, "DEFAULT_CYCLE_CAP", 5)
    with pytest.raises(CapExceeded):
        cycle_classes(a)
    monkeypatch.setattr(curvegraph, "DEFAULT_CYCLE_CAP", 10**6)
    classes = cycle_classes(a)
    monkeypatch.setattr(curvegraph, "DEFAULT_CLIQUE_GUARD", 3)
    with pytest.raises(CapExceeded):
        _clique_coefficients(classes, 4)


def test_star_import_exports_exactly_the_shared_kernels():
    # the benchmark's tracer calls getattr on every name in __all__, and its
    # start-up probe reads BACKEND
    namespace = {}
    exec("from stretchlab._kernels import *", namespace)
    del namespace["__builtins__"]
    assert sorted(_kernels.__all__) == [
        "BACKEND",
        "adjugate_rows",
        "bordered_charpoly",
        "charpoly",
        "determinant",
        "digraph_structure",
        "echelon",
    ]
    assert sorted(namespace) == sorted(_kernels.__all__)


def _scan_keeps(rows) -> bool:
    """The search filter, from the definitions: primitive and |det| = 1."""
    no_zero_line = all(any(row) for row in rows) and all(any(col) for col in zip(*rows))
    primitive = no_zero_line and _kernels.digraph_structure(rows) == (True, 1)
    assert primitive == wielandt_positive(IntMatrix(rows)), rows
    return primitive and abs(determinant(IntMatrix(rows))) == 1


def _filter_keeps(rows) -> bool:
    chi = primitive_unit_det_charpoly(rows)
    assert chi is None or chi == _kernels.charpoly(rows), rows
    return chi is not None


def test_pure_scan_filter_on_full_small_spaces():
    for n, max_entry in ((1, 1), (2, 1), (3, 1), (2, 2)):
        flat = product(range(max_entry + 1), repeat=n * n)
        matrices = [[cells[r * n : (r + 1) * n] for r in range(n)] for cells in flat]
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
    # the benchmark's start-up probe reads it
    assert BACKEND == "pure"


def _old_is_upper_hessenberg(rows, n):
    """The all-pairs definition the slice test replaced."""
    return all(rows[i][j] == 0 for i in range(2, n) for j in range(i - 1))


def test_slice_hessenberg_test_matches_all_pairs_definition():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(0, 8)
        # mostly zero below the subdiagonal, so both answers occur often
        rows = [
            [rng.randint(-3, 3) if j >= i - 1 or rng.random() < 0.04 else 0 for j in range(n)]
            for i in range(n)
        ]
        assert _kernels._is_upper_hessenberg(rows, n) == _old_is_upper_hessenberg(rows, n), rows


def _random_upper_hessenberg(rng, n):
    def entry():
        kind = rng.random()
        if kind < 0.5:
            return 0
        if kind < 0.9:
            return rng.randint(-5, 5)
        return rng.choice((-1, 1)) * rng.randint(2**40, 2**70)

    rows = [[entry() if j >= i else 0 for j in range(n)] for i in range(n)]
    for i in range(1, n):
        # a zero subdiagonal entry cuts the recurrence; make it common
        rows[i][i - 1] = 0 if rng.random() < 0.3 else entry()
    return rows


def test_nonzero_only_hessenberg_recurrence_matches_bordering():
    rng = random.Random(12)
    for n in range(1, 13):
        for _ in range(25):
            rows = _random_upper_hessenberg(rng, n)
            expected = _kernels._charpoly_bordered(rows, n)
            assert _kernels._charpoly_hessenberg(rows, n) == expected, rows
            assert _kernels.charpoly(rows) == expected, rows
            # the transpose is lower Hessenberg, with the same char poly
            transposed = [list(col) for col in zip(*rows)]
            assert _kernels.charpoly(transposed) == expected, rows
            assert _kernels._charpoly_bordered(transposed, n) == expected, rows


@st.composite
def general_matrices(draw):
    """n x n for n = 1..6, neither shape Hessenberg for n >= 3, with entries
    up to 2^70 in size and zero and repeated rows mixed in."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-4, 4), st.integers(-(2**70), 2**70))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 3:
        # a nonzero corner below and above the subdiagonal band
        rows[n - 1][0] = draw(st.integers(1, 2**70))
        rows[0][n - 1] = draw(st.integers(1, 2**70))
    if n >= 2:
        kind = draw(st.sampled_from(["any", "zero row", "repeated row"]))
        i = draw(st.integers(1, max(1, n - 2)))  # the corner rows stay
        if kind == "zero row":
            rows[i] = [0] * n
        elif kind == "repeated row":
            rows[i] = list(rows[i - 1])
    return rows


@settings(max_examples=120, deadline=None)
@given(general_matrices())
def test_general_charpoly_matches_sympy_with_large_entries(rows):
    n = len(rows)
    if n >= 3:
        assert not _kernels._is_upper_hessenberg(rows, n)
        assert not _kernels._is_upper_hessenberg(list(zip(*rows)), n)
    chi = _kernels.charpoly(rows)
    assert chi == _kernels._charpoly_bordered(rows, n)
    theirs = sympy.Matrix(rows).charpoly().all_coeffs()
    assert list(chi) == [int(c) for c in reversed(theirs)]


def test_charpoly_of_the_sharpness_family():
    for k in range(2, 61):
        assert _kernels.charpoly(build_matrix(k).rows) == expected_char_poly(k).coeffs, k


# -- the fraction-free echelon form against sympy ---------------------------


@st.composite
def integer_matrices(draw, square: bool = False):
    """Small integer matrices, also empty ones, with zero rows and columns
    and repeated rows mixed in: (rows, column count)."""
    n_rows = draw(st.integers(0, 6))
    n_cols = n_rows if square else draw(st.integers(0, 6))
    entries = st.integers(-4, 4)
    rows = [[draw(entries) for _ in range(n_cols)] for _ in range(n_rows)]
    for _ in range(draw(st.integers(0, 2)) if n_rows else 0):
        i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_rows - 1))
        how = draw(st.sampled_from(["repeat", "zero row", "zero column"]))
        if how == "repeat":
            rows[i] = list(rows[j])
        elif how == "zero row":
            rows[i] = [0] * n_cols
        elif n_cols:
            c = draw(st.integers(0, n_cols - 1))
            for row in rows:
                row[c] = 0
    return rows, n_cols


def _sympy(rows, n_cols):
    return sympy.Matrix(len(rows), n_cols, [x for row in rows for x in row])


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
@example(([], 0))
@example(([], 3))
@example(([[], []], 0))
@example(([[0, 0, 0], [0, 0, 0]], 3))
@example(([[1, 2, 3], [2, 4, 6], [1, 2, 3]], 3))
def test_echelon_matches_sympy(matrix):
    rows, n_cols = matrix
    m, pivots, sign = _kernels.echelon(rows)
    reference = _sympy(rows, n_cols)
    assert len(pivots) == reference.rank()
    assert tuple(pivots) == reference.rref()[1]
    assert sign in (1, -1)
    for k, row in enumerate(m):
        lead = pivots[k] if k < len(pivots) else n_cols
        assert not any(row[:lead]) and (k >= len(pivots) or row[lead])
    # the row space is unchanged
    assert _sympy(rows + m, n_cols).rank() == len(pivots)


@settings(max_examples=300, deadline=None)
@given(integer_matrices(square=True))
@example(([], 0))
@example(([[0, 0], [0, 0]], 2))
@example(([[0, 1], [1, 0]], 2))
@example(([[1, 2], [2, 4]], 2))
def test_determinant_matches_sympy(matrix):
    rows, n = matrix
    assert _kernels.determinant(rows) == _sympy(rows, n).det()


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
@example(([], 0))
@example(([], 3))
@example(([[], []], 0))
@example(([[0, 0, 0]], 3))
@example(([[2, 4, 6], [1, 2, 3]], 3))
def test_traintrack_kernel_is_an_integer_basis_of_the_sympy_nullspace(matrix):
    rows, n_cols = matrix
    reference = _sympy(rows, n_cols)
    basis = _kernel(rows, n_cols)
    assert len(basis) == n_cols - reference.rank() == len(reference.nullspace())
    for v in basis:
        assert len(v) == n_cols and all(type(x) is int for x in v)
        assert reference * sympy.Matrix(v) == sympy.zeros(len(rows), 1)
    assert _sympy(list(basis), n_cols).rank() == len(basis)
