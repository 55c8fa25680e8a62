"""Curve graphs, clique polynomials, growth rates and shape detection."""

import random

import pytest

from stretchlab.curvegraph import (
    GrowthRateError,
    clique_polynomial,
    curve_graph,
    curve_graph_report,
    curve_graph_shape,
    growth_rate,
    simple_cycles,
    verify_clique_identity,
)
from stretchlab.errors import CapExceeded
from stretchlab.matrices import IntMatrix, is_primitive, spectral_radius
from stretchlab.poly import IntPolynomial

P = IntPolynomial

FIB = IntMatrix([[1, 1], [1, 0]])
REMARK = IntMatrix([[0, 0, 1, 1], [1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0]])


def test_simple_cycles_examples():
    cycles = simple_cycles(FIB)
    assert [(c.vertices, c.weight) for c in cycles] == [((0,), 1), ((0, 1), 2)]
    doubled = simple_cycles(IntMatrix([[2]]))
    assert len(doubled) == 2
    assert {c.edge_choices for c in doubled} == {(0,), (1,)}
    assert simple_cycles(IntMatrix([[0, 0], [0, 0]])) == []


def test_simple_cycles_parallel_expansion():
    cycles = simple_cycles(IntMatrix([[0, 2], [3, 0]]))
    # one class of weight 2 with 2 * 3 = 6 parallel curves
    assert len(cycles) == 6
    assert all(c.vertices == (0, 1) for c in cycles)
    assert len({c.edge_choices for c in cycles}) == 6


def test_cycle_cap_guard():
    with pytest.raises(CapExceeded):
        simple_cycles(IntMatrix([[3] * 4] * 4), cap=10)


def test_clique_polynomial_examples():
    assert clique_polynomial(curve_graph(FIB)) == P((1, -1, -1))
    assert clique_polynomial(curve_graph(IntMatrix([[1, 0], [0, 1]]))) == P((1, -2, 1))
    assert clique_polynomial(curve_graph(REMARK)) == P((1, 0, -1, -2, -1))


def test_clique_identity_examples():
    assert verify_clique_identity(FIB)
    for bits in range(16):
        rows = [[(bits >> (2 * i + j)) & 1 for j in range(2)] for i in range(2)]
        assert verify_clique_identity(IntMatrix(rows))
    assert verify_clique_identity(REMARK)


def test_clique_identity_exhaustive_n3():
    for bits in range(2**9):
        rows = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        assert verify_clique_identity(IntMatrix(rows))


def test_clique_identity_random_sample():
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
        assert verify_clique_identity(m)


def test_clique_guard():
    g = curve_graph(IntMatrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]]))
    with pytest.raises(CapExceeded):
        clique_polynomial(g, guard=2)


def test_growth_rate_examples():
    assert abs(float(growth_rate(curve_graph(FIB))) - 1.618033988749895) < 1e-9
    assert abs(float(growth_rate(curve_graph(IntMatrix([[2]])))) - 2.0) < 1e-12
    assert abs(float(growth_rate(curve_graph(REMARK))) - 1.618033988749895) < 1e-9


def test_growth_rate_errors():
    with pytest.raises(GrowthRateError):
        growth_rate(curve_graph(IntMatrix([[0]])))  # no cycles at all
    with pytest.raises(GrowthRateError):
        growth_rate(curve_graph(IntMatrix([[1]])))  # growth exactly 1


def test_growth_rate_intersects_spectral_radius():
    rng = random.Random(83)
    found = 0
    while found < 25:
        n = rng.randint(2, 4)
        m = IntMatrix([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
        if not is_primitive(m).primitive:
            continue
        rho = spectral_radius(m)
        gr = growth_rate(curve_graph(m))
        assert max(rho.lo, gr.lo) <= min(rho.hi, gr.hi), m.rows
        found += 1


def test_shape_detection():
    assert curve_graph_shape(curve_graph(FIB)).kind == "nA1"
    assert curve_graph_shape(curve_graph(FIB)).weights == (1, 2)
    shape = curve_graph_shape(curve_graph(REMARK))
    assert shape.kind == "nA1" and shape.weights == (2, 3, 3, 4)
    # three disjoint loops form a triangle, not 3A1
    assert curve_graph_shape(curve_graph(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))).kind == "other"


def test_astar2_shape():
    # loops at both vertices of a 2-cycle: the two loops are disjoint,
    # each meets the 2-cycle, giving A*2 with weights (1, 1, 2)
    g = curve_graph(IntMatrix([[1, 1], [1, 1]]))
    shape = curve_graph_shape(g)
    assert shape.kind == "A*2" and shape.weights == (1, 1, 2)
    q = clique_polynomial(g)
    # Q = 1 - t^a - t^b - t^c + t^(a+b)
    assert q == P((1, -2)) and verify_clique_identity(IntMatrix([[1, 1], [1, 1]]))


def test_shape_q_form_consistency():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
        g = curve_graph(m)
        shape = curve_graph_shape(g)
        q = clique_polynomial(g)
        if shape.kind == "nA1":
            # no positive non-constant terms; one negative monomial per weight value
            assert all(c <= 0 for c in q.coeffs[1:])
            assert sum(-c for c in q.coeffs[1:]) == len(g.cycles)
        elif shape.kind == "A*2":
            a, b, c = shape.weights
            expected = [0] * (max(c, a + b) + 1)
            expected[0] = 1
            expected[a] -= 1
            expected[b] -= 1
            expected[c] -= 1
            expected[a + b] += 1
            assert q == P(expected)


def test_negative_matrix_rejected():
    with pytest.raises(ValueError):
        simple_cycles(IntMatrix([[-1]]))
    with pytest.raises(ValueError):
        verify_clique_identity(IntMatrix([[-1]]))


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 1], [1, 0]],
        [[0, 0, 1, 1], [1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0]],
        [[0, 2, 0], [0, 0, 3], [1, 0, 1]],
        [[0]],  # no cycles, no growth rate
    ],
)
def test_curve_graph_report_computes_each_quantity_once(rows, monkeypatch):
    from stretchlab import _kernels, curvegraph

    m = IntMatrix(rows)
    identity = verify_clique_identity(m)
    patched = (
        (curvegraph, "cycle_classes"),
        (curvegraph, "_clique_coefficients"),
        (_kernels, "charpoly"),
    )
    calls = {name: 0 for _, name in patched}
    for module, name in patched:
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    report = curve_graph_report(m)
    assert calls == {"cycle_classes": 1, "_clique_coefficients": 1, "charpoly": 1}
    assert report["identity_ok"] is identity is True
