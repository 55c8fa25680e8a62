"""Fuzz the certified machinery against independent library oracles."""

import math
import random

import networkx as nx
import sympy

from conftest import random_polynomial
from stretchlab import _kernels
from stretchlab.poly import IntPolynomial
from stretchlab.roots import real_roots_in_interval, unit_circle_root_count
from stretchlab.sharpness import build_matrix

P = IntPolynomial

LEHMER = P((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))


def test_sturm_counts_match_sympy():
    rng = random.Random(61)
    x = sympy.Symbol("x")
    for _ in range(60):
        p = random_polynomial(rng, max_degree=7)
        if p.degree() < 1:
            continue
        expr = sum(c * x**i for i, c in enumerate(p.coeffs))
        a, b = sorted(rng.sample(range(-8, 9), 2))
        ours = real_roots_in_interval(p, a, b)
        theirs = len(
            [r for r in sympy.real_roots(expr) if a < r <= b]
        )
        assert ours == theirs, (p, a, b)


def test_unit_circle_count_with_non_reciprocal_cofactor():
    # Salem polynomial times t - 2: the eight circle roots must survive
    p = LEHMER * P((-2, 1))
    assert unit_circle_root_count(p) == 8
    # and times a cyclotomic: two more
    from stretchlab.poly import cyclotomic

    q = LEHMER * cyclotomic(4) * P((-2, 1))
    assert unit_circle_root_count(q) == 10


def test_digraph_structure_against_networkx():
    rng = random.Random(77)
    cases = []
    for _ in range(150):
        n = rng.randint(1, 6)
        cases.append([[int(rng.random() < 0.4) for _ in range(n)] for _ in range(n)])
    cases += [build_matrix(k).rows for k in range(2, 9)]
    for rows in cases:
        n = len(rows)
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        for i in range(n):
            for j in range(n):
                if rows[i][j]:
                    g.add_edge(i, j)
        sc, period = _kernels.digraph_structure(rows)
        assert sc == nx.is_strongly_connected(g)
        cycle_gcd = 0
        for cycle in nx.simple_cycles(g):
            cycle_gcd = math.gcd(cycle_gcd, len(cycle))
        assert period == cycle_gcd, rows


def test_charpoly_hessenberg_shapes_match_bordering():
    rng = random.Random(88)
    for _ in range(60):
        n = rng.randint(2, 7)
        rows = [
            [rng.randint(-4, 4) if j >= i - 1 else 0 for j in range(n)]
            for i in range(n)
        ]
        hess = _kernels._charpoly_hessenberg(rows, n)
        assert hess == _kernels._charpoly_bordered(rows, n)
        theirs = sympy.Matrix(rows).charpoly()
        assert list(hess) == [int(c) for c in reversed(theirs.all_coeffs())]


def test_mixed_period_components():
    # two disjoint cycles of lengths 2 and 3: not strongly connected, but the
    # cycle-length gcd over the whole digraph is 1
    rows = [
        [0, 1, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 1, 0, 0],
    ]
    assert _kernels.digraph_structure(rows) == (False, 1)
