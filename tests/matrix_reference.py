"""References for ``stretchlab.matrices``: the signed-matrix gate and primitivity.

``symmetric_square`` is the matrix route to the gate's polynomial: the
symmetric square Sym^2 A on the basis e_i e_j (i <= j), whose eigenvalues
are the pairwise products a_i a_j (i <= j) of the eigenvalues of A.  Its
char poly is the polynomial ``spectral_radius`` builds from the power sums
of chi(A), at the cost of an n(n+1)/2-square matrix.

``wielandt_positive`` is the power test for primitivity, independent of the
graph criterion ``is_primitive`` uses: boolean powers of the zero pattern,
as tuples of rows.  ``matmul`` multiplies such tuples exactly.

``pairwise_edges`` lists the edges of a curve graph by definition, one
vertex-set test per pair of curves, where ``CurveGraph.edges`` reads them
off pairs of cycle classes.

``round_by_round_power`` is the refinement loop ``normalized_spectral_radius``
jumps through: shrink the enclosure 256-fold and re-power it, one round at
a time, until the power is narrow enough.
"""

from __future__ import annotations

from fractions import Fraction

from stretchlab.curvegraph import CurveGraph
from stretchlab.matrices import IntMatrix
from stretchlab.roots import RootEnclosure, ValueInterval


def symmetric_square(a: IntMatrix) -> IntMatrix:
    """Sym^2 A on the basis e_i e_j (i <= j); its eigenvalues are a_i a_j for i <= j."""
    r = a.rows
    pairs = [(i, j) for i in range(a.n) for j in range(i, a.n)]
    return IntMatrix(
        [r[k][i] * r[l][j] + (r[l][i] * r[k][j] if k != l else 0) for i, j in pairs]
        for k, l in pairs
    )


def matmul(a, b) -> tuple[tuple[int, ...], ...]:
    """The product of two square integer matrices given as rows."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def wielandt_positive(a: IntMatrix) -> bool:
    """A^((n-1)^2 + 1) > 0, the classic primitivity oracle (nonnegative A)."""
    if not a.is_nonnegative():
        return False
    pattern = tuple(tuple(int(e > 0) for e in row) for row in a.rows)
    power = pattern
    for _ in range((a.n - 1) ** 2):
        power = tuple(tuple(int(e > 0) for e in row) for row in matmul(power, pattern))
    return all(map(all, power))


def pairwise_edges(g: CurveGraph) -> list[tuple[int, int]]:
    """Every pair i < j of curves with disjoint vertex sets."""
    sets = [frozenset(c.vertices) for c in g.cycles]
    return [
        (i, j)
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
        if not sets[i] & sets[j]
    ]


def round_by_round_power(n: int, enclosure: RootEnclosure, tol: Fraction) -> ValueInterval:
    """x^n over the enclosure of x, refined one 256-fold round at a time to width <= tol."""
    powered = enclosure.powered(n)
    while powered.width > tol:
        enclosure = enclosure.refined(enclosure.width / 256)
        powered = enclosure.powered(n)
    return powered
