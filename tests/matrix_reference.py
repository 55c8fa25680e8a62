"""References for ``stretchlab.matrices``: the signed-matrix gate and primitivity.

``symmetric_square`` is the matrix route to the gate's polynomial: the
symmetric square Sym^2 A on the basis e_i e_j (i <= j), whose eigenvalues
are the pairwise products a_i a_j (i <= j) of the eigenvalues of A.  Its
char poly is the polynomial ``spectral_radius`` builds from the power sums
of chi(A), at the cost of an n(n+1)/2-square matrix.

``wielandt_positive`` is the power test for primitivity, independent of the
graph criterion ``is_primitive`` uses.
"""

from __future__ import annotations

from stretchlab.matrices import IntMatrix


def symmetric_square(a: IntMatrix) -> IntMatrix:
    """Sym^2 A on the basis e_i e_j (i <= j); its eigenvalues are a_i a_j for i <= j."""
    r = a.rows
    pairs = [(i, j) for i in range(a.n) for j in range(i, a.n)]
    return IntMatrix(
        [r[k][i] * r[l][j] + (r[l][i] * r[k][j] if k != l else 0) for i, j in pairs]
        for k, l in pairs
    )


def wielandt_positive(a: IntMatrix) -> bool:
    """A^((n-1)^2 + 1) > 0, the classic primitivity oracle (nonnegative A)."""
    if not a.is_nonnegative():
        return False
    return a.power((a.n - 1) ** 2 + 1).is_positive()
