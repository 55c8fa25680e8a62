"""Reference for the signed-matrix gate of ``stretchlab.matrices``.

``symmetric_square`` is the matrix route to the gate's polynomial: the
symmetric square Sym^2 A on the basis e_i e_j (i <= j), whose eigenvalues
are the pairwise products a_i a_j (i <= j) of the eigenvalues of A.  Its
char poly is the polynomial ``spectral_radius`` builds from the power sums
of chi(A), at the cost of an n(n+1)/2-square matrix.
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
