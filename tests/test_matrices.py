"""Integer-matrix operations against spec examples and independent oracles."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy

from matrix_reference import matmul, round_by_round_power, symmetric_square, wielandt_positive
from stretchlab import matrices
from stretchlab.matrices import (
    IntMatrix,
    PerronPreconditionError,
    char_poly,
    companion,
    determinant,
    in_glnz,
    is_primitive,
    matrix_from_json,
    matrix_to_json,
    normalized_spectral_radius,
    spectral_radius,
    verify_block_structure,
)
from stretchlab.poly import IntPolynomial
from stretchlab.roots import DEFAULT_TOL, NoRealRootError, largest_real_root

P = IntPolynomial

FIB = IntMatrix([[1, 1], [1, 0]])
REMARK = IntMatrix([[0, 0, 1, 1], [1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0]])


def test_entries_are_integers_not_truncated_floats():
    assert IntMatrix([[np.int64(1), 0], [0, True]]).rows == ((1, 0), (0, 1))
    assert all(type(e) is int for row in IntMatrix([[np.int8(3), True]] * 2).rows for e in row)
    for bad in ([[1.7, 0], [0, True]], [[1, 0], [0, 1.0]]):
        with pytest.raises(TypeError):
            IntMatrix(bad)


def test_char_poly_examples():
    assert char_poly(FIB) == P((-1, -1, 1))
    assert char_poly(REMARK) == P((-1, -2, -1, 0, 1))
    assert char_poly(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == P((-1, 1)) ** 3


def test_char_poly_against_sympy():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        ours = char_poly(IntMatrix(rows))
        theirs = sympy.Matrix(rows).charpoly()
        assert list(ours.coeffs) == [int(c) for c in reversed(theirs.all_coeffs())]


def test_primitivity_examples():
    assert is_primitive(FIB).primitive
    rep = is_primitive(IntMatrix([[0, 1], [1, 0]]))
    assert not rep.primitive and rep.period == 2 and rep.strongly_connected
    assert is_primitive(REMARK).primitive
    assert not is_primitive(IntMatrix([[1, -1], [1, 1]])).nonnegative
    assert not is_primitive(IntMatrix([[1, -1], [1, 1]])).primitive


def test_remark_matrix_wielandt_power():
    # boolean powers turn positive at exponent <= (4-1)^2 + 1
    assert wielandt_positive(REMARK)
    power = REMARK.rows
    for _ in range(9):
        power = matmul(power, REMARK.rows)
    assert all(e > 0 for row in power for e in row)  # REMARK^10


def test_primitivity_equals_wielandt_exhaustive():
    for n in (1, 2, 3):
        for bits in range(2 ** (n * n)):
            rows = [[(bits >> (n * i + j)) & 1 for j in range(n)] for i in range(n)]
            m = IntMatrix(rows)
            assert is_primitive(m).primitive == wielandt_positive(m), rows


def test_spectral_radius_examples():
    mu2 = normalized_spectral_radius(FIB)
    assert abs(float(mu2) - 2.618033988749895) < 1e-9
    mu4 = normalized_spectral_radius(REMARK)
    assert abs(float(mu4) - 6.854101966249685) < 1e-9
    comp = companion(P((-1, -2, 0, 1)))
    mu3 = normalized_spectral_radius(comp)
    assert abs(float(mu3) - 4.23606797749979) < 1e-9


def jump_fixtures() -> list[list[list[int]]]:
    """Seeded nonnegative and signed matrices, integer-lambda ones, and a 10^300 entry."""
    rng = random.Random(44)
    nonnegative = [
        [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        for n in (rng.randint(1, 5) for _ in range(24))
    ]
    signed = [
        [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        for n in (rng.randint(2, 4) for _ in range(12))
    ]
    integer_lambda = [
        [[k * (i == j) for j in range(n)] for i in range(n)] for k in (1, 2, 7) for n in (1, 4, 5)
    ] + [
        # companions of t^(n-1) (t - k): lambda = k, a dyadic bisection point of (0, bound]
        [[k] + [0] * (n - 1)] + [[int(j == i - 1) for j in range(n)] for i in range(1, n)]
        for k in (3, 7)
        for n in (3, 4, 5)
    ]
    return nonnegative + signed + integer_lambda + [[[10**300, 1, 0], [0, 0, 1], [1, 0, 0]]]


@pytest.mark.parametrize(
    "tol",
    [DEFAULT_TOL, Fraction(1, 3), Fraction(1, 1000), Fraction(16)],
    ids=["2^-40", "1/3", "1/1000", "16"],
)
def test_jumped_rounds_match_the_round_by_round_loop(tol):
    checked = 0
    for rows in jump_fixtures():
        m = IntMatrix(rows)
        try:
            rho = spectral_radius(m, tol)
        except PerronPreconditionError:
            continue
        assert normalized_spectral_radius(m, tol, rho) == round_by_round_power(m.n, rho, tol), rows
        checked += 1
    assert checked >= 40


def test_perron_dominance_numeric_cross_check():
    for m in (FIB, REMARK, companion(P((-1, -2, 0, 1))), companion(P((-1, -1, 0, -1, 1)))):
        if not is_primitive(m).primitive:
            continue
        rho = spectral_radius(m)
        eigs = np.linalg.eigvals(np.array(m.rows, dtype=float))
        assert max(abs(eigs)) <= float(rho.hi) + 1e-9


def test_spectral_radius_perron_errors():
    with pytest.raises(PerronPreconditionError):
        spectral_radius(IntMatrix([[0, -1], [1, 0]]))  # no real eigenvalue
    with pytest.raises(PerronPreconditionError):
        # real eigenvalues 1, -1, but a complex pair of modulus 2
        spectral_radius(IntMatrix([[1, 0, 0], [0, 0, -4], [0, 1, 0]]))


def test_exact_gate_runs_only_for_signed_matrices(monkeypatch):
    sums = matrices.power_sums
    gated = []
    monkeypatch.setattr(matrices, "power_sums", lambda p, k: gated.append(p) or sums(p, k))
    signed = IntMatrix([[1, 0, 0], [0, 0, -4], [0, 1, 0]])
    with pytest.raises(PerronPreconditionError):
        spectral_radius(signed)
    assert gated == [char_poly(signed)]
    # nonnegative, not strongly connected, a Jordan block at eigenvalue 1:
    # Perron-Frobenius alone certifies rho = 2, without the gate
    reducible = IntMatrix([[2, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert not is_primitive(reducible).primitive
    assert spectral_radius(reducible).to_json() == {
        "lo": "8796093022207/2^42",
        "hi": "8796093022209/2^42",
        "decimal": "2",
    }
    assert gated == [char_poly(signed)]


class _GatePolynomial(Exception):
    pass


def gate_polynomial(a: IntMatrix, monkeypatch) -> IntPolynomial:
    """The polynomial the gate builds for a signed a, caught before its Sturm counts."""
    build = matrices.from_power_sums

    def catch(sums):
        raise _GatePolynomial(build(sums))

    with monkeypatch.context() as patch:
        patch.setattr(matrices, "from_power_sums", catch)
        with pytest.raises(_GatePolynomial) as built:
            spectral_radius(a)
    return built.value.args[0]


def test_gate_polynomial_is_the_char_poly_of_the_symmetric_square(monkeypatch):
    rng = random.Random(24)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 8)
        a = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if a.is_nonnegative():
            continue
        try:
            largest_real_root(char_poly(a))
        except NoRealRootError:
            continue  # refused before the gate
        assert gate_polynomial(a, monkeypatch) == char_poly(symmetric_square(a)), a.rows
        checked += 1


def refused(a: IntMatrix) -> bool:
    try:
        spectral_radius(a)
    except PerronPreconditionError:
        return True
    return False


def numeric_gate_refuses(a: IntMatrix) -> bool:
    """Float oracle: some eigenvalue modulus exceeds the real-root enclosure by 1e-9."""
    moduli = abs(np.linalg.eigvals(np.array(a.rows, dtype=float)))
    return float(moduli.max()) > float(largest_real_root(char_poly(a)).hi) + 1e-9


def test_symmetric_square_eigenvalues_are_the_pairwise_products(monkeypatch):
    # a real eigenvalue 3.716 and a complex pair, so the gate runs
    a = IntMatrix([[1, 2, -1], [0, 3, 1], [2, 1, 1]])
    alphas = np.linalg.eigvals(np.array(a.rows, dtype=float))
    products = [alphas[i] * alphas[j] for i in range(3) for j in range(i, 3)]
    ours = np.roots([float(c) for c in reversed(gate_polynomial(a, monkeypatch).coeffs)])
    assert np.allclose(np.sort_complex(ours), np.sort_complex(np.array(products)))


def test_exact_gate_agrees_with_numeric_eigenvalues():
    # a complex pair of modulus exactly lambda = 2 passes, where floats pass
    # it only through their tolerance
    assert not refused(IntMatrix([[2, 0, 0], [0, 0, -4], [0, 1, 0]]))
    assert not numeric_gate_refuses(IntMatrix([[2, 0, 0], [0, 0, -4], [0, 1, 0]]))
    # the dominant eigenvalue -2 is real but not the largest real root 1
    assert refused(IntMatrix([[-2, 0], [0, 1]]))
    assert numeric_gate_refuses(IntMatrix([[-2, 0], [0, 1]]))
    # the double root 2 of a Jordan block: floats see 2 +- 2e-8 and refuse it
    assert not refused(IntMatrix([[3, -1], [1, 1]]))
    assert numeric_gate_refuses(IntMatrix([[3, -1], [1, 1]]))
    rng = random.Random(11)
    checked = 0
    while checked < 160:
        n = rng.randint(2, 8)
        a = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if a.is_nonnegative():
            continue
        try:
            largest_real_root(char_poly(a))
        except NoRealRootError:
            continue
        assert refused(a) == numeric_gate_refuses(a), a.rows
        checked += 1


#: lambda = 1 and a complex pair +-2i, so the gate runs.
SIGNED_ROWS = [[1, 0, 0], [0, 0, -4], [0, 1, 0]]
#: Patches the gate with the pairwise products a_i a_j for i < j only,
#: (s_k^2 - s_2k)/2 = s_k^2 - sums[k]: roots 4 and +-2i, so lambda^2 = 1 is missing.
WRONG_GATE = f"""
from stretchlab import matrices
from stretchlab.poly import power_sums

build = matrices.from_power_sums
s = power_sums(matrices.char_poly(matrices.IntMatrix({SIGNED_ROWS})), 12)
matrices.from_power_sums = lambda sums: build([s[k] ** 2 - q for k, q in enumerate(sums)])
"""


def test_a_gate_polynomial_without_lambda_squared_is_an_internal_error(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(matrices, "from_power_sums", matrices.from_power_sums)  # restored after
        exec(WRONG_GATE, {})
        with pytest.raises(AssertionError, match="lacks lambda"):
            spectral_radius(IntMatrix(SIGNED_ROWS))
    # a bug (4), not "undecided" (3) or a refused precondition (1), and within seconds
    code = WRONG_GATE + f"""
from stretchlab.cli import main
raise SystemExit(main(["matrix", "--matrix", {json.dumps({"rows": SIGNED_ROWS})!r}]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(matrices.__file__).resolve().parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 4, done.stderr
    assert "AssertionError: the gate polynomial lacks lambda^2" in done.stderr


def test_companion_examples_and_roundtrip():
    assert companion(P((-1, -1, 1))).rows == ((0, 1), (1, 1))
    assert char_poly(companion(P((-1, -2, 0, 1)))) == P((-1, -2, 0, 1))
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 10)
        coeffs = [rng.randint(-9, 9) for _ in range(n)] + [1]
        p = P(coeffs)
        assert char_poly(companion(p)) == p
    with pytest.raises(ValueError):
        companion(P((-1, -1, 2)))  # not monic


def test_companion_of_quartic_has_mu4():
    c = companion(P((-1, -1, 0, -1, 1)))
    # factorization witness: (t^2+1)(t^2-t-1)
    assert P((1, 0, 1)) * P((-1, -1, 1)) == P((-1, -1, 0, -1, 1))
    assert abs(float(normalized_spectral_radius(c)) - 6.854101966249685) < 1e-9


def test_determinant_examples():
    assert determinant(REMARK) == -1 and in_glnz(REMARK)
    assert determinant(IntMatrix([[int(i == j) for j in range(4)] for i in range(4)])) == 1
    m = IntMatrix([[2, 0], [0, 1]])
    assert determinant(m) == 2 and not in_glnz(m)


def test_det_agrees_with_char_poly_constant():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        chi = char_poly(m)
        assert determinant(m) == (-1) ** n * chi.constant_term()


def test_verify_block_structure():
    assert verify_block_structure(IntMatrix([[1, 0, 5], [0, 1, 7], [0, 0, 3]]), 2)
    assert not verify_block_structure(IntMatrix([[0, 1, 0], [1, 0, 0], [1, 0, 2]]), 2)
    assert not verify_block_structure(IntMatrix([[2, 0, 1], [0, 1, 0], [0, 0, 3]]), 2)
    with pytest.raises(ValueError):
        verify_block_structure(IntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3)


def test_block_structure_permutation_cases():
    # genuine permutation in the corner, arbitrary upper-right block
    m = IntMatrix([[0, 1, 9], [1, 0, -3], [0, 0, 2]])
    assert verify_block_structure(m, 2)


def test_matrix_json_roundtrip():
    assert matrix_from_json(matrix_to_json(REMARK)) == REMARK
    with pytest.raises(ValueError):
        matrix_from_json({"rows": [["1", "2"], ["3"]]})
    with pytest.raises(ValueError):
        matrix_from_json({})


def test_matrix_json_entries_are_json_ints_or_decimal_strings():
    assert matrix_from_json({"rows": [[1, "2"], ["3", -4]]}) == IntMatrix([[1, 2], [3, -4]])
    # a float or a bool is not truncated to an int
    for bad in (1.9, 1.0, True, False):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": [[bad, 1], [1, 1]]})
