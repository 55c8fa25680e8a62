"""The verifier accepts a correct answer and rejects tampered ones."""

import copy
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import verify  # noqa: E402
from workloads import Op  # noqa: E402


def _golden_enclosure(bits=40):
    # floor(phi * 2^bits) with phi = (1 + sqrt 5) / 2
    lo = (2**bits + math.isqrt(5 * 2 ** (2 * bits))) // 2
    return {"lo": f"{lo}/2^{bits}", "hi": f"{lo + 1}/2^{bits}", "decimal": "1.618033989"}


def _classify_report():
    """The correct report for t^4 - t^2 - 2t - 1 = (t^2 + t + 1)(t^2 - t - 1)."""
    return {
        "polynomial": {"coeffs": ["-1", "-2", "-1", "0", "1"]},
        "cyclotomic_part": {"coeffs": ["1", "1", "1"]},
        "core": {"coeffs": ["-1", "-1", "1"]},
        "reciprocal": None,
        "skew_reciprocal": None,
        "skew_up_to_cyclotomic": True,
        "parity_ok": True,
        "degenerate": False,
        "largest_real_root": _golden_enclosure(),
    }


OP = Op(kind="classify", argv=("classify",), data={"coeffs": [-1, -2, -1, 0, 1]})


def _check(report):
    return verify.check(OP, 0, json.dumps(report).encode(), {})


def test_accepts_the_correct_report():
    assert _check(_classify_report()) == []


def test_rejects_a_shifted_enclosure():
    report = _classify_report()
    enc = report["largest_real_root"]
    lo = verify.parse_dyadic(enc["lo"]) + Fraction(1, 2**30)
    hi = lo + Fraction(1, 2**40)
    enc["lo"], enc["hi"] = f"{lo.numerator}/{lo.denominator}", f"{hi.numerator}/{hi.denominator}"
    assert any("sign change" in p for p in _check(report))


def test_rejects_a_too_wide_enclosure():
    report = _classify_report()
    report["largest_real_root"] = {"lo": "1", "hi": "2", "decimal": "1.500000000"}
    assert any("width" in p for p in _check(report))


def test_rejects_a_wrong_polynomial():
    report = _classify_report()
    report["core"] = {"coeffs": ["-1", "1", "1"]}
    assert _check(report) != []
    report = _classify_report()
    # a consistent but non-maximal split: Phi_3 left inside the core
    report["cyclotomic_part"] = {"coeffs": ["1"]}
    report["core"] = copy.deepcopy(report["polynomial"])
    assert any("core keeps Phi_3" in p for p in _check(report))


def test_rejects_a_wrong_exit_code_and_missing_output():
    assert verify.check(OP, 1, json.dumps(_classify_report()).encode(), {}) != []
    assert verify.check(OP, 2, b"", {}) != []


def test_reference_comparison_ignores_representation():
    # the same table rendered with different spacing and dict order
    out = {"limit": "5.828427125", "table": [
        {"k": 2, "p_k": 3, "q_k": 3, "char_poly": "t^4 - t^3 - t - 1", "normalized": "6.854101966"}]}
    ref = verify._json_normal(verify.canonical("sharpness_table", out))
    assert ref["table"][0][3] == [-1, -1, 0, -1, 1]
    other = {"table": [{"normalized": "6.854101966", "char_poly": {"coeffs": ["-1", "-1", "0", "-1", "1"]},
                        "q_k": 3, "p_k": 3, "k": 2}], "limit": "5.828427125"}
    assert verify._json_normal(verify.canonical("sharpness_table", other)) == ref


def test_sharpness_closed_form_and_wrong_char_poly():
    assert verify.sharpness_char_poly(2) == [-1, -1, 0, -1, 1]
    assert verify.silver_parameters(200) == (201, pow(201, -1, 400))
    report = {"k": 2, "p_k": 3, "q_k": 3, "char_poly": {"coeffs": ["-1", "-1", "0", "-1", "1"]}}
    report["char_poly"]["coeffs"][1] = "-2"
    op = Op(kind="sharpness", argv=("sharpness",), key="")
    problems = verify.check(op, 0, json.dumps(report).encode(), {})
    assert any("char_poly" in p for p in problems)


def test_char_poly_oracle_and_parser():
    rows = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 1, 0]]
    assert verify.char_poly(rows) == [-1, 0, -1, 0, 1]
    assert verify.parse_poly("t^12 - 2*t^7 - t - 1") == [-1, -1, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 1]
    assert verify.parse_poly("-t^2 + 3") == [3, 0, -1]
    assert verify.parse_dyadic("13898806131/2^33") == Fraction(13898806131, 2**33)
