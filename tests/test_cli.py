"""CLI behavior: exit codes, schemas, determinism of repro targets."""

import contextlib
import decimal
import importlib
import io
import json
import multiprocessing
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stretchlab.cli
import stretchlab.families
import stretchlab.matrices
import stretchlab.roots
import stretchlab.sharpness
from conftest import all_track_fixtures
from stretchlab import __version__
from stretchlab.classify import STRIP_DEGREE_CAP
from stretchlab.cli import _emit, _json_chunks, build_parser, main
from stretchlab.curvegraph import GrowthRateError
from stretchlab.errors import CheckFailed
from stretchlab.matrices import (
    IntMatrix,
    PerronPreconditionError,
    normalized_spectral_radius,
    spectral_radius,
)
from stretchlab.poly import InexactDivisionError, IntPolynomial
from stretchlab.roots import (
    MIN_TOL,
    SILVER_SQUARED_DECIMAL,
    NoRealRootError,
    RootEnclosure,
    ValueInterval,
)
from stretchlab.sharpness import SharpnessInvariantError, expected_char_poly
from stretchlab.traintrack import track_to_json

#: Recorded stdout: of `repro thm-main` and `repro set-theorem` from before
#: the targets moved out of the CLI module, of the family, search and
#: sharpness tables from before primitivity, the skew predicate and the
#: remainder sequence each became one function, and of `traintrack` on every
#: track fixture from before the constructor built the half-edge lookups.
GOLDEN = Path(__file__).resolve().parent / "golden"

ENCLOSURE_SCHEMA = {
    "type": ["object", "null"],
    "properties": {
        "lo": {"type": "string"},
        "hi": {"type": "string"},
        "decimal": {"type": "string"},
    },
    "required": ["lo", "hi", "decimal"],
}

POLY_SCHEMA = {
    "type": "object",
    "properties": {"coeffs": {"type": "array", "items": {"type": "string"}}},
    "required": ["coeffs"],
}

CLASSIFY_SCHEMA = {
    "type": "object",
    "properties": {
        "polynomial": POLY_SCHEMA,
        "reciprocal": {"type": ["integer", "null"]},
        "skew_reciprocal": {"type": ["integer", "null"]},
        "cyclotomic_part": POLY_SCHEMA,
        "core": POLY_SCHEMA,
        "skew_up_to_cyclotomic": {"type": "boolean"},
        "parity_ok": {"type": "boolean"},
        "degenerate": {"type": "boolean"},
        "largest_real_root": ENCLOSURE_SCHEMA,
    },
    "required": [
        "polynomial",
        "reciprocal",
        "skew_reciprocal",
        "cyclotomic_part",
        "core",
        "skew_up_to_cyclotomic",
        "parity_ok",
        "degenerate",
        "largest_real_root",
    ],
    "additionalProperties": False,
}

SEARCH_SCHEMA = {
    "type": "object",
    "properties": {
        "n": {"type": "integer"},
        "max_entry": {"type": "integer"},
        "count_scanned": {"type": "integer"},
        "count_qualifying": {"type": "integer"},
        "classes": {"type": "array"},
        "minimum": {"type": ["object", "null"]},
        "violations": {"type": "array"},
        "bound": {"type": "string"},
        "scope_note": {"type": "string"},
    },
    "required": [
        "n",
        "max_entry",
        "count_scanned",
        "count_qualifying",
        "classes",
        "minimum",
        "violations",
        "bound",
        "scope_note",
    ],
}


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_classify_dispatch_example(capsys):
    code, out = run_cli(
        capsys, "classify", "--poly", '{"coeffs":["-1","-2","-1","0","1"]}'
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, CLASSIFY_SCHEMA)
    assert payload["skew_up_to_cyclotomic"] is True
    assert payload["core"]["coeffs"] == ["-1", "-1", "1"]
    assert payload["largest_real_root"]["decimal"].startswith("1.618033989")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--poly", '{"coeffs":[1.5, 1]}'],
        ["classify", "--poly", '{"coeffs":[-1, 2.0, 1]}'],
        ["classify", "--poly", '{"coeffs":[true, 1]}'],
        ["matrix", "--matrix", '{"rows":[[1.9,1],[1,true]]}'],
        ["matrix", "--matrix", '{"rows":[[1,1],[1,false]]}'],
        ["curve-graph", "--matrix", '{"rows":[[1.0,1],[1,0]]}'],
    ],
    ids=["poly-float", "poly-integral-float", "poly-bool", "matrix-float", "matrix-bool", "curve-graph-float"],
)
def test_wire_float_or_bool_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "an integer must be a JSON int or a decimal string" in captured.err


@pytest.mark.parametrize(
    "as_ints, as_strings",
    [
        (["classify", "--poly", '{"coeffs":[-1,-1,1]}'], ["classify", "--poly", '{"coeffs":["-1","-1","1"]}']),
        (["matrix", "--matrix", '{"rows":[[1,1],[1,0]]}'], ["matrix", "--matrix", '{"rows":[["1","1"],["1","0"]]}']),
    ],
    ids=["poly", "matrix"],
)
def test_wire_integers_as_json_ints_or_decimal_strings_agree(as_ints, as_strings, capsys):
    code, out = run_cli(capsys, *as_ints)
    assert code == 0
    assert run_cli(capsys, *as_strings) == (0, out)


def test_malformed_json_exits_2(capsys):
    assert main(["classify", "--poly", "{bad json"]) == 2
    assert main(["classify", "--poly", '{"coeffs": "nope"}']) == 2
    # wire lists must be JSON lists: a string is not read as its characters
    assert main(["classify", "--poly", '{"coeffs": "12"}']) == 2
    assert main(["matrix", "--matrix", '{"rows": [[1, 2], "34"]}']) == 2
    assert main(["curve-graph", "--matrix", '{"rows": "ab"}']) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "coeffs", [["-1", "-1", "1"], ["1", "0", "1"], ["3"]], ids=["root", "no-root", "constant"]
)
def test_zero_tolerance_exits_2_with_or_without_a_positive_root(coeffs, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["classify", "--poly", json.dumps({"coeffs": coeffs}), "--tol", "0"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: argument --tol: tolerance must be positive, got '0'\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--poly", '{"coeffs":["3"]}'],
        ["matrix", "--matrix", '{"rows":[[1,1],[1,0]]}'],
        ["curve-graph", "--matrix", '{"rows":[[1,1],[1,0]]}'],
        ["family", "--n", "4"],
        ["sharpness", "--k", "2"],
        ["search", "--n", "2"],
        ["repro", "set-theorem"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("tol", ["0", "-1/4"])
def test_nonpositive_tolerance_is_a_usage_error_on_every_command(argv, tol, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([*argv, f"--tol={tol}"])  # "=": a leading "-" would read as an option
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument --tol: tolerance must be positive, got '{tol}'" in captured.err


def test_traintrack_takes_no_tolerance(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text('{"vertices": [{"sideA": [1], "sideB": [2]}], "edges": [{"ends": [1, 2], "kind": "real"}]}')
    assert main(["traintrack", "--file", str(path)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(["traintrack", "--file", str(path), "--tol", "1/4"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --tol 1/4" in captured.err


def test_json_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_bytes('{"coeffs": ["1", "1"], "note": "\u00e9"}'.encode("latin-1"))
    assert main(["classify", "--poly", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: not valid JSON (inline or file): 'utf-8' codec")


def test_matrix_command(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(
        '{"rows":[["0","0","1","1"],["1","0","0","0"],["1","1","0","0"],["0","0","1","0"]]}'
    )
    code, out = run_cli(capsys, "matrix", "--file", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["det"] == "-1"
    assert payload["primitivity"]["primitive"] is True
    assert payload["normalized_spectral_radius"]["decimal"] == "6.854101966"
    jsonschema.validate(payload["spectral_class"], CLASSIFY_SCHEMA)


def test_curve_graph_command(capsys):
    code, out = run_cli(
        capsys, "curve-graph", "--matrix", '{"rows":[["1","1"],["1","0"]]}'
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["identity_ok"] is True
    assert payload["shape"] == {"kind": "nA1", "weights": [1, 2]}
    assert payload["clique_poly"] == ["1", "-1", "-1"]


def test_family_command(capsys):
    code, out = run_cli(capsys, "family", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert payload["minimum"] == "6.854101966"
    assert payload["below_bound"] == []


@pytest.mark.parametrize(
    "argv, key",
    [
        (["family", "--n", "6"], "bound"),
        (["search", "--n", "3", "--max-entry", "1"], "bound"),
        (["sharpness", "--table", "2..3"], "limit"),
    ],
    ids=["family", "search", "sharpness-table"],
)
def test_printed_bound_is_the_constant_at_any_tol(argv, key, capsys):
    # an enclosure's midpoint at --tol 1 read 5.6875 (family) or 5.90625 (search)
    for tol in ("1", "1/2", "1/1000"):
        main([*argv, "--tol", tol])
        assert json.loads(capsys.readouterr().out)[key] == SILVER_SQUARED_DECIMAL == "5.828427125"


@pytest.mark.parametrize("forms", ["bogus", "2A1,", ""], ids=["unknown", "trailing-comma", "empty"])
def test_family_unknown_forms_tag_exits_2(forms, capsys):
    assert main(["family", "--n", "4", "--forms", forms]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown --forms tag(s) ")
    assert "valid tags: 2A1,3A1,4A1,5A1,AStar2 or all" in captured.err


def test_family_d_without_scan_exits_2(capsys):
    assert main(["family", "--n", "12", "--d", "0..3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --d applies only with --scan\n"


def test_family_scan_command(capsys):
    code, out = run_cli(capsys, "family", "--n", "12", "--scan", "3A1", "--d", "0..3")
    assert code == 0
    payload = json.loads(out)
    assert payload["strictly_increasing"] is True
    assert payload["table"][0]["normalized"] == "5.828427125"


def test_sharpness_commands(capsys):
    code, out = run_cli(capsys, "sharpness", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_k"] == 3 and payload["q_k"] == 3
    assert payload["normalized"]["decimal"] == "6.854101966"

    code, out = run_cli(capsys, "sharpness", "--table", "2..4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,p_k,q_k,char_poly,normalized"
    assert len(lines) == 4


def _dyadic(text: str) -> Fraction:
    num, _, power = text.partition("/2^")
    return Fraction(int(num), 2 ** int(power or 0))


def test_sharpness_k200_certifies_the_largest_advertised_k(capsys):
    code, out = run_cli(capsys, "sharpness", "--k", "200")
    assert code == 0
    payload = json.loads(out)
    # streamed in many batches, yet the bytes of a one-shot encoding
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lo, hi = _dyadic(payload["root"]["lo"]), _dyadic(payload["root"]["hi"])
    low, high = _dyadic(payload["normalized"]["lo"]), _dyadic(payload["normalized"]["hi"])
    # chi = t^400 - t^p - t^(400-p) - 1 has one sign change, hence (Descartes)
    # exactly one positive root; a sign change on [lo, hi] encloses it
    chi = expected_char_poly(200)
    assert 0 < lo and chi.sign_at(lo) < 0 < chi.sign_at(hi)
    assert low <= lo**400 and hi**400 <= high  # P_200 lies in [low, high]
    assert low > 3 and (low - 3) ** 2 > 8  # low > 3 + 2*sqrt(2)


def test_sharpness_table_comma_list_runs_only_listed_k(capsys):
    code, out = run_cli(capsys, "sharpness", "--table", "2,5,9")
    assert code == 0
    assert [row["k"] for row in json.loads(out)["table"]] == [2, 5, 9]


@pytest.mark.parametrize(
    "argv",
    [
        ["sharpness", "--table", "5..2"],
        ["family", "--scan", "3A1", "--n", "8", "--d", "3..1"],
        ["sharpness", "--table", "2,x"],
    ],
    ids=["descending-table", "descending-scan", "non-integer-item"],
)
def test_empty_or_malformed_range_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(("error: empty range", "error: bad range"))


def _limit_address_space():
    # 1 GiB: a check placed after the allocation fails with MemoryError
    # (exit 4) instead of exhausting the host
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# the companion of t^13 - 2t^12 + 1, which has a real root near 1.9998
SIGNED_13 = [[int(j == i + 1) for j in range(13)] for i in range(12)] + [[-1] + [0] * 11 + [2]]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sharpness", "--k", "20000"], "k = 20000 exceeds the sharpness cap 1000"),
        (["sharpness", "--table", "2..100000000"], "--table must lie in 2..1000"),
        (["family", "--scan", "3A1", "--n", "12", "--d", "0..100000000"], "--d must lie in 0..5"),
        (["family", "--scan", "3A1", "--n", "100000000", "--d", "0..99999999"], "--d must lie in 0..31"),
        (["family", "--scan", "5A1", "--n", "100000"], "degree 100000 exceeds the scan cap 64"),
        (
            ["classify", "--poly", json.dumps({"coeffs": ["1"] * (STRIP_DEGREE_CAP + 2)})],
            f"degree {STRIP_DEGREE_CAP + 1} exceeds the cyclotomic strip cap {STRIP_DEGREE_CAP}",
        ),
        (
            ["matrix", "--matrix", json.dumps({"rows": SIGNED_13})],
            "n = 13 exceeds the signed-matrix gate cap 12",
        ),
    ],
    ids=[
        "sharpness-k",
        "sharpness-table",
        "scan-d",
        "scan-n-and-d",
        "scan-n",
        "classify-degree",
        "matrix-signed",
    ],
)
def test_oversized_request_exits_2_before_allocating(argv, message):
    src = str(Path(stretchlab.cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "stretchlab.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=_limit_address_space,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "tol", ["1e-1000", "1e-20000", f"1/{2**256 + 1}"], ids=["1e-1000", "1e-20000", "just-below-2^-256"]
)
def test_tolerance_below_the_floor_exits_2_before_any_work(tol, monkeypatch, capsys):
    # at 1e-20000 the classify below would bisect for minutes
    monkeypatch.setattr(stretchlab.roots, "largest_real_root", None)
    with pytest.raises(SystemExit) as exit_:
        main(["classify", "--poly", '{"coeffs":["-1","-1","1"]}', "--tol", tol])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument --tol: tolerance must be at least 2^-256, got '{tol}'" in captured.err


def test_tolerance_at_the_floor_is_accepted(capsys):
    assert MIN_TOL == Fraction(1, 2**256)
    code, out = run_cli(capsys, "classify", "--poly", '{"coeffs":["-1","-1","1"]}', "--tol", f"1/{2**256}")
    assert code == 0
    assert json.loads(out)["largest_real_root"]["decimal"] == "1.618033989"


@pytest.mark.parametrize("tol", ["1/0", "2/0", "abc"])
def test_tolerance_that_is_not_a_rational_exits_2(tol, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["classify", "--poly", '{"coeffs":["1","1"]}', "--tol", tol])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a rational number" in captured.err


def test_sharpness_k_below_2_names_the_family_start(capsys):
    for k in ("0", "1"):
        assert main(["sharpness", "--k", k]) == 2
        assert capsys.readouterr().err == "error: the family starts at k = 2\n"


def test_sharpness_invariant_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(stretchlab.sharpness, "expected_char_poly", lambda k: IntPolynomial((1, 1)))
    assert main(["sharpness", "--k", "3"]) == 1
    assert capsys.readouterr().err.startswith("check failed")


def test_undecided_comparison_exits_3(monkeypatch, capsys):
    def undecided(*args):
        raise stretchlab.roots.SeparationError("enclosures neither separate nor share a certified root")

    # the package attribute ``classify`` is the function, so reach the module
    classify_module = importlib.import_module("stretchlab.classify")
    monkeypatch.setattr(classify_module, "compare_power_to_silver_squared", undecided)
    assert main(["family", "--n", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "undecided: enclosures neither separate nor share a certified root\n"


@pytest.mark.parametrize(
    "error",
    [
        KeyError("coeffs"),
        AssertionError("invariant"),
        # ArithmeticErrors that no check raises on purpose: bugs, not failed checks
        ZeroDivisionError("polynomial division by the zero polynomial"),
        OverflowError("int too large"),
        InexactDivisionError("division is not exact over the integers"),
        decimal.InvalidOperation("quantize result has too many digits"),
        # a ValueError that no input check raised is a bug too
        ValueError("enclosure lost its lower end"),
    ],
)
def test_internal_error_exits_4_with_traceback(error, monkeypatch, capsys):
    def broken(args):
        raise error

    monkeypatch.setattr(stretchlab.cli, "_cmd_classify", broken)
    assert main(["classify", "--poly", '{"coeffs": ["-1", "-1", "1"]}']) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):")
    assert captured.err.endswith(f"{type(error).__name__}: {error}\n")


@pytest.mark.parametrize(
    "error",
    [
        NoRealRootError("(t^2 + 1) has no real root in (0, 2]"),
        SharpnessInvariantError("char poly mismatch at k=3"),
        GrowthRateError("clique polynomial has no root in (0, 1)"),
        PerronPreconditionError("spectral radius is not a real root"),
    ],
    ids=lambda error: type(error).__name__,
)
def test_failed_check_exits_1(error, monkeypatch, capsys):
    def failing(args):
        raise error

    assert isinstance(error, CheckFailed)
    monkeypatch.setattr(stretchlab.cli, "_cmd_classify", failing)
    assert main(["classify", "--poly", '{"coeffs": ["-1", "-1", "1"]}']) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"check failed: {error}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix"],
        ["curve-graph"],
        ["sharpness"],
        ["sharpness", "--k", "3", "--table", "2..4"],
        ["family", "--scan", "3A1", "--n", "12", "--forms", "2A1"],
    ],
    ids=[
        "matrix-no-matrix",
        "curve-graph-no-matrix",
        "sharpness-neither",
        "sharpness-both",
        "family-scan-and-forms",
    ],
)
def test_missing_or_conflicting_input_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")


@pytest.mark.parametrize("command", ["matrix", "curve-graph"])
def test_file_and_matrix_spellings_give_identical_bytes(command, tmp_path, capsys):
    inline = '{"rows":[["0","0","1","1"],["1","0","0","0"],["1","1","0","0"],["0","0","1","0"]]}'
    path = tmp_path / "m.json"
    path.write_text(inline)
    outputs = {
        run_cli(capsys, command, flag, value)
        for flag in ("--file", "--matrix")
        for value in (inline, str(path))
    }
    assert len(outputs) == 1
    assert outputs.pop()[0] == 0


def test_threads_out_of_range_exits_2_before_any_pool(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        pytest.fail("a worker pool started for an out-of-range --threads")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    for threads in (0, os.cpu_count() + 1):
        for argv in (["search", "--n", "3", "--max-entry", "1"], ["repro", "thm-main"]):
            assert main([*argv, "--threads", str(threads)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: --threads")


def test_search_command_schema(capsys):
    code, out = run_cli(capsys, "search", "--n", "3", "--max-entry", "1")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SEARCH_SCHEMA)
    assert payload["count_scanned"] == 512


def test_traintrack_command(tmp_path, capsys):
    track = {
        "vertices": [
            {"sideA": [1, 3], "sideB": [5, 6]},
            {"sideA": [4, 2], "sideB": [7, 8]},
        ],
        "edges": [
            {"ends": [1, 2], "kind": "inf"},
            {"ends": [3, 4], "kind": "inf"},
            {"ends": [5, 6], "kind": "real"},
            {"ends": [7, 8], "kind": "real"},
        ],
    }
    path = tmp_path / "t.json"
    path.write_text(json.dumps(track))
    code, out = run_cli(capsys, "traintrack", "--file", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["standardly_embedded"] is True
    assert payload["weight_space_dim"] == 2
    assert payload["radical_containment"] is True


def test_version_names_the_package_version(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--version"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == f"stretch-lab {__version__}\n"


def test_matrix_above_the_strip_cap_exits_2_before_its_char_poly(monkeypatch, capsys):
    classify_module = importlib.import_module("stretchlab.classify")
    monkeypatch.setattr(classify_module, "STRIP_DEGREE_CAP", 3)
    code, out = run_cli(capsys, "matrix", "--matrix", '{"rows":[[0,1,0],[0,0,1],[1,1,0]]}')
    assert code == 0
    assert json.loads(out)["n"] == 3

    def refuse(*args, **kwargs):
        raise AssertionError("matrix work ran past the cap")

    for name in ("is_primitive", "char_poly", "spectral_radius"):
        monkeypatch.setattr(stretchlab.matrices, name, refuse)
    assert main(["matrix", "--matrix", '{"rows":[[0,1,0,0],[0,0,1,0],[0,0,0,1],[1,1,0,0]]}']) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n = 4 exceeds the cyclotomic strip cap 3\n"


def test_signed_matrix_above_the_gate_cap_exits_2_before_the_gate(monkeypatch, capsys):
    monkeypatch.setattr(stretchlab.matrices, "SIGNED_GATE_CAP", 2)

    def refuse(*args, **kwargs):
        raise AssertionError("the gate ran past its cap")

    monkeypatch.setattr(stretchlab.matrices, "power_sums", refuse)
    assert main(["matrix", "--matrix", '{"rows":[[2,0,0],[0,0,-4],[0,1,0]]}']) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n = 3 exceeds the signed-matrix gate cap 2\n"
    # a nonnegative matrix never reaches the gate, so the cap does not apply
    code, out = run_cli(capsys, "matrix", "--matrix", '{"rows":[[0,1,0],[0,0,1],[1,1,0]]}')
    assert code == 0
    assert json.loads(out)["spectral_radius"]["decimal"] == "1.324717957"


def signed_golden_matrices() -> list[list[list[int]]]:
    rng = random.Random(24)
    return [
        [[1, 0, 0], [0, 0, -4], [0, 1, 0]],  # a complex pair of modulus 2 > 1: refused
        [[2, 0, 0], [0, 0, -4], [0, 1, 0]],  # a complex pair of modulus exactly 2: passes
        [[-2, 0], [0, 1]],
        [[3, -1], [1, 1]],
        [[0, -1], [1, 0]],
        *([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)] for n in (6, 8)),
    ]


def test_signed_matrix_reports_match_their_golden_bytes(capsys):
    outs = []
    for rows in signed_golden_matrices():
        code, out = run_cli(capsys, "matrix", "--matrix", json.dumps({"rows": rows}))
        assert code == 0
        outs.append(out)
    assert "".join(outs) == (GOLDEN / "matrix_signed.txt").read_text()


def test_traintrack_reports_match_their_golden_bytes(tmp_path, capsys):
    outs = []
    for i, track in enumerate(all_track_fixtures()):
        path = tmp_path / f"t{i}.json"
        path.write_text(json.dumps(track_to_json(track)))
        code, out = run_cli(capsys, "traintrack", "--file", str(path))
        assert code == 0
        outs.append(out)
    assert "".join(outs) == (GOLDEN / "traintrack_fixtures.txt").read_text()


def test_traintrack_bad_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for text in (
        '{"vertices": [], "edges": [{"ends": [1], "kind": "real"}]}',
        # a side that is a bare id, not a list: a TypeError inside TrainTrack
        '{"vertices": [{"sideA": 1, "sideB": [2]}], "edges": []}',
        # a side given as a string is not read as its characters
        '{"vertices": [{"sideA": "ab", "sideB": [2]}], "edges": []}',
        # half-edge ids are ints: a string id, and a bool, which is no int here
        '{"vertices": [{"sideA": [1], "sideB": ["a"]}], "edges": [{"ends": [1, "a"], "kind": "real"}]}',
        '{"vertices": [{"sideA": [true], "sideB": [2]}], "edges": [{"ends": [true, 2], "kind": "real"}]}',
    ):
        path.write_text(text)
        assert main(["traintrack", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad train track")


def test_matrix_report_prints_integers_past_the_str_digit_limit(tmp_path, capsys):
    # rho^3 has over 4,300 digits, Python's default int -> str limit
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"rows": [[10**1500, 1, 0], [0, 0, 1], [1, 0, 0]]}))
    code, out = run_cli(capsys, "matrix", "--file", str(path))
    assert code == 0
    assert json.loads(out)["normalized_spectral_radius"]["decimal"] == "1.000000000E+4500"


def test_search_budget_exit_code(monkeypatch, capsys):
    monkeypatch.setenv("STRETCHLAB_BUDGET", "100")
    assert main(["search", "--n", "3", "--max-entry", "1"]) == 2


def test_malformed_search_budget_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("STRETCHLAB_BUDGET", "1e6")
    assert main(["search", "--n", "2", "--max-entry", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: STRETCHLAB_BUDGET must be an integer, got '1e6'\n"


def test_search_dimension_below_1_exits_2(capsys):
    for n in ("0", "-1"):
        assert main(["search", "--n", n, "--max-entry", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --n must be at least 1, got {n}\n"


def test_search_negative_max_entry_exits_2(capsys):
    for max_entry in ("-1", "-5"):
        assert main(["search", "--n", "2", "--max-entry", max_entry]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --max-entry must be at least 0, got {max_entry}\n"
    code, out = run_cli(capsys, "search", "--n", "2", "--max-entry", "0")
    assert code == 0
    assert json.loads(out)["count_scanned"] == 1


def test_repro_set_theorem_passes_and_is_deterministic(capsys):
    code1, out1 = run_cli(capsys, "repro", "set-theorem")
    code2, out2 = run_cli(capsys, "repro", "set-theorem")
    assert code1 == code2 == 0
    assert out1 == out2 == (GOLDEN / "repro_set_theorem.json").read_text()
    payload = json.loads(out1)
    assert payload["pass"] is True


@pytest.mark.parametrize("tol", ["1/16", "1/2", "1"])
def test_repro_set_theorem_passes_at_a_coarse_tol(tol, capsys):
    # the normalized values are read on refined ends, not on coarse midpoints
    code, out = run_cli(capsys, "repro", "set-theorem", "--tol", tol)
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_repro_thm_main_deterministic_across_threads(capsys):
    code1, out1 = run_cli(capsys, "repro", "thm-main", "--threads", "1")
    code2, out2 = run_cli(capsys, "repro", "thm-main", "--threads", "2")
    assert code1 == code2 == 0
    assert out1 == out2 == (GOLDEN / "repro_thm_main.json").read_text()
    assert json.loads(out1)["pass"] is True


#: The table goldens, each with the argv that printed it.
GOLDEN_TABLES = [
    (["family", "--n", "12"], "family_n12.json"),
    (["family", "--scan", "5A1", "--n", "12"], "family_scan_5A1_n12.json"),
    (["search", "--n", "3", "--max-entry", "2"], "search_n3_max2.json"),
    (["sharpness", "--table", "2..12", "--format", "csv"], "sharpness_table_2_12.csv"),
    (["search", "--n", "4", "--max-entry", "1"], "search_n4_max1.json"),
]
#: Every golden that holds one command's stdout; the repro tests above
#: compare the last two.
GOLDEN_COMMANDS = GOLDEN_TABLES + [
    (["repro", "set-theorem"], "repro_set_theorem.json"),
    (["repro", "thm-main"], "repro_thm_main.json"),
]


@pytest.mark.parametrize(
    "argv, name",
    GOLDEN_TABLES,
    ids=lambda x: x if isinstance(x, str) else None,
)
def test_tables_match_their_golden_bytes(argv, name, capsys):
    assert run_cli(capsys, *argv) == (0, (GOLDEN / name).read_text())


def test_golden_commands_replayed_in_one_process(capfd):
    # each command returns its report and writes nothing; rendered by the
    # one writer, in order and then in reverse, warm caches change no byte
    parser = build_parser()
    for argv, name in GOLDEN_COMMANDS + GOLDEN_COMMANDS[::-1]:
        args = parser.parse_args(argv)
        payload, code = args.func(args)
        assert capfd.readouterr() == ("", ""), argv
        with contextlib.redirect_stdout(io.StringIO()) as out:
            _emit(payload, args)
        assert (code, out.getvalue()) == (0, (GOLDEN / name).read_text()), argv


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["sharpness", "--k", "2", "--format", "csv"],
            "error: csv format applies only to table-producing commands\n",
        ),
        (
            ["classify", "--poly", '{"coeffs": ["-1", "-1", "1"]}', "--out", "{missing}/r.json"],
            "error: [Errno 2] No such file or directory: '{missing}/r.json'\n",
        ),
    ],
    ids=["csv-without-a-table", "out-in-a-missing-directory"],
)
def test_errors_raised_while_writing_exit_2(argv, message, tmp_path, capsys):
    missing = str(tmp_path / "missing")
    assert main([a.replace("{missing}", missing) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message.replace("{missing}", missing)


def test_repro_thm_main_builds_each_shared_input_once(monkeypatch, capsys):
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(arg, *rest, **kwargs):
            calls.append((name, arg))
            return original(arg, *rest, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(stretchlab.sharpness, "build_example")
    counted(stretchlab.families, "enumerate_admissible")
    code, out = run_cli(capsys, "repro", "thm-main")
    assert code == 0 and out == (GOLDEN / "repro_thm_main.json").read_text()
    assert calls.count(("build_example", 2)) == 1
    assert calls.count(("enumerate_admissible", 4)) == 1


def test_repro_set_theorem_decides_without_floats(monkeypatch, capsys):
    code, expected = run_cli(capsys, "repro", "set-theorem")
    assert code == 0

    def no_float(self):
        raise AssertionError("a float decided a certified claim")

    for cls in (ValueInterval, RootEnclosure, Fraction):
        monkeypatch.setattr(cls, "__float__", no_float)
    assert run_cli(capsys, "repro", "set-theorem") == (0, expected)


def test_repro_thm_main_decides_without_floats(monkeypatch, capsys):
    code, expected = run_cli(capsys, "repro", "thm-main")
    assert code == 0

    def no_float(self):
        raise AssertionError("a float decided a certified claim")

    for cls in (ValueInterval, Fraction):
        monkeypatch.setattr(cls, "__float__", no_float)
    assert run_cli(capsys, "repro", "thm-main") == (0, expected)


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 0, 1, 1], [1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0]],  # primitive
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2], [1, 0, 0, 0]],  # period 4
    ],
)
def test_matrix_report_computes_each_quantity_once(rows, monkeypatch, capsys):
    m = IntMatrix(rows)
    rho = spectral_radius(m)
    expected = {
        "spectral_radius": rho.to_json(),
        "normalized_spectral_radius": normalized_spectral_radius(m).to_json(),
    }
    calls = {"char_poly": 0, "is_primitive": 0}
    for name in calls:
        original = getattr(stretchlab.matrices, name)

        def counted(a, name=name, original=original):
            calls[name] += 1
            return original(a)

        monkeypatch.setattr(stretchlab.matrices, name, counted)
    code, out = run_cli(capsys, "matrix", "--matrix", json.dumps({"rows": rows}))
    assert code == 0
    assert calls == {"char_poly": 1, "is_primitive": 1}
    payload = json.loads(out)
    assert {key: payload[key] for key in expected} == expected
    assert payload["spectral_class"]["largest_real_root"] == rho.to_json()


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "classify", "--poly", '{"coeffs":["-1","-1","1"]}', "--out", str(target)
    )
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert target.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert payload["skew_reciprocal"] == -1


def test_matrix_without_a_real_perron_root_reports_it(capsys):
    code, out = run_cli(capsys, "matrix", "--matrix", '{"rows":[[0,-1],[1,0]]}')
    assert code == 0
    payload = json.loads(out)
    assert payload["spectral_radius"] is None
    assert "spectral radius is not a real root" in payload["spectral_radius_error"]


def test_matrix_spectral_radius_bug_is_not_reported_as_data(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(stretchlab.matrices, "spectral_radius", broken)
    assert main(["matrix", "--matrix", '{"rows":[[1,1],[1,0]]}']) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("ZeroDivisionError: division by zero\n")


# -- the JSON writer --------------------------------------------------------

JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**64))
    | st.text()
    | st.text(alphabet=st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'))
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(max_size=8), children, max_size=6),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
@example([True, 1, False, 0, None, "1", "true"])
@example({"a": [1, True], "b": {"c": [], "d": {}}, "": [[], [{}], [[1]]]})
@example(["\x00\"\\ \u00e9 \U0001f600", 2**64, -(2**64) - 1, [2**200]])
@example([])
@example({})
@example("lone string")
def test_json_writer_matches_json_dumps(tree):
    assert "".join(_json_chunks(tree)) == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [1.5, (1, 2), {1: "a"}, [1, 2.0], {"a": {"b": [object()]}}],
    ids=["float", "tuple", "int-key", "float-in-list", "nested-object"],
)
def test_json_writer_rejects_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        "".join(_json_chunks(value))


def test_sharpness_k200_streams_about_one_matrix_row_per_chunk(monkeypatch, capsys):
    sizes = []

    def recorded(obj):
        for chunk in _json_chunks(obj):
            sizes.append(len(chunk))
            yield chunk

    monkeypatch.setattr(stretchlab.cli, "_json_chunks", recorded)
    code, out = run_cli(capsys, "sharpness", "--k", "200")
    assert code == 0
    payload = json.loads(out)
    matrix = payload["matrix"]

    def indented(items):  # a scalar list at depth 2, one entry per line
        return len("[\n      " + ",\n      ".join(map(json.dumps, items)) + "\n    ]")

    # the longest pieces: a matrix row, or the 2k + 1 char poly coefficients
    bound = max(indented(payload["char_poly"]["coeffs"]), *map(indented, matrix))
    assert max(sizes) <= bound < 2 * indented(matrix[0])
    assert len(sizes) > len(matrix)
    assert sum(sizes) + 1 == len(out)


@pytest.mark.parametrize(
    "argv",
    [
        ["sharpness", "--k", "30"],
        ["sharpness", "--table", "2..6", "--format", "csv"],
        ["sharpness", "--table", "2..6", "--format", "text"],
    ],
    ids=["json", "csv", "text"],
)
def test_out_flag_writes_the_bytes_of_stdout(argv, tmp_path, capsys):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    target = tmp_path / "report"
    assert run_cli(capsys, *argv, "--out", str(target)) == (0, "")
    assert target.read_bytes() == out.encode()
