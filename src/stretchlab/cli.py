"""Command-line front end.

Exit codes: 0 = success, 1 = a checked mathematical property failed (a
violation found, a bound check failed, or an ``errors.CheckFailed``: no
real root, a sharpness invariant, a growth rate or a Perron precondition),
2 = input or parse error (``errors.InputError``, an OSError) or an exceeded
budget or cap, 3 = undecided (two enclosures could not be separated within
the refinement cap, so the check has no answer), 4 = internal error: any
other exception (a KeyError, a failed invariant assertion, a ValueError
that no input check raised, and also any other ArithmeticError, such as a
division by zero or an inexact polynomial division, which no check makes
on purpose) is a bug, not a verdict, and its traceback goes to stderr.
Reports are schema-stable JSON (sorted keys); certified quantities always
carry their enclosure next to the 10-significant-digit decimal.

Each ``_cmd_*`` returns its report and exit code and writes nothing;
``main`` alone writes the report (``_emit``) and maps every exception,
one raised while writing included, to its exit code.

Each subcommand imports the modules it uses when it runs, so a small query
does not pay for the search driver or ``multiprocessing``.  No command
decides anything in floating point.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

from . import SCOPE_NOTE, __version__
from .errors import BudgetExceededError, CapExceeded, CheckFailed, InputError
from .roots import DEFAULT_TOL, MIN_TOL, SeparationError

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator


def _load_json_arg(value: str) -> dict:
    """Accept inline JSON or a path to a JSON file."""
    text = value
    candidate = Path(value)
    try:
        if not value.lstrip().startswith("{") and candidate.exists():
            text = candidate.read_text(encoding="utf-8")
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"not valid JSON (inline or file): {exc}") from exc


def _parse_json_arg(value: str, from_json: Callable, what: str):
    """``from_json`` of inline JSON or a JSON file; a bad ``what`` is an input error."""
    data = _load_json_arg(value)
    try:
        return from_json(data)
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad {what}: {exc}") from exc


def _tolerance(value: str) -> Fraction:
    """``--tol``: a rational in [2^-256, oo); 1/0 is a usage error like any other bad number."""
    try:
        tol = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {value!r}") from exc
    if tol <= 0:
        raise argparse.ArgumentTypeError(f"tolerance must be positive, got {value!r}")
    if tol < MIN_TOL:
        raise argparse.ArgumentTypeError(f"tolerance must be at least 2^-256, got {value!r}")
    return tol


def _parse_range(value: str, flag: str, lo: int, hi: int) -> list[int]:
    """'2..40' or a single integer or comma list; never empty, each item in lo..hi.

    The endpoints are checked before the range is built, so a few digits
    cannot ask for a list of 10^8 ints.
    """
    ranged = ".." in value
    try:
        ends = [int(v) for v in (value.split("..", 1) if ranged else value.split(","))]
    except ValueError as exc:
        raise InputError(f"bad range {value!r}: {exc}") from exc
    if not all(lo <= v <= hi for v in ends):
        raise InputError(f"{flag} must lie in {lo}..{hi}, got {value!r}")
    items = list(range(ends[0], ends[1] + 1)) if ranged else ends
    if not items:
        raise InputError(f"empty range {value!r}: its upper end is below its lower end")
    return items


class _Escapes(dict):
    """The JSON text of each scalar; a string's is computed once and kept.

    Only strings are kept: True == 1, so an int or bool key would answer
    for the other.
    """

    __slots__ = ()

    def __missing__(self, value):
        if type(value) is not str:
            return _scalar(value)
        text = self[value] = encode_basestring_ascii(value)
        return text


def _scalar(value) -> str:
    """The JSON text of a str, None, bool or int, tested in ``json``'s order."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_chunks(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, in pieces.

    ``obj`` is built from dicts with str keys, lists, str, int, bool and
    None; any other type raises TypeError.  A list with no container item
    is one piece, joined from C-level escapes, so a matrix row costs no
    Python step per entry; a dict item is one piece, and a container item
    streams its own pieces.
    """
    escape = _Escapes().__getitem__
    encode_str, scalar, containers = encode_basestring_ascii, _scalar, (dict, list)

    def encode(o, nl):
        inner = nl + "  "
        if isinstance(o, dict):
            if not o:
                yield "{}"
                return
            sep = "{" + inner
            for key, value in sorted(o.items()):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                head = sep + encode_str(key) + ": "
                if isinstance(value, containers):
                    yield head
                    yield from encode(value, inner)
                else:
                    yield head + scalar(value)
                sep = "," + inner
            yield nl + "}"
        elif isinstance(o, list):
            if not o:
                yield "[]"
                return
            try:
                text = "[" + inner + ("," + inner).join(map(escape, o)) + nl + "]"
            except TypeError:  # a container item, or a type the loop below rejects
                pass
            else:
                yield text
                return
            sep = "[" + inner
            for item in o:
                if isinstance(item, containers):
                    yield sep
                    yield from encode(item, inner)
                else:
                    yield sep + scalar(item)
                sep = "," + inner
            yield nl + "]"
        else:
            yield scalar(o)

    return encode(obj, "\n")


def _emit(payload: dict, args) -> None:
    """Write the report to ``--out`` or stdout as json, csv or text.

    JSON goes through ``_json_chunks``, not ``json.JSONEncoder``: with
    ``indent`` set, CPython's encoder takes its pure-Python path, one
    generator step per value, which for the k = 200 sharpness matrix
    (160,000 entries) cost more than certifying it.  The bytes are those of
    ``json.dumps(payload, indent=2, sort_keys=True)``.  The pieces are
    written as they come, about one matrix row each, and the stream's buffer
    batches them: the report is never held as one string, which for an
    MB-sized report would double the peak memory.
    """
    if args.format == "json":
        chunks = _json_chunks(payload)
    elif args.format == "csv":
        rows = payload.get("table")
        if rows is None:
            raise InputError("csv format applies only to table-producing commands")
        header = list(rows[0].keys()) if rows else []
        lines = [",".join(header)]
        lines += [",".join(str(r[h]) for h in header) for r in rows]
        chunks = ["\n".join(lines)]
    else:  # text
        chunks = ["\n".join(_as_text(payload))]
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as stream:
        stream.writelines(chunks)
        stream.write("\n")


def _as_text(payload, prefix="") -> list[str]:
    lines = []
    if isinstance(payload, dict):
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{prefix}{k}:")
                lines += _as_text(v, prefix + "  ")
            else:
                lines.append(f"{prefix}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                lines += _as_text(v, prefix + "  ")
            else:
                lines.append(f"{prefix}- {v}")
    else:
        lines.append(f"{prefix}{payload}")
    return lines


def _spectral_class_json(sc, tol: Fraction, root=None) -> dict:
    """The classify report; ``root`` is the largest real root when already known."""
    from .poly import poly_to_json
    from .roots import NoRealRootError, largest_real_root

    p = sc.polynomial
    if root is None:
        try:
            root = largest_real_root(p, tol)
        except NoRealRootError:  # no root in (0, bound]: nothing to report
            pass
    return {
        "polynomial": poly_to_json(p),
        "reciprocal": sc.reciprocal,
        "skew_reciprocal": sc.skew_reciprocal,
        "cyclotomic_part": poly_to_json(sc.cyclotomic_part),
        "core": poly_to_json(sc.core),
        "skew_up_to_cyclotomic": sc.skew_up_to_cyclotomic,
        "parity_ok": sc.parity_ok,
        "degenerate": sc.degenerate,
        "largest_real_root": root.to_json() if root else None,
    }


# -- subcommands --------------------------------------------------------


def _cmd_classify(args) -> tuple[dict, int]:
    from .classify import classify
    from .poly import poly_from_json

    p = _parse_json_arg(args.poly, poly_from_json, "polynomial")
    if p.is_zero():
        raise InputError("cannot classify the zero polynomial")
    return _spectral_class_json(classify(p), args.tol), 0


def _cmd_matrix(args) -> tuple[dict, int]:
    from .classify import STRIP_DEGREE_CAP, classify
    from .matrices import (
        PerronPreconditionError,
        char_poly,
        is_primitive,
        matrix_from_json,
        normalized_spectral_radius,
        spectral_radius,
    )
    from .poly import poly_to_json

    m = _parse_json_arg(args.matrix, matrix_from_json, "matrix")
    if m.n > STRIP_DEGREE_CAP:
        # the char poly's degree; checked before any O(n^3) work
        raise InputError(f"n = {m.n} exceeds the cyclotomic strip cap {STRIP_DEGREE_CAP}")
    report = is_primitive(m)
    chi = char_poly(m)
    det = (-1) ** m.n * chi.constant_term()
    payload = {
        "n": m.n,
        "char_poly": poly_to_json(chi),
        "primitivity": {
            "nonnegative": report.nonnegative,
            "strongly_connected": report.strongly_connected,
            "period": report.period,
            "primitive": report.primitive,
        },
        "det": str(det),
        "in_glnz": det in (1, -1),
    }
    # rho is the largest real root of chi, the one the spectral class reports
    rho = None
    try:
        rho = spectral_radius(m, args.tol, chi=chi)
        payload["spectral_radius"] = rho.to_json()
        payload["normalized_spectral_radius"] = normalized_spectral_radius(
            m, args.tol, rho
        ).to_json()
    except PerronPreconditionError as exc:
        payload["spectral_radius"] = None
        payload["normalized_spectral_radius"] = None
        payload["spectral_radius_error"] = str(exc)
    payload["spectral_class"] = _spectral_class_json(classify(chi), args.tol, rho)
    return payload, 0


def _cmd_curve_graph(args) -> tuple[dict, int]:
    from .curvegraph import curve_graph_report
    from .matrices import matrix_from_json

    m = _parse_json_arg(args.matrix, matrix_from_json, "matrix")
    if not m.is_nonnegative():
        raise InputError("curve graphs need a nonnegative matrix")
    payload = curve_graph_report(m, args.tol)
    return payload, 0 if payload["identity_ok"] else 1


def _cmd_family(args) -> tuple[dict, int]:
    from .families import ALL_FORMS, SCAN_DEGREE_CAP, enumerate_admissible, monotonicity_scan
    from .roots import silver_ratio_squared

    if args.d is not None and not args.scan:
        raise InputError("--d applies only with --scan")
    if args.scan:
        # d < n/2 for every n a scan accepts; the scan itself rejects a bad n
        d_max = max(min(args.n, SCAN_DEGREE_CAP) // 2 - 1, 0)
        ds = _parse_range(args.d, "--d", 0, d_max) if args.d else None
        result = monotonicity_scan(args.scan, args.n, ds, args.tol)
        payload = {
            "branch": result.branch,
            "n": result.n,
            "strictly_increasing": result.strictly_increasing,
            "table": [
                {
                    "params": "/".join(map(str, pt.params)),
                    "polynomial": str(pt.polynomial),
                    "normalized": pt.normalized.decimal(),
                }
                for pt in result.points
            ],
            "scope_note": SCOPE_NOTE,
        }
        return payload, 0 if result.strictly_increasing else 1
    forms = ALL_FORMS if args.forms in (None, "all") else tuple(args.forms.split(","))
    unknown = [tag for tag in forms if tag not in ALL_FORMS]
    if unknown:
        raise InputError(
            f"unknown --forms tag(s) {', '.join(map(repr, unknown))}; "
            f"valid tags: {','.join(ALL_FORMS)} or all"
        )
    reports = enumerate_admissible(args.n, forms, args.tol)
    threshold = silver_ratio_squared(args.tol)
    below = [r for r in reports if r.side < 0]
    payload = {
        "n": args.n,
        "forms": list(forms),
        "count": len(reports),
        "minimum": reports[0].normalized.decimal() if reports else None,
        "bound": threshold.decimal(),
        "below_bound": [str(r.polynomial) for r in below],
        "table": [
            {
                "polynomial": str(r.polynomial),
                "normalized": r.normalized.decimal(),
            }
            for r in reports
        ],
        "scope_note": SCOPE_NOTE,
    }
    return payload, 1 if (args.n >= 4 and below) else 0


def _cmd_sharpness(args) -> tuple[dict, int]:
    from .matrices import matrix_to_json
    from .poly import poly_to_json
    from .roots import silver_ratio_squared
    from .sharpness import SHARPNESS_CAP, build_example

    tol = args.tol
    if args.table is not None:
        ks = _parse_range(args.table, "--table", 2, SHARPNESS_CAP)
        rows = []
        for k in ks:
            ex = build_example(k, tol)
            rows.append(
                {
                    "k": k,
                    "p_k": ex.p_k,
                    "q_k": ex.q_k,
                    "char_poly": str(ex.char_poly),
                    "normalized": ex.normalized.decimal(),
                }
            )
        return {"table": rows, "limit": silver_ratio_squared(tol).decimal(), "scope_note": SCOPE_NOTE}, 0
    ex = build_example(args.k, tol)
    return {
        "k": ex.k,
        "p_k": ex.p_k,
        "q_k": ex.q_k,
        "char_poly": poly_to_json(ex.char_poly),
        "matrix": matrix_to_json(ex.matrix)["rows"],
        "root": ex.root.to_json(),
        "normalized": ex.normalized.to_json(),
        "exceeds_bound": True,  # build_example certifies this
    }, 0


def _cmd_traintrack(args) -> tuple[dict, int]:
    from .traintrack import track_from_json, track_report

    track = _parse_json_arg(args.file, track_from_json, "train track")
    return track_report(track), 0


def _check_threads(threads: int) -> None:
    cpus = os.cpu_count() or 1
    if not 1 <= threads <= cpus:
        raise InputError(f"--threads must be between 1 and {cpus} (the CPU count), got {threads}")


def _class_json(c) -> dict:
    """One qualifying class of a search report."""
    return {
        "char_poly": str(c.char_poly),
        "normalized": c.normalized.decimal(),
        "matrices": c.matrix_count,
    }


def _cmd_search(args) -> tuple[dict, int]:
    from .matrices import matrix_to_json
    from .roots import silver_ratio_squared
    from .search import SearchConfig, run_search

    cfg = SearchConfig(n=args.n, max_entry=args.max_entry, tol=args.tol)
    result = run_search(cfg, threads=args.threads)
    payload = {
        "n": cfg.n,
        "max_entry": cfg.max_entry,
        "count_scanned": result.count_scanned,
        "count_qualifying": result.count_qualifying,
        "classes": [_class_json(c) for c in result.classes],
        "minimum": None
        if result.minimum is None
        else {
            "char_poly": str(result.minimum.char_poly),
            "normalized": result.minimum.normalized.decimal(),
            "matrix": matrix_to_json(result.minimum.least_matrix)["rows"],
        },
        "violations": [_class_json(c) for c in result.violations],
        "bound": silver_ratio_squared(args.tol).decimal(),
        "scope_note": result.scope_note,
    }
    return payload, 1 if (args.n >= 4 and result.violations) else 0


def _cmd_repro(args) -> tuple[dict, int]:
    from . import repro

    _check_threads(args.threads)
    if args.target == "thm-main":
        payload = repro.thm_main(args.tol, args.threads)
    else:
        payload = repro.set_theorem(args.tol)
    return payload, 0 if payload["pass"] else 1


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stretch-lab",
        description="Exact spectral analysis of skew-reciprocal integer matrices.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=True):
        if tol:
            p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="enclosure width bound (default 2^-40, about 9.09e-13)")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", help="write the report to this path instead of stdout")

    p = sub.add_parser("classify", help="spectral classification of a polynomial")
    p.add_argument("--poly", required=True, help="inline JSON or path: {\"coeffs\": [\"c0\", ...]}")
    common(p)
    p.set_defaults(func=_cmd_classify)

    matrix_help = 'matrix JSON, inline or a path: {"rows": [["a11", ...], ...]}'

    p = sub.add_parser("matrix", help="analyze one integer matrix")
    p.add_argument("--matrix", "--file", required=True, help=matrix_help)
    common(p)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("curve-graph", help="curve graph, clique polynomial, growth rate")
    p.add_argument("--matrix", "--file", required=True, help=matrix_help)
    common(p)
    p.set_defaults(func=_cmd_curve_graph)

    p = sub.add_parser("family", help="enumerate admissible family polynomials")
    p.add_argument("--n", type=int, required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--forms", help="comma list of 2A1,3A1,4A1,5A1,AStar2 (default all)")
    which.add_argument("--scan", help="monotonicity scan branch: 3A1, 4A1 or 5A1")
    p.add_argument("--d", help="scan parameter range, e.g. 0..5")
    p.add_argument("--report", dest="out", help="write the report to this path")
    common(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("sharpness", help="the 2k x 2k family approaching the bound")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--k", type=int)
    which.add_argument("--table", help="range of k, e.g. 2..40")
    common(p)
    p.set_defaults(func=_cmd_sharpness)

    p = sub.add_parser("traintrack", help="train-track report from a JSON file")
    p.add_argument("--file", required=True)
    common(p, tol=False)  # no certified enclosure in the report
    p.set_defaults(func=_cmd_traintrack)

    p = sub.add_parser("search", help="exhaustive matrix search against the bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-entry", type=int, default=1)
    p.add_argument("--threads", type=int, default=1, help="worker processes, 1 to the CPU count")
    common(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("repro", help="reproduce a paper-level claim end to end")
    p.add_argument("target", choices=("thm-main", "set-theorem"))
    p.add_argument("--threads", type=int, default=1, help="worker processes, 1 to the CPU count")
    common(p)
    p.set_defaults(func=_cmd_repro)

    return parser


def main(argv=None) -> int:
    # reports print exact integers of any size, past Python's default
    # int <-> str digit limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
        _emit(payload, args)
        return code
    except (InputError, OSError, BudgetExceededError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SeparationError as exc:
        # the certified comparison ran out of refinements: neither pass nor fail
        print(f"undecided: {exc}", file=sys.stderr)
        return 3
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except Exception:
        # any other exception, ArithmeticErrors included, is a bug, not a verdict
        import traceback

        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
