#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `stretch-lab` CLI.

Usage, from the root of a source tree::

    python3 perfbench/run.py --workload families --seed 1 --seconds 25 --trace 0

Every operation runs as a fresh ``python -m stretchlab.cli`` process with
``PYTHONPATH=src`` and is timed from outside, so caches are cold on every
operation, as they are for a user.  Operations run closed-loop: one client,
one operation at a time, ``--threads 1`` (the CLI default).  A first pass
runs the workload's operation list once; the run then repeats operations,
least time spent first, while their last time still fits in ``--seconds``.  Every
output is checked by ``verify.py`` outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes run under ``tracer.py`` and reports the
per-layer metrics, plus the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The benchmark never builds the compiled extension; it
measures whichever kernel backend the tree selects at import, and records
it.  See README.md for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import verify  # noqa: E402
import workloads  # noqa: E402

#: Interpreter cold starts timed for ``setup_s``, half before and half after the passes.
SETUP_STARTS = 12
#: No single operation may run longer than this.
OP_TIMEOUT_S = 150.0
#: Working directory for operation outputs and input files, inside the source tree.
WORK_DIR = ".perfbench_tmp"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

#: Per-layer metrics: (name, unit).  ``<fn>.calls`` and ``<fn>.self_s`` come
#: from the spans of traced function ``<fn>``; the rest are computed in
#: ``layer_metrics``.
PER_LAYER = [
    ("poly.divrem.calls", "count"),
    ("poly.divrem.self_s", "s"),
    ("poly.divrem.exact_ratio", "ratio"),
    ("poly.poly_gcd.calls", "count"),
    ("poly.poly_gcd.self_s", "s"),
    ("poly.pseudo_rem.self_s", "s"),
    ("poly.sign_at.calls", "count"),
    ("classify.strip_cyclotomic.calls", "count"),
    ("classify.strip_cyclotomic.self_s", "s"),
    ("classify.strip_cyclotomic.hit_ratio", "ratio"),
    ("classify.is_skew_reciprocal_up_to_cyclotomic.calls", "count"),
    ("roots.largest_real_root.calls", "count"),
    ("roots.largest_real_root.self_s", "s"),
    ("roots.sturm_chain.self_s", "s"),
    ("roots.sturm_chain.hit_ratio", "ratio"),
    ("roots.refined.calls", "count"),
    ("roots.compare_enclosures.calls", "count"),
    ("roots.compare_enclosures.self_s", "s"),
    ("roots.compare_power_to_silver_squared.calls", "count"),
    ("roots.compare_power_to_silver_squared.self_s", "s"),
    ("roots.to_json.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("matrices.determinant.calls", "count"),
    ("matrices.determinant.self_s", "s"),
    ("matrices.char_poly.calls", "count"),
    ("matrices.char_poly.self_s", "s"),
    ("matrices.is_primitive.self_s", "s"),
    ("matrices.spectral_radius.self_s", "s"),
    ("kernels.determinant.calls", "count"),
    ("kernels.determinant.self_s", "s"),
    ("kernels.scan_primitive_unit_det.self_s", "s"),
    ("kernels.scan.survivor_ratio", "ratio"),
    ("kernels.charpoly.calls", "count"),
    ("kernels.charpoly.self_s", "s"),
    ("kernels.decode_matrix.calls", "count"),
    ("kernels.simple_cycle_classes.self_s", "s"),
    ("search.run_search.self_s", "s"),
    ("search.distinct_chi", "count"),
    ("search.qualifying_ratio", "ratio"),
    ("families.admissibility_report.calls", "count"),
    ("families.admissible_ratio", "ratio"),
    ("sharpness.build_example.calls", "count"),
    ("sharpness.build_example.self_s", "s"),
    ("curvegraph.curve_graph.self_s", "s"),
    ("curvegraph.clique_polynomial.self_s", "s"),
    ("curvegraph.growth_rate.self_s", "s"),
    ("traintrack.weight_space.calls", "count"),
    ("traintrack.weight_space.self_s", "s"),
    ("traintrack.gram_form.calls", "count"),
    ("traintrack.gram_form.self_s", "s"),
    ("traintrack.radical.calls", "count"),
    ("traintrack.radical.self_s", "s"),
    ("traintrack.boundary_components.calls", "count"),
    ("traintrack.boundary_components.self_s", "s"),
    ("traintrack.thurston_form.calls", "count"),
] + [(f"{prefix}.self_s", "s") for prefix in (
    "poly", "roots", "classify", "matrices", "kernels", "search",
    "families", "sharpness", "curvegraph", "traintrack", "cli",
)] + [("trace.overhead_s", "s")]


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, the CLI will not import)."""


@dataclass
class OpResult:
    index: int  # position of the operation in the workload's list
    op: workloads.Op
    wall: float
    cpu: float
    rss_kb: int
    code: int
    out_bytes: int
    problems: list[str]
    answered: bool  # printed a JSON report, right or wrong
    trace: dict | None = None

    @property
    def ok(self) -> bool:
        return self.answered and not self.problems

    @property
    def wrong(self) -> bool:
        return self.answered and bool(self.problems)


@dataclass
class Pass:
    traced: bool
    results: list[OpResult] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.results)


@dataclass
class Child:
    wall: float  # seconds
    cpu: float  # user + sys seconds
    rss_kb: int
    code: int
    out_path: Path


class Runner:
    """Starts each child process, times it from outside and reaps it."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        env = {k: v for k, v in os.environ.items() if not k.startswith("STRETCHLAB_")}
        env["PYTHONPATH"] = str(root / "src")
        self.env = env

    def run(self, argv: list[str], stem: str, timeout: float) -> Child:
        """Run one child to its end."""
        out_path = self.workdir / f"{stem}.out"
        err_path = self.workdir / f"{stem}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    env=self.env, cwd=self.root)
            lock = threading.Lock()

            def kill():
                with lock:
                    if proc.returncode is None:
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(max(timeout, 1.0), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                with lock:
                    proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                timer.join()
        cpu = usage.ru_utime + usage.ru_stime
        return Child(wall, cpu, usage.ru_maxrss, proc.returncode, out_path)

    def cold_start(self) -> Child:
        argv = [sys.executable, "-c", "import stretchlab.cli"]
        child = self.run(argv, "setup", 60.0)
        if child.code != 0:
            raise BenchError(f"`import stretchlab.cli` exited {child.code}")
        return child


def environment(root: Path, backend: str, args, ops) -> dict:
    """What a reader needs to compare two results: backend, interpreter, machine, tree."""
    src = root / "src" / "stretchlab"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return {
        "backend": backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(root),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": [op.label for op in ops],
    }


def git_revision(root: Path) -> str | None:
    """HEAD of the tree's own .git, read directly (a checkout may have none)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_op(runner: Runner, ops, i: int, refs: dict, traced: bool, deadline: float) -> OpResult:
    """Run operation ``i`` once (under the tracer if ``traced``) and check its answer."""
    op = ops[i]
    for name, text in op.files:
        (runner.workdir / name).write_text(text)
    cli_args = [a.replace("{dir}", str(runner.workdir)) for a in op.argv]
    stats_path = runner.workdir / f"op{i}.trace.json"
    stats_path.unlink(missing_ok=True)
    if traced:
        argv = [sys.executable, str(HERE / "tracer.py"), str(stats_path), *cli_args]
    else:
        argv = [sys.executable, "-m", "stretchlab.cli", *cli_args]
    timeout = min(OP_TIMEOUT_S, deadline - time.monotonic())
    child = runner.run(argv, f"op{i}", timeout)
    stdout = child.out_path.read_bytes()
    problems = verify.check(op, child.code, stdout, refs)
    try:
        json.loads(stdout)
        answered = True
    except ValueError:
        answered = False
    trace = json.loads(stats_path.read_text()) if traced and stats_path.exists() else None
    return OpResult(i, op, child.wall, child.cpu, child.rss_kb, child.code, len(stdout), problems, answered, trace)


def run_pass(runner: Runner, ops, refs: dict, traced: bool, deadline: float) -> Pass:
    """Every operation once, in order."""
    result = Pass(traced=traced)
    for i in range(len(ops)):
        if time.monotonic() > deadline:
            break  # an operation hung; the rest of this pass is not attempted
        result.results.append(run_op(runner, ops, i, refs, traced, deadline))
    return result


def run_cycles(runner: Runner, ops, refs: dict, seconds: float, deadline: float) -> list[OpResult]:
    """A full first pass, then repeats while time is left.

    After the first pass the operation with the least wall time spent on it
    so far runs next, among those whose last wall time still fits in
    ``seconds``.  Time, not runs, is balanced: a cheap operation, whose
    single timings jitter most, collects many samples, an expensive one a
    few.  Each operation's metrics are medians over its own samples.
    """
    start = time.monotonic()
    first = run_pass(runner, ops, refs, False, deadline)
    print(f"pass 1: wall {first.wall:.3f} s, {len(first.results)} ops")
    results = list(first.results)
    last = {r.index: r.wall for r in results}
    spent = dict(last)
    while True:
        now = time.monotonic()
        fits = [i for i in last if now - start + last[i] <= seconds and now + last[i] <= deadline]
        if not fits:
            return results
        i = min(fits, key=lambda j: (spent[j], j))
        r = run_op(runner, ops, i, refs, False, deadline)
        results.append(r)
        last[i] = r.wall
        spent[i] += r.wall


def by_op(results: list[OpResult]) -> list[list[OpResult]]:
    """The runs of each operation, in the workload's order.

    Metrics take a median per operation and then sum or rank those, so that
    one slow run of one operation cannot move the total, and operations that
    got more runs than others do not weigh more.
    """
    groups: dict[int, list[OpResult]] = {}
    for r in results:
        groups.setdefault(r.index, []).append(r)
    return [groups[i] for i in sorted(groups)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its operations."""
    calls: dict[str, float] = {}
    self_s: dict[str, float] = {}
    outcomes: dict[str, float] = {}
    distinct_chi = hits = misses = 0
    for r in p.results:
        if r.trace is None:
            continue
        for name, (n, s) in r.trace["stats"].items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + s
        for name, n in r.trace["outcomes"].items():
            outcomes[name] = outcomes.get(name, 0) + n
        distinct_chi += r.trace["distinct_chi"]
        hits += r.trace["sturm_cache"]["hits"]
        misses += r.trace["sturm_cache"]["misses"]
    derived = {
        "poly.divrem.exact_ratio": _ratio(outcomes.get("poly.divrem.exact", 0), calls.get("poly.divrem", 0)),
        "classify.strip_cyclotomic.hit_ratio": _ratio(
            outcomes.get("classify.strip_cyclotomic.hit", 0), calls.get("classify.strip_cyclotomic", 0)
        ),
        "roots.sturm_chain.hit_ratio": _ratio(hits, hits + misses),
        "kernels.scan.survivor_ratio": _ratio(
            outcomes.get("kernels.scan.survivors", 0), outcomes.get("kernels.scan.scanned", 0)
        ),
        "search.distinct_chi": distinct_chi,
        "search.qualifying_ratio": _ratio(
            outcomes.get("search.qualifying", 0), outcomes.get("kernels.scan.survivors", 0)
        ),
        "families.admissible_ratio": _ratio(
            outcomes.get("families.admissible", 0), calls.get("families.admissibility_report", 0)
        ),
        "cli.output_bytes": sum(r.out_bytes for r in p.results),
    }
    metrics = {}
    for name, _ in PER_LAYER:
        if name in derived:
            metrics[name] = derived[name]
        elif name.endswith(".calls"):
            metrics[name] = calls.get(name[: -len(".calls")], 0)
        elif name.count(".") == 1 and name.endswith(".self_s"):
            prefix = name.split(".")[0] + "."
            metrics[name] = sum(s for fn, s in self_s.items() if fn.startswith(prefix))
        elif name.endswith(".self_s"):
            metrics[name] = self_s.get(name[: -len(".self_s")], 0.0)
    return metrics


def top_self_times(p: Pass, count: int = 12) -> list[tuple[str, float, float]]:
    totals: dict[str, float] = {}
    for r in p.results:
        for name, (_, s) in (r.trace or {"stats": {}})["stats"].items():
            totals[name] = totals.get(name, 0.0) + s
    whole = sum(totals.values()) or 1.0
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:count]
    return [(name, s, s / whole) for name, s in ranked]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "stretchlab" / "cli.py").is_file():
        print("error: run from the root of a stretchlab source tree (src/stretchlab/cli.py not found)",
              file=sys.stderr)
        return 2
    workdir = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return bench(args, root, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass


def run_traced_passes(runner: Runner, ops, refs: dict, seconds: float, deadline: float) -> list[Pass]:
    """Untraced and traced passes in turn, at least one of each, while the next fits."""
    passes: list[Pass] = []
    start = time.monotonic()
    while True:
        traced = len(passes) % 2 == 1
        p = run_pass(runner, ops, refs, traced, deadline)
        passes.append(p)
        print(f"pass {len(passes)} ({'traced' if traced else 'untraced'}): wall {p.wall:.3f} s")
        if len(passes) < 2:
            continue
        same = [q.wall for q in passes if q.traced == (len(passes) % 2 == 1)]
        now = time.monotonic()
        if now - start + median(same) > seconds or now + 2 * max(same) > deadline:
            return passes


def bench(args, root: Path, workdir: Path) -> int:
    started = time.monotonic()
    deadline = started + 170.0
    refs = json.loads((HERE / "refs.json").read_text())
    ops = workloads.build(args.workload, args.seed)
    runner = Runner(root, workdir)

    # Untimed warm-up: writes the bytecode caches and reads the backend.
    probe = "import stretchlab.cli, stretchlab._kernels as k; print(k.BACKEND)"
    probed = runner.run([sys.executable, "-c", probe], "probe", 60.0)
    if probed.code != 0:
        raise BenchError(f"stretchlab does not import (exit {probed.code})")
    backend = probed.out_path.read_text().strip()
    env = environment(root, backend, args, ops)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    setup = [runner.cold_start() for _ in range(SETUP_STARTS // 2)]
    if args.trace:
        passes = run_traced_passes(runner, ops, refs, args.seconds, deadline)
        plain = [r for p in passes if not p.traced for r in p.results]
        results = [r for p in passes for r in p.results]
    else:
        plain = results = run_cycles(runner, ops, refs, args.seconds, deadline)
    setup += [runner.cold_start() for _ in range(SETUP_STARTS - len(setup))]

    # An operation is one distinct query of the workload; its repeats are
    # further timing samples.  It counts as failed if any of its runs failed,
    # so the counts depend on the program, not on how many repeats fit.
    runs_by_op = by_op(results)
    for runs in runs_by_op:
        bad = [r for r in runs if not r.ok]
        if bad:
            detail = "; ".join(bad[0].problems)
            print(f"FAILED {len(bad)} of {len(runs)} runs of [{bad[0].op.label[:80]}]: exit {bad[0].code}, {detail}")
    attempted = len(runs_by_op)
    failed = sum(any(not r.ok for r in runs) for runs in runs_by_op)
    correct = not any(r.wrong for r in results)

    groups = by_op(plain)
    op_wall = [median([r.wall for r in g]) for g in groups]
    e2e = {
        "setup_s": median([c.wall for c in setup]),
        "wall_s": sum(op_wall),
        "op_p50_s": median(op_wall),
        "cpu_s": sum(median([r.cpu for r in g]) for g in groups),
        "peak_rss_mb": max(median([r.rss_kb for r in g]) for g in groups) / 1024,
        "success_ratio": statistics.fmean(statistics.fmean(r.ok for r in g) for g in runs_by_op),
    }
    summed = f"sum over {len(op_wall)} operations of each one's median ({len(plain)} samples)"
    samples = {
        "setup_s": f"median of {len(setup)} interpreter starts",
        "wall_s": summed,
        "op_p50_s": f"median over {len(op_wall)} operations of the same per-operation medians",
        "cpu_s": summed,
        "peak_rss_mb": f"largest per-operation median of {len(op_wall)} operations",
        "success_ratio": f"mean over {len(ops)} operations of each one's share of verified runs",
    }
    for g, wall in zip(groups, op_wall):
        print(f"  {wall:9.3f} s median of {len(g):2d} runs  {g[0].op.label[:70]}")
    for name, value in e2e.items():
        print(f"{name:14s} {value:12.4f} {END_TO_END[name]:5s} ({samples[name]})")
    error_rate = 1 - e2e["success_ratio"]
    print(f"{'error_rate':14s} {error_rate:12.4f} ratio (1 - success_ratio; {failed} of {attempted} operations "
          f"failed over {len(results)} runs)")

    if args.trace:
        traced_passes = [p for p in passes if p.traced]
        per_pass = [layer_metrics(p) for p in traced_passes]
        metrics_values = {name: median([m[name] for m in per_pass]) for name, _ in PER_LAYER
                          if name != "trace.overhead_s"}
        traced_runs = [r for p in traced_passes for r in p.results]
        traced_wall = sum(median([r.wall for r in g]) for g in by_op(traced_runs))
        metrics_values["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        print(f"traced wall {traced_wall:.3f} s vs untraced {e2e['wall_s']:.3f} s")
        print("largest self times of the traced pass (share of all traced self time):")
        for name, s, share in top_self_times(traced_passes[0]):
            print(f"  {name:50s} {s:9.3f} s {100 * share:5.1f} %")
        units = dict(PER_LAYER)
    else:
        metrics_values = e2e
        units = END_TO_END

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics_values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
