"""Span arithmetic of the tracer, and its installation on a real CLI run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


def test_self_time_of_nested_calls():
    # outer runs 0..10 and calls inner over 1..3 and 4..7: 5 s of child spans
    tracer = Tracer(clock=FakeClock(0, 1, 3, 4, 7, 10))
    inner = tracer.wrap("m.inner", lambda: None)

    def outer_body():
        inner()
        inner()

    outer = tracer.wrap("m.outer", outer_body)
    outer()
    assert tracer.stats["m.outer"] == [1, 5]
    assert tracer.stats["m.inner"] == [2, 5]
    assert tracer.callers[("", "m.outer")] == 1
    assert tracer.callers[("m.outer", "m.inner")] == 2


def test_recursive_span_counts_self_time_once():
    # f(2) spans 0..9, f(1) 1..6, f(0) 2..3: self times 4 + 4 + 1
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 6, 9))

    def body(n):
        if n:
            traced(n - 1)

    traced = tracer.wrap("m.f", body)
    traced(2)
    assert tracer.stats["m.f"] == [3, 9]


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock(0, 2, 3, 7))

    def fail():
        raise ValueError("boom")

    failing = tracer.wrap("m.fail", fail)

    def guarded():
        with pytest.raises(ValueError):
            failing()

    tracer.wrap("m.outer", guarded)()
    assert tracer.stats["m.fail"] == [1, 1]
    assert tracer.stats["m.outer"] == [1, 6]


def test_installed_on_copies_and_methods(tmp_path):
    stats = tmp_path / "stats.json"
    poly = json.dumps({"coeffs": ["-1", "-2", "-1", "0", "1"]})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(stats), "classify", "--poly", poly],
        capture_output=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["core"] == {"coeffs": ["-1", "-1", "1"]}
    report = json.loads(stats.read_text())
    calls = {name: n for name, (n, _) in report["stats"].items()}
    assert calls["cli.main"] == 1
    # classify.py calls divrem through its own `from .poly import divrem` copy
    assert calls["classify.strip_cyclotomic"] == 1
    assert calls["poly.divrem"] > 0
    assert calls["poly.sign_at"] > 0  # IntPolynomial.sign_at, a method
    assert calls["roots.to_json"] == 1
    assert report["outcomes"]["classify.strip_cyclotomic.hit"] == 1
