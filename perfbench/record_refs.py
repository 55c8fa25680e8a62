#!/usr/bin/env python3
"""Record the verifier's reference answers into perfbench/refs.json.

Run from the root of a source tree whose answers are trusted (the commit
that introduced this benchmark): ``python3 perfbench/record_refs.py``.
It runs every fixed operation of `families`, `search` and `sharpness`, and
`traintrack` on one polygon track of each witness size, and stores only the
representation-independent fields (``verify.canonical``) with the exit code.
An operation that fails at recording time gets no reference; the verifier
then checks it by closed form alone (``sharpness --k 200``).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import verify  # noqa: E402
import workloads  # noqa: E402


def run_cli(args: list[str]) -> tuple[int, bytes]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("STRETCHLAB_")}
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    proc = subprocess.run([sys.executable, "-m", "stretchlab.cli", *args], capture_output=True, env=env)
    return proc.returncode, proc.stdout


def main() -> int:
    refs = {}
    ops = [op for w in ("families", "search", "sharpness") for op in workloads.fixed_ops(w)]
    for op in ops:
        code, out = run_cli(list(op.argv))
        if code != 0 or not out:
            print(f"no reference for {op.key!r}: exit {code}")
            continue
        refs[op.key] = {"exit": code, "out": verify.canonical(op.kind, json.loads(out))}
        print(f"recorded {op.key!r}")
    rng = random.Random(0)
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        for n in workloads.TRACK_SIZES:
            path = Path(tmp) / "track.json"
            path.write_text(json.dumps(workloads.polygon_track(rng, n)))
            code, out = run_cli(["traintrack", "--file", str(path)])
            key = f"polygon {n}"
            refs[key] = {"exit": code, "out": verify.canonical("traintrack", json.loads(out))}
            print(f"recorded {key!r}")
    lines = [f"{json.dumps(key)}: {json.dumps(refs[key], sort_keys=True)}" for key in sorted(refs)]
    (HERE / "refs.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
