#!/usr/bin/env python3
"""Time the hot kernels: the pure-Python twin, and the compiled module when built.

Runs the same workloads through every available backend and prints a table
of timings, with a speedup column when the compiled module imports.  The
outputs are asserted equal along the way, so with both backends this
doubles as a coarse differential check.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [--quick]
"""

import argparse
import random
import time

from stretchlab._kernels import _pure
from stretchlab.sharpness import build_matrix

try:
    from stretchlab._kernels import _speedups
except ImportError:
    _speedups = None


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def bench_charpoly(impl, matrices):
    return [impl.charpoly(rows) for rows in matrices]


def bench_scan(impl, n, max_entry):
    total = (max_entry + 1) ** (n * n)
    return impl.scan_primitive_unit_det(n, max_entry, 0, total, True)


def bench_clique_identity(impl, matrices):
    return [impl.clique_identity_holds(rows, 10**5, 10**6) for rows in matrices]


def bench_cycles(impl, matrices):
    return [impl.simple_cycle_classes(rows, 10**5) for rows in matrices]


def bench_digraph(impl, matrices):
    return [impl.digraph_structure(rows) for rows in matrices]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    args = parser.parse_args()

    rng = random.Random(2024)
    n_mats = 300 if args.quick else 2000
    charpoly_mats = [
        [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)] for _ in range(n_mats)
    ]
    clique_mats = [
        [[rng.randint(0, 2) for _ in range(4)] for _ in range(4)]
        for _ in range(n_mats // 2)
    ]
    digraph_mats = [
        [[int(rng.random() < 0.35) for _ in range(6)] for _ in range(6)]
        for _ in range(n_mats)
    ]
    sharpness_mats = [build_matrix(k).rows for k in (50, 100, 150, 200)]

    workloads = [
        (f"charpoly 5x5 x{n_mats}", lambda i: bench_charpoly(i, charpoly_mats)),
        ("scan n=3 entries<=1 (512)", lambda i: bench_scan(i, 3, 1)),
        ("scan n=4 entries<=1 (65536)", lambda i: bench_scan(i, 4, 1)),
        (f"clique identity 4x4 x{len(clique_mats)}", lambda i: bench_clique_identity(i, clique_mats)),
        (f"cycle classes 4x4 x{len(clique_mats)}", lambda i: bench_cycles(i, clique_mats)),
        (f"digraph structure 6x6 x{n_mats}", lambda i: bench_digraph(i, digraph_mats)),
        ("digraph structure sharpness k=50..200", lambda i: bench_digraph(i, sharpness_mats)),
    ]

    if _speedups is None:
        print("compiled kernels not built; timing the pure backend alone")
        print(f"{'workload':<38} {'pure':>10}")
    else:
        print(f"{'workload':<38} {'pure':>10} {'compiled':>10} {'speedup':>9}")
    for name, job in workloads:
        t_pure, out_pure = timed(lambda: job(_pure))
        if _speedups is None:
            print(f"{name:<38} {t_pure:>9.3f}s")
            continue
        t_fast, out_fast = timed(lambda: job(_speedups))
        assert out_pure == out_fast, f"backend mismatch in {name}"
        print(f"{name:<38} {t_pure:>9.3f}s {t_fast:>9.3f}s {t_pure / t_fast:>8.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
