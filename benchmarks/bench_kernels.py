#!/usr/bin/env python3
"""Time the hot kernels, the orbit search, the cyclotomic polynomials, the
cyclotomic stripping and the root isolation beside the test suite's
references.

The search rows time ``run_search`` (one matrix per orbit of
S_n x <transpose>) and the brute-force reference, which walks and filters
every matrix of the slice.  The scan rows time the last level of the orbit
search, ``scan_orbits`` (each parent factored once, so |det| and the char
poly of every extension come from bordering), and the reference scan, which
tests canonicity on every extension and filters each canonical one with a
Bareiss determinant and a full char poly.  The cyclotomic row builds every
Phi_m with phi(m) <= 60 from a cold cache, by ``cyclotomic`` (t^m - 1 over
the Phi_d of the proper divisors) and by the Moebius product of the
reference.  The pairwise-product rows build the polynomial whose roots are
the products a_i a_j (i <= j) of the eigenvalues of a signed n x n matrix,
n = 6, 8, 10, 12, as the signed-matrix gate of ``spectral_radius`` does
(power sums (s_k^2 + s_2k)/2 of chi's power sums s_k, then Newton's
identities) and by the reference route, the char poly of the
n(n+1)/2-square matrix Sym^2 A.  The stripping row times ``strip_cyclotomic``
(which divides only where Phi_m(2) divides the value at 2) and plain trial
division on the parity survivors of the five families at n = 16.  The
root-above-one rows time ``largest_root_above_one`` (read off the one
enclosure of ``largest_real_root``) and the reference, which counts roots on
(1, CauchyBound] before it isolates, on those survivors and on the distinct
char polys that ``scan_orbits`` finds for n = 4 over {0, 1}.  The
root-isolation rows time ``largest_real_root`` (the one-sign-change route
where it applies, else one remainder sequence per polynomial, lazy
pseudo-division, sparse Horner) and the two-pass eager reference on the
sharpness char polys and the admissible n = 16 family polynomials.  The
one-sign-change rows time ``largest_real_root`` on the sharpness char poly
at k = 200, 400 and 800 (modular square-free gate, then sign bisection of
(0, CauchyBound]) against the Sturm route from a cold chain cache, and the
gate alone; the enclosures are asserted equal.  The JSON row times the
CLI's streaming writer and ``json.JSONEncoder(indent=2, sort_keys=True)`` on
the ``sharpness --k`` reports.  The train-track rows time ``track_report`` on the infinitesimal
n-gon with a real loop per vertex, n = 10, 20, 30: integer elimination for
the weight space, the Gram matrix B F B^T and its kernel.  Their weight-space
and radical dimensions are asserted against sympy ranks, with the skew form
summed from its definition.  Each row's results are asserted equal.

The comparator rows time ``compare_power_to_silver_squared`` (the signs of
t^(2e) - 6t^e + 1 at the ends of the enclosure) and the reference interval
comparator (powers of the enclosure against an enclosure of 3 + 2*sqrt(2))
on the sharpness roots at e = 2k = 100, 400 and 800, best of five; their
sides are asserted equal.  The curve-graph row times ``curve_graph_report``
on the 4 x 4 matrix of 4s (2,160 curves), whose edges come from class
pairs, and the same report with the edges listed from the pairwise
definition; the reports are asserted equal.  The curve-graph walk rows time
``CurveGraph.edges`` and ``clique_polynomial`` on the n x n 0/1 matrix with
0 -> i, i -> 0 and i -> j for 0 < i < j (2^(n-1) - 1 classes, all through
vertex 0, no edges), n = 11 and 13 (``--quick``: 11); the edges are asserted
equal to the pairwise definition at n = 11, the clique polynomial to the
reversed char poly.  The normalized-radius row times
``normalized_spectral_radius`` on [[10^1500, 1, 0], [0, 0, 1], [1, 0, 0]]
(``--quick``: 10^300), which jumps the refinement rounds the power cannot
end, against the round-by-round loop of ``tests/matrix_reference.py``; the
intervals are asserted equal.

The start-up rows time fresh interpreters: a bare ``python -c pass``,
``import stretchlab.cli``, one small ``classify``, ``matrix``,
``curve-graph`` and ``traintrack`` query and ``repro set-theorem``, each the
median of several runs.
They inherit the environment, so ``PYTHONDONTWRITEBYTECODE=1`` makes every
run compile the sources it imports, as each operation of ``perfbench`` does.

The char poly rows time general shapes (neither upper Hessenberg nor its
transpose) at 5x5, 8x8 and 30x30, where ``charpoly`` folds the bordering
step over the leading principal submatrices.

Usage: PYTHONPATH=src python benchmarks/bench_kernels.py [--quick] [--startup-only]
"""

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import combinations
from pathlib import Path

import sympy

import stretchlab
from stretchlab import _kernels, cli, roots
from stretchlab.classify import parity_condition, strip_cyclotomic
from stretchlab.curvegraph import (
    CurveGraph,
    clique_polynomial,
    curve_graph,
    curve_graph_report,
    cycle_classes,
    verify_clique_identity,
)
from stretchlab.families import ALL_FORMS, _form_instances, enumerate_admissible, instantiate
from stretchlab.matrices import IntMatrix, char_poly, normalized_spectral_radius, spectral_radius
from stretchlab.poly import (
    IntPolynomial,
    cyclotomic,
    cyclotomic_indices_up_to_degree,
    from_power_sums,
    power_sums,
)
from stretchlab.roots import (
    DEFAULT_TOL,
    compare_power_to_silver_squared,
    largest_real_root,
    largest_root_above_one,
    sturm_chain,
)
from stretchlab.search import SearchConfig, canonical_codes, run_search, scan_orbits
from stretchlab.sharpness import build_matrix, expected_char_poly
from stretchlab.traintrack import switch_matrix, track_report, track_to_json

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import poly_reference  # noqa: E402
from conftest import bigon_track, polygon_track  # noqa: E402
from cyclotomic_reference import moebius_cyclotomic, strip_by_trial_division  # noqa: E402
from matrix_reference import (  # noqa: E402
    pairwise_edges,
    round_by_round_power,
    symmetric_square,
)
from search_reference import brute_force_search, reference_scan_orbits  # noqa: E402


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def sympy_track_dims(track) -> tuple[int, int]:
    """(weight-space dim, radical dim) from sympy ranks; omega from its definition."""
    basis = sympy.Matrix(switch_matrix(track)).nullspace()
    edge_of = {h: i for i, e in enumerate(track.edges) for h in e.ends}
    # every same-side pair, left half-edge first
    pairs = [
        (edge_of[a], edge_of[b])
        for v in track.vertices
        for side in v
        for a, b in combinations(side, 2)
    ]
    gram = sympy.Matrix(
        [[sum(u[i] * v[j] - u[j] * v[i] for i, j in pairs) for v in basis] for u in basis]
    )
    return len(basis), len(basis) - gram.rank()


def best_of(runs: int, fn):
    """The least time of ``runs`` calls, and the last result."""
    times, out = [], None
    for _ in range(runs):
        t, out = timed(fn)
        times.append(t)
    return min(times), out


def through_zero(n: int) -> IntMatrix:
    """The 0/1 matrix with 0 -> i, i -> 0 and i -> j for 0 < i < j: every cycle meets 0."""
    return IntMatrix([[int(i == 0 < j or j == 0 < i or 0 < i < j) for j in range(n)] for i in range(n)])


def pairwise_product_poly(chi):
    """The polynomial of the pairwise root products of chi, from its power sums."""
    s = power_sums(chi, chi.degree() * (chi.degree() + 1))
    return from_power_sums([(s[k] ** 2 + s[2 * k + 1]) // 2 for k in range(len(s) // 2)])


def squares(rng, n: int, count: int):
    """``count`` random n x n matrices over -3..3: general shapes, not Hessenberg."""
    return [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)] for _ in range(count)]


def startup_rows(runs: int) -> None:
    """Median wall time of fresh interpreters, bare and with one small query each."""
    env = dict(os.environ, PYTHONPATH=str(Path(stretchlab.__file__).resolve().parent.parent))
    matrix = json.dumps({"rows": [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]})
    with tempfile.TemporaryDirectory() as tmp:
        track = Path(tmp, "track.json")
        track.write_text(json.dumps(track_to_json(bigon_track())))
        cli = [sys.executable, "-m", "stretchlab.cli"]
        rows = [
            ("python -c pass", [sys.executable, "-c", "pass"]),
            ("import stretchlab.cli", [sys.executable, "-c", "import stretchlab.cli"]),
            ("classify (degree 4)", cli + ["classify", "--poly", '{"coeffs":["-1","-2","-1","0","1"]}']),
            ("matrix 4x4", cli + ["matrix", "--matrix", matrix]),
            ("curve-graph 4x4", cli + ["curve-graph", "--matrix", matrix]),
            ("traintrack bigon", cli + ["traintrack", "--file", str(track)]),
            ("repro set-theorem", cli + ["repro", "set-theorem"]),
        ]
        bytecode = "off" if env.get("PYTHONDONTWRITEBYTECODE") else "on"
        print(f"{'start-up (bytecode writes ' + bytecode + ')':<38} {'median':>10} {'runs':>5}")
        for name, argv in rows:
            walls = []
            for _ in range(runs):
                start = time.perf_counter()
                subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)
                walls.append(time.perf_counter() - start)
            print(f"{name:<38} {statistics.median(walls):>9.3f}s {runs:>5}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    parser.add_argument("--startup-only", action="store_true", help="only the start-up rows")
    args = parser.parse_args()

    startup_rows(5 if args.quick else 15)
    if args.startup_only:
        return 0
    print()

    rng = random.Random(2024)
    n_mats = 300 if args.quick else 2000
    # general shapes, so charpoly folds the bordering step; the larger ones
    # draw from their own generator, so the other rows keep their inputs
    big = random.Random(2027)
    charpoly_mats = {
        5: squares(rng, 5, n_mats),
        8: squares(big, 8, n_mats * 3 // 20),
        30: squares(big, 30, 1 if args.quick else 3),
    }
    clique_mats = [
        [[rng.randint(0, 2) for _ in range(4)] for _ in range(4)]
        for _ in range(n_mats // 2)
    ]
    digraph_mats = [
        [[int(rng.random() < 0.35) for _ in range(6)] for _ in range(6)]
        for _ in range(n_mats)
    ]
    clique_matrices = [IntMatrix(r) for r in clique_mats]
    sharpness_ks = (50, 100, 150, 200)
    sharpness_mats = [build_matrix(k).rows for k in sharpness_ks]

    kernels = [
        *(
            (f"charpoly {n}x{n} x{len(m)}", lambda m=m: list(map(_kernels.charpoly, m)))
            for n, m in charpoly_mats.items()
        ),
        (
            f"clique identity 4x4 x{len(clique_mats)}",
            lambda: [verify_clique_identity(m) for m in clique_matrices],
        ),
        (
            f"cycle classes 4x4 x{len(clique_mats)}",
            lambda: [cycle_classes(m) for m in clique_matrices],
        ),
        (
            f"digraph structure 6x6 x{n_mats}",
            lambda: [_kernels.digraph_structure(r) for r in digraph_mats],
        ),
        (
            "digraph structure sharpness k=50..200",
            lambda: [_kernels.digraph_structure(r) for r in sharpness_mats],
        ),
    ]
    print(f"{'kernel':<38} {'time':>10}")
    for name, job in kernels:
        print(f"{name:<38} {timed(job)[0]:>9.3f}s")
    t_chi, chis = timed(lambda: [_kernels.charpoly(r) for r in sharpness_mats])
    assert chis == [expected_char_poly(k).coeffs for k in sharpness_ks]
    print(f"{'charpoly sharpness k=50..200':<38} {t_chi:>9.3f}s")

    reports = []
    for k in sharpness_ks:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["sharpness", "--k", str(k)]) == 0
        reports.append(json.loads(out.getvalue()))
    encoder = json.JSONEncoder(indent=2, sort_keys=True)
    t_writer, written = timed(lambda: ["".join(cli._json_chunks(r)) for r in reports])
    t_encoder, encoded = timed(lambda: ["".join(encoder.iterencode(r)) for r in reports])
    assert written == encoded, "the streaming writer differs from json.JSONEncoder"
    print(f"\n{'JSON report':<38} {'writer':>10} {'encoder':>10} {'ratio':>9}")
    name = "sharpness report JSON k=50..200"
    print(f"{name:<38} {t_writer:>9.3f}s {t_encoder:>9.3f}s {t_encoder / t_writer:>8.1f}x")

    slices = [(3, 1), (3, 2)] if args.quick else [(3, 1), (3, 2), (4, 1)]
    print(f"\n{'search':<38} {'orbits':>10} {'brute':>10} {'ratio':>9}")
    for n, max_entry in slices:
        cfg = SearchConfig(n=n, max_entry=max_entry)
        t_orbit, orbit = timed(lambda: run_search(cfg))
        t_brute, brute = timed(lambda: brute_force_search(cfg))
        assert orbit == brute, f"orbit search differs from brute force on {cfg}"
        name = f"n={n} entries<={max_entry} ({cfg.space_size})"
        print(f"{name:<38} {t_orbit:>9.3f}s {t_brute:>9.3f}s {t_brute / t_orbit:>8.1f}x")

    print(f"\n{'scan_orbits':<38} {'bordered':>10} {'reference':>10} {'ratio':>9}")
    for n, max_entry in ((4, 1), (3, 2)):
        parents = canonical_codes(n - 1, max_entry)
        t_scan, scanned = timed(lambda: scan_orbits(n, max_entry, parents))
        t_ref, reference = timed(lambda: reference_scan_orbits(n, max_entry, parents))
        assert scanned == reference, f"scan_orbits differs from the reference at n={n}"
        name = f"n={n} entries<={max_entry} x{len(parents)} parents"
        print(f"{name:<38} {t_scan:>9.3f}s {t_ref:>9.3f}s {t_ref / t_scan:>8.1f}x")

    indices = cyclotomic_indices_up_to_degree(60)
    cyclotomic.cache_clear()
    t_divisors, built = timed(lambda: [cyclotomic(m) for m in indices])
    t_moebius, reference = timed(lambda: [moebius_cyclotomic(m) for m in indices])
    assert built == reference, "cyclotomic differs from the Moebius product"
    print(f"\n{'cyclotomic':<38} {'divisors':>10} {'moebius':>10} {'ratio':>9}")
    name = f"cold cache phi(m)<=60 x{len(indices)}"
    print(f"{name:<38} {t_divisors:>9.3f}s {t_moebius:>9.3f}s {t_moebius / t_divisors:>8.1f}x")

    print(f"\n{'pairwise-product polynomial':<38} {'sums':>10} {'Sym^2':>10} {'ratio':>9}")
    for n in (6, 8, 10) if args.quick else (6, 8, 10, 12):
        a = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        chi = char_poly(a)
        t_sums, built = timed(lambda: pairwise_product_poly(chi))
        t_matrix, reference = timed(lambda: char_poly(symmetric_square(a)))
        assert built == reference, f"power sums differ from the Sym^2 char poly at n={n}"
        name = f"signed n={n} (degree {n * (n + 1) // 2})"
        print(f"{name:<38} {t_sums:>9.3f}s {t_matrix:>9.3f}s {t_matrix / t_sums:>8.1f}x")

    candidates = {
        instantiate(form, 16) for tag in ALL_FORMS for form in _form_instances(tag, 16)
    }
    survivors = sorted(
        (p for p in candidates if p.constant_term() and parity_condition(p)),
        key=lambda p: p.coeffs,
    )
    t_filtered, filtered = timed(lambda: [strip_cyclotomic(p) for p in survivors])
    t_trial, trial = timed(lambda: [strip_by_trial_division(p) for p in survivors])
    assert filtered == trial, "strip_cyclotomic differs from plain trial division"
    print(f"\n{'strip_cyclotomic':<38} {'filtered':>10} {'trial':>10} {'ratio':>9}")
    name = f"family survivors n=16 x{len(survivors)}"
    print(f"{name:<38} {t_filtered:>9.3f}s {t_trial:>9.3f}s {t_trial / t_filtered:>8.1f}x")

    scanned_chis = sorted(
        {IntPolynomial(chi) for _, chi in scan_orbits(4, 1, canonical_codes(3, 1))},
        key=lambda p: p.coeffs,
    )
    rows = [
        (f"family survivors n=16 x{len(survivors)}", survivors),
        (f"search n=4 entries<=1 chi x{len(scanned_chis)}", scanned_chis),
    ]
    print(f"\n{'largest_root_above_one':<38} {'enclosure':>10} {'count':>10} {'ratio':>9}")
    for name, polys in rows:
        sturm_chain.cache_clear()
        t_lib, lib = timed(lambda: [largest_root_above_one(p) for p in polys])
        sturm_chain.cache_clear()
        t_ref, reference = timed(lambda: [poly_reference.largest_root_above_one(p) for p in polys])
        assert lib == reference, name
        print(f"{name:<38} {t_lib:>9.3f}s {t_ref:>9.3f}s {t_ref / t_lib:>8.1f}x")

    ks = (50, 100) if args.quick else (50, 100, 150, 200)
    family = [r.polynomial for r in enumerate_admissible(16)]
    rows = [
        (f"sharpness char polys k={','.join(map(str, ks))}", [expected_char_poly(k) for k in ks]),
        (f"family admissible n=16 x{len(family)}", family),
    ]
    print(f"\n{'largest_real_root':<38} {'library':>10} {'two-pass':>10} {'ratio':>9}")
    for name, polys in rows:
        sturm_chain.cache_clear()
        t_lib, lib = timed(lambda: [largest_real_root(p) for p in polys])
        t_ref, reference = timed(lambda: [poly_reference.largest_real_root(p) for p in polys])
        assert [(e.lo, e.hi, e.polynomial) for e in lib] == reference, name
        print(f"{name:<38} {t_lib:>9.3f}s {t_ref:>9.3f}s {t_ref / t_lib:>8.1f}x")

    print(f"\n{'one-sign-change route':<38} {'route':>10} {'Sturm':>10} {'ratio':>9} {'gate':>10}")
    for k in (200,) if args.quick else (200, 400, 800):
        p = expected_char_poly(k)
        sturm_chain.cache_clear()
        t_route, fast = timed(lambda: largest_real_root(p))
        t_sturm, slow = timed(lambda: roots._sturm_largest_root(p, DEFAULT_TOL))
        t_gate, proved = timed(lambda: roots._square_free_mod_prime(p))
        assert proved, f"the gate fails on the sharpness char poly at k={k}"
        assert (fast.lo, fast.hi, fast.polynomial) == (slow.lo, slow.hi, slow.polynomial), k
        name = f"sharpness char poly k={k} (degree {2 * k})"
        print(
            f"{name:<38} {t_route * 1e3:>8.1f}ms {t_sturm * 1e3:>8.1f}ms "
            f"{t_sturm / t_route:>8.1f}x {t_gate * 1e3:>8.1f}ms"
        )

    print(f"\n{'lambda^e against sigma^2':<38} {'signs':>10} {'interval':>10} {'ratio':>9}")
    for e in (100, 400, 800):
        root = largest_real_root(expected_char_poly(e // 2))
        t_signs, side = best_of(5, lambda: compare_power_to_silver_squared(root, e))
        reference = poly_reference.compare_power_to_silver_squared
        t_ref, expected = best_of(5, lambda: reference(root, e))
        assert side == expected == 1, f"the comparators differ at e={e}"
        name = f"sharpness root e={e}"
        print(f"{name:<38} {t_signs * 1e3:>8.2f}ms {t_ref * 1e3:>8.2f}ms {t_ref / t_signs:>8.1f}x")

    print(f"\n{'curve_graph_report':<38} {'classes':>10} {'pairwise':>10} {'ratio':>9}")
    fours = IntMatrix([[4] * 4] * 4)
    t_classes, report = timed(lambda: curve_graph_report(fours))
    by_class = CurveGraph.edges
    CurveGraph.edges = pairwise_edges
    try:
        t_pairs, reference = timed(lambda: curve_graph_report(fours))
    finally:
        CurveGraph.edges = by_class
    assert report == reference, "class-pair edges differ from the pairwise definition"
    name = f"4x4 of 4s ({len(report['cycles'])} curves)"
    print(f"{name:<38} {t_classes:>9.3f}s {t_pairs:>9.3f}s {t_pairs / t_classes:>8.1f}x")

    print(f"\n{'curve-graph walk':<38} {'edges':>10} {'clique':>10} {'pairwise':>10}")
    for n in (11,) if args.quick else (11, 13):
        m = through_zero(n)
        g = curve_graph(m)
        t_edges, edges = timed(g.edges)
        t_clique, q = timed(lambda: clique_polynomial(g))
        assert q == char_poly(m).reverse(), f"the clique identity fails at n={n}"
        pairwise = "-"
        if n == 11:
            t_pairs, reference = timed(lambda: pairwise_edges(g))
            assert edges == reference, "class-pair edges differ from the pairwise definition"
            pairwise = f"{t_pairs:>9.3f}s"
        name = f"through vertex 0, n={n} ({len(g.classes)} classes)"
        print(f"{name:<38} {t_edges:>9.3f}s {t_clique:>9.3f}s {pairwise:>10}")

    print(f"\n{'normalized_spectral_radius':<38} {'jumped':>10} {'rounds':>10} {'ratio':>9}")
    e = 300 if args.quick else 1500
    m = IntMatrix([[10**e, 1, 0], [0, 0, 1], [1, 0, 0]])
    rho = spectral_radius(m)
    t_jump, jumped = timed(lambda: normalized_spectral_radius(m, DEFAULT_TOL, rho))
    t_rounds, reference = timed(lambda: round_by_round_power(m.n, rho, DEFAULT_TOL))
    assert jumped == reference, "the jumped rounds differ from the round-by-round loop"
    name = f"[[10^{e},1,0],[0,0,1],[1,0,0]]"
    print(f"{name:<38} {t_jump:>9.3f}s {t_rounds:>9.3f}s {t_rounds / t_jump:>8.1f}x")

    print(f"\n{'track_report':<38} {'time':>10} {'weights':>8} {'radical':>8}")
    for n in (10, 20) if args.quick else (10, 20, 30):
        track = polygon_track(n)
        t_report, report = timed(lambda: track_report(track))
        dims = (report["weight_space_dim"], report["radical_dim"])
        assert dims == sympy_track_dims(track), f"track_report differs from sympy at n={n}"
        name = f"polygon n={n} ({track.n_edges} edges)"
        print(f"{name:<38} {t_report:>9.3f}s {dims[0]:>8} {dims[1]:>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
