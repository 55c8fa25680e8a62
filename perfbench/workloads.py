"""The operations each workload runs, and the seeded generators behind `witness`.

An operation is one `stretch-lab` invocation.  `families`, `search` and
`sharpness` run fixed command lines (the seed changes nothing in them);
`witness` draws its inputs from `random.Random(seed)`, so the same seed gives
byte-identical inputs.  The generators are balanced by construction: every
pass has the same number of queries of each kind, the same degree list and
the same matrix and track sizes, and the seed picks only coefficients,
extra entries, half-edge ids and order.  That keeps the cost of a pass
nearly independent of the seed, so runs with different seeds are comparable.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from verify import cyclotomic, poly_mul

WORKLOADS = ("families", "search", "sharpness", "witness")

#: Sharpness indices of the fixed workload.  The largest fails at the seed,
#: so it has no seed reference (see README.md).
SHARPNESS_KS = (50, 100, 150, 200)


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    ``kind`` names the verifier, ``key`` the reference entry (fixed
    workloads) and ``data`` the generated input the verifier needs
    (``witness``).  ``files`` maps a file name, relative to the run's
    working directory, to the text written there before the op runs;
    ``{dir}`` in ``argv`` is replaced by that directory.
    """

    kind: str
    argv: tuple[str, ...]
    key: str = ""
    data: dict = field(default_factory=dict, compare=False, hash=False)
    files: tuple[tuple[str, str], ...] = ()

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _fixed(kind: str, *argv: str) -> Op:
    return Op(kind=kind, argv=tuple(argv), key=" ".join(argv))


def fixed_ops(workload: str) -> list[Op]:
    if workload == "families":
        return [
            _fixed("family", "family", "--n", "12"),
            _fixed("family", "family", "--n", "14"),
            _fixed("family", "family", "--n", "16"),
            _fixed("scan", "family", "--scan", "3A1", "--n", "16"),
            _fixed("scan", "family", "--scan", "4A1", "--n", "16"),
            _fixed("scan", "family", "--scan", "5A1", "--n", "16"),
            _fixed("repro", "repro", "set-theorem"),
            _fixed("repro", "repro", "thm-main"),
        ]
    if workload == "search":
        return [
            _fixed("search", "search", "--n", "4", "--max-entry", "1"),
            _fixed("search", "search", "--n", "3", "--max-entry", "2"),
        ]
    if workload == "sharpness":
        ops = [_fixed("sharpness", "sharpness", "--k", str(k)) for k in SHARPNESS_KS]
        ops.append(_fixed("sharpness_table", "sharpness", "--table", "2..40"))
        return ops
    raise ValueError(f"unknown fixed workload {workload!r}")


# -- witness generators ---------------------------------------------------

#: Degrees of the `classify --poly` queries in one pass.
CLASSIFY_DEGREES = (2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 14, 16)
#: Matrix sizes of the `matrix` and `curve-graph` queries.
MATRIX_SIZES = (4, 5, 6, 7, 8)
#: Polygon sizes of the `traintrack --file` queries.
TRACK_SIZES = (4, 5, 6, 7, 8, 9)
#: Cyclotomic indices the classify generator multiplies in (degrees 1..6).
_CYCLOTOMIC_POOL = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)


def random_polynomial(rng: random.Random, degree: int, with_cyclotomic: bool) -> list[int]:
    """Integer polynomial of exactly ``degree``, coefficients in [-5, 5].

    With ``with_cyclotomic`` it is a product of one to three cyclotomic
    polynomials and a random cofactor, so that the stripping finds work.
    """
    factor = [1]
    if with_cyclotomic:
        for _ in range(rng.randint(1, 3)):
            phi = cyclotomic(rng.choice(_CYCLOTOMIC_POOL))
            if len(factor) - 1 + len(phi) - 1 < degree:
                factor = poly_mul(factor, phi)
    rest = degree - (len(factor) - 1)
    cofactor = [rng.randint(-5, 5) for _ in range(rest)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
    return poly_mul(factor, cofactor)


def sparse_matrix(rng: random.Random, n: int, primitive: bool) -> list[list[int]]:
    """Cyclic shift i -> i+1 plus a few seeded extra entries.

    The shift makes every matrix strongly connected.  A primitive one gets
    a chord closing a cycle of length L with gcd(L, n) = 1, then up to two
    arbitrary extras.  A non-primitive one keeps the period d > 1 of the
    shift: every extra entry goes from level i mod d to level i+1 mod d, or
    doubles an existing entry.
    """
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = 1
    if primitive:
        length = rng.choice([c for c in range(1, n) if math.gcd(c, n) == 1])
        i = rng.randrange(n)
        rows[i][(i - length + 1) % n] += 1
        for _ in range(rng.randint(0, 2)):
            rows[rng.randrange(n)][rng.randrange(n)] = 1 if rng.random() < 0.8 else 2
    else:
        d = rng.choice([c for c in range(2, n + 1) if n % c == 0])
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(n)
            j = rng.choice([v for v in range(n) if v % d == (i + 1) % d])
            rows[i][j] = 2 if rows[i][j] else 1
    return rows


def polygon_track(rng: random.Random, n: int) -> dict:
    """Infinitesimal n-gon with one real loop per vertex, as track JSON.

    Vertex j carries the inf half-edges (a_j, b_{j-1}) on one side and the
    real loop (c_j, d_j) on the other; inf edge j joins a_j to b_j.  All 4n
    half-edge ids are drawn distinct, and vertex and edge order are shuffled.
    """
    ids = rng.sample(range(1, 100 * n), 4 * n)
    a, b, c, d = ids[0:n], ids[n : 2 * n], ids[2 * n : 3 * n], ids[3 * n :]
    vertices = [{"sideA": [a[j], b[(j - 1) % n]], "sideB": [c[j], d[j]]} for j in range(n)]
    edges = [{"ends": [a[j], b[j]], "kind": "inf"} for j in range(n)]
    edges += [{"ends": [c[j], d[j]], "kind": "real"} for j in range(n)]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return {"vertices": vertices, "edges": edges}


def witness_ops(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    degrees = list(CLASSIFY_DEGREES)
    rng.shuffle(degrees)
    for i, deg in enumerate(degrees):
        coeffs = random_polynomial(rng, deg, with_cyclotomic=i % 2 == 1)
        arg = json.dumps({"coeffs": [str(c) for c in coeffs]})
        ops.append(Op(kind="classify", argv=("classify", "--poly", arg), data={"coeffs": coeffs}))
    for cmd in ("matrix", "curve-graph"):
        for n in MATRIX_SIZES:
            for primitive in (True, False):
                rows = sparse_matrix(rng, n, primitive)
                arg = json.dumps({"rows": rows})
                ops.append(Op(kind=cmd, argv=(cmd, "--matrix", arg), data={"rows": rows}))
    for n in TRACK_SIZES:
        track = polygon_track(rng, n)
        name = f"track{n}.json"
        ops.append(
            Op(
                kind="traintrack",
                argv=("traintrack", "--file", "{dir}/" + name),
                key=f"polygon {n}",
                data={"size": n, "track": track},
                files=((name, json.dumps(track)),),
            )
        )
    rng.shuffle(ops)
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """The operation list of one pass of ``workload``."""
    if workload == "witness":
        return witness_ops(seed)
    return fixed_ops(workload)
