"""Shared fixtures: track builders and random polynomial generators."""

from __future__ import annotations

import random

from stretchlab.poly import IntPolynomial, cyclotomic
from stretchlab.traintrack import TrainTrack


def single_loop_track() -> TrainTrack:
    """One vertex, one real loop with its halves on opposite sides."""
    return TrainTrack([((1,), (2,))], [((1, 2), "real")])


def bigon_track() -> TrainTrack:
    """Infinitesimal bigon on two vertices, one real loop at each vertex.

    Side orders are chosen so the bigon face is traced as the 2-cusped inner
    boundary component (fat-graph orientation matters).
    """
    return TrainTrack(
        [((1, 3), (5, 6)), ((4, 2), (7, 8))],
        [((1, 2), "inf"), ((3, 4), "inf"), ((5, 6), "real"), ((7, 8), "real")],
    )


def polygon_track(n: int) -> TrainTrack:
    """Infinitesimal n-gon with one real loop per vertex.

    Inf edge j runs from vertex j (half 1000+j) to vertex j+1 (half 2000+j);
    the inner polygon face then shows one cusp per vertex.  The four id
    ranges stay disjoint up to n = 500.
    """
    vertices = []
    edges = []
    for j in range(n):
        vertices.append(((1000 + j, 2000 + ((j - 1) % n)), (3000 + 2 * j, 3001 + 2 * j)))
        edges.append(((1000 + j, 2000 + j), "inf"))
    for j in range(n):
        edges.append(((3000 + 2 * j, 3001 + 2 * j), "real"))
    return TrainTrack(vertices, edges)


def chorded_square_track() -> TrainTrack:
    """Infinitesimal 4-gon with two real chords joining opposite vertices."""
    vertices = []
    edges = []
    for j in range(4):
        vertices.append(((10 + j, 20 + ((j - 1) % 4)), (40 + j,)))
        edges.append(((10 + j, 20 + j), "inf"))
    edges.append(((40, 42), "real"))  # v0 -- v2
    edges.append(((41, 43), "real"))  # v1 -- v3
    return TrainTrack(vertices, edges)


def all_track_fixtures() -> list[TrainTrack]:
    return [
        single_loop_track(),
        bigon_track(),
        polygon_track(2),
        polygon_track(3),
        polygon_track(4),
        polygon_track(6),
        polygon_track(12),
        chorded_square_track(),
    ]


def random_polynomial(rng: random.Random, max_degree: int = 8, bound: int = 9) -> IntPolynomial:
    degree = rng.randint(0, max_degree)
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    coeffs.append(rng.choice([c for c in range(-bound, bound + 1) if c]))
    return IntPolynomial(coeffs)


def random_reciprocal(rng: random.Random, max_degree: int = 8) -> IntPolynomial:
    """Random palindromic polynomial (sign +1), nonzero constant term."""
    half = rng.randint(1, max_degree // 2)
    left = [rng.randint(-4, 4) for _ in range(half)]
    left[0] = rng.choice([1, -1, 2, -2])
    middle = [rng.randint(-4, 4)] if rng.random() < 0.5 else []
    coeffs = left + middle + left[::-1]
    return IntPolynomial(coeffs)


def random_skew_reciprocal(rng: random.Random, max_degree: int = 8) -> IntPolynomial:
    """Random skew-reciprocal polynomial of even degree, nonzero constant."""
    half = rng.randint(1, max_degree // 2)
    m = 2 * half
    eps = rng.choice([1, -1])
    coeffs = [0] * (m + 1)
    for j in range(half):
        c = rng.randint(-4, 4)
        if j == 0 and c == 0:
            c = rng.choice([1, -1, 2])
        coeffs[j] = c
        coeffs[m - j] = eps * (-1) ** (j % 2) * c
    mid = rng.randint(-4, 4)
    # middle coefficient must satisfy c = eps * (-1)^half * c
    if eps * (-1) ** (half % 2) == 1:
        coeffs[half] = mid
    else:
        coeffs[half] = 0
    return IntPolynomial(coeffs)


_RECIPROCAL_FACTOR_POOL = [
    IntPolynomial((-1, 1)),  # t - 1
    IntPolynomial((1, 1)),  # t + 1
    cyclotomic(3),
    cyclotomic(4),
    cyclotomic(5),
    cyclotomic(6),
    cyclotomic(8),
    cyclotomic(12),
    IntPolynomial((1, -3, 1)),
    IntPolynomial((1, -4, 1)),
    IntPolynomial((1, 3, 1)),
    IntPolynomial((1, -5, 1)),
    IntPolynomial((2, -5, 2)),  # roots 2 and 1/2
    IntPolynomial((3, -10, 3)),  # roots 3 and 1/3
]


def random_structured_reciprocal(rng: random.Random, max_degree: int = 10) -> IntPolynomial:
    """Square-free reciprocal product with roots exactly on or safely off the
    unit circle, so the 1e-9 numeric modulus test cannot misclassify."""
    pool = _RECIPROCAL_FACTOR_POOL[:]
    rng.shuffle(pool)
    out = IntPolynomial((1,))
    for factor in pool:
        if out.degree() + factor.degree() > max_degree:
            continue
        out = out * factor
        if rng.random() < 0.4:
            break
    if out.degree() == 0:
        out = out * cyclotomic(4)
    return out


def random_repeated_product(rng: random.Random, max_degree: int = 12) -> IntPolynomial:
    """A product of powers f^k (k <= 3) of distinct factors from the same pool.

    Its repeated roots sit exactly on or safely off the unit circle, so a
    numeric modulus test with a tolerance well above the perturbation of a
    triple root still classifies every root correctly.
    """
    out = IntPolynomial((rng.choice((1, -1, 2, -3)),))
    for factor in rng.sample(_RECIPROCAL_FACTOR_POOL, rng.randint(1, 3)):
        k = rng.randint(1, 3)
        while k and out.degree() + k * factor.degree() > max_degree:
            k -= 1
        out = out * factor**k
    if out.degree() == 0:
        out = out * cyclotomic(4) ** 2
    return out
