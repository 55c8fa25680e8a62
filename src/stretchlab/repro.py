"""The ``repro`` targets: one certificate per statement of the paper.

Each check function certifies one statement and returns its row of the
report: what was checked, the values behind it and whether it holds.  A
target returns the whole report, which passes when every row does.  Every
decision is exact.  Only ``thm-main`` loads the families, the search driver
and the sharpness family, so ``set-theorem`` starts no more than it uses.
"""

from __future__ import annotations

from fractions import Fraction

from . import SCOPE_NOTE
from .classify import is_salem_like, sqrt_min_poly
from .poly import IntPolynomial
from .roots import (
    RootEnclosure,
    compare_enclosures,
    largest_real_root,
    unit_circle_root_count,
)

#: t^2 - t - 1, whose largest root is the golden ratio mu.
GOLDEN = IntPolynomial((-1, -1, 1))
#: Lehmer's polynomial and the degree-4 Salem polynomial t^4 - t^3 - t^2 - t + 1.
LEHMER = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
SALEM_4 = IntPolynomial((1, -1, -1, -1, 1))


def _passes(checks: list[dict]) -> bool:
    return all(c["pass"] for c in checks)


# -- set-theorem ------------------------------------------------------------


def ordering(mu: RootEnclosure, tol: Fraction) -> dict:
    sigma = largest_real_root(IntPolynomial((-1, -2, 1)), tol)
    mu2 = largest_real_root(IntPolynomial((1, -3, 1)), tol)
    return {
        "check": "ordering mu < sigma < mu^2",
        "values": [mu.decimal(), sigma.decimal(), mu2.decimal()],
        "pass": compare_enclosures(mu, sigma) == -1 and compare_enclosures(sigma, mu2) == -1,
    }


def square_root_minimal_polynomials() -> dict:
    """t^4 - p t^2 + 1 is irreducible for p = 4 and 5, and for p = 3 splits
    into the golden polynomial times t^2 + t - 1."""
    q4, irr4 = sqrt_min_poly(4, 1)
    q5, irr5 = sqrt_min_poly(5, 1)
    q3, irr3 = sqrt_min_poly(3, 1)
    return {
        "check": "square-root minimal polynomials",
        "values": [str(q4), str(q5), f"{q3} reducible"],
        "pass": irr4 and irr5 and not irr3 and GOLDEN * IntPolynomial((-1, 1, 1)) == q3,
    }


def salem_unit_circle_counts() -> dict:
    counts = (unit_circle_root_count(LEHMER), unit_circle_root_count(SALEM_4))
    return {
        "check": "salem property and unit-circle counts (8, 2)",
        "values": list(counts),
        "pass": is_salem_like(LEHMER) and is_salem_like(SALEM_4) and counts == (8, 2),
    }


def salem_normalized_values(tol: Fraction) -> dict:
    lehmer9 = largest_real_root(LEHMER, tol).powered(9)
    salem3 = largest_real_root(SALEM_4, tol).powered(3)
    return {
        "check": "normalized values ~4.311 and ~5.107",
        "values": [lehmer9.decimal(), salem3.decimal()],
        "pass": abs(lehmer9.midpoint - Fraction("4.311")) < Fraction(1, 1000)
        and abs(salem3.midpoint - Fraction("5.107")) < Fraction(1, 1000),
    }


def set_theorem(tol: Fraction) -> dict:
    mu = largest_real_root(GOLDEN, tol)
    checks = [
        ordering(mu, tol),
        square_root_minimal_polynomials(),
        salem_unit_circle_counts(),
        salem_normalized_values(tol),
    ]
    return {"target": "set-theorem", "checks": checks, "pass": _passes(checks)}


# -- thm-main ---------------------------------------------------------------


def family_minima(mu: RootEnclosure, tol: Fraction) -> dict:
    """Each family minimum is >= sigma^2, and the n = 4 one is mu^4."""
    from .families import enumerate_admissible

    minima = {}
    ok = True
    for n in (4, 5, 6, 7, 8, 9, 10, 12):
        reports = enumerate_admissible(n, tol=tol)
        if not reports:
            minima[str(n)] = None
            ok &= n != 4
            continue
        minima[str(n)] = reports[0].normalized.decimal()
        ok &= reports[0].side >= 0
        if n == 4:
            ok &= compare_enclosures(reports[0].root, mu) == 0
    return {
        "check": "family minima >= 5.8284271247 (n=4 minimum = mu^4)",
        "values": minima,
        "pass": ok,
    }


def exhaustive_slice(tol: Fraction, threads: int) -> dict:
    from .search import SearchConfig, run_search

    result = run_search(SearchConfig(n=4, max_entry=1, tol=tol), threads=threads)
    least = result.minimum
    return {
        "check": "exhaustive n=4, entries {0,1}: zero violations",
        "values": {
            "qualifying": result.count_qualifying,
            "minimum": least.normalized.decimal() if least else None,
        },
        "pass": not result.violations and least is not None,
    }


def sharpness_family(mu: RootEnclosure, tol: Fraction) -> dict:
    """P_k > sigma^2 for k = 2..40, and P_2 = mu^4."""
    from .sharpness import convergence_table

    # convergence_table raises unless every row is built and certified
    rows = convergence_table(40, tol)
    return {
        "check": "sharpness family k=2..40 built and certified above the bound",
        "values": {"P_2": rows[0].normalized.decimal(), "P_40": rows[-1].normalized.decimal()},
        "pass": compare_enclosures(rows[0].root, mu) == 0,
    }


def low_degree_exceptions(tol: Fraction) -> dict:
    from .families import verify_low_degree_exceptions

    low = verify_low_degree_exceptions(tol)
    return {
        "check": "low-degree exceptions mu^2, mu^3 below the bound",
        "values": {"mu^2": low.mu_squared.decimal(), "mu^3": low.mu_cubed.decimal()},
        "pass": low.ok,
    }


def thm_main(tol: Fraction, threads: int) -> dict:
    mu = largest_real_root(GOLDEN, tol)
    checks = [
        family_minima(mu, tol),
        exhaustive_slice(tol, threads),
        sharpness_family(mu, tol),
        low_degree_exceptions(tol),
    ]
    return {
        "target": "thm-main",
        "bound": "5.8284271247",
        "checks": checks,
        "pass": _passes(checks),
        "scope_note": SCOPE_NOTE,
    }
