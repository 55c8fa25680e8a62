"""References for the cyclotomic code of ``stretchlab``.

``moebius_cyclotomic`` builds Phi_m by the Moebius product
prod_{d | m} (t^d - 1)^mu(m/d), with mu read off a trial-division
factorisation of m.  The library divides t^m - 1 by the Phi_d of the proper
divisors of m instead, so the two constructions share no step but the
final exact division.

``strip_by_trial_division`` is the plain reference for
``stretchlab.classify.strip_cyclotomic``.  It tries exact division by Phi_m
for every m with phi(m) <= deg(p), repeating each Phi_m until it stops
dividing, with no filter in front of the division.  The library skips the
divisions that its Phi_m(2) test proves would fail, so both must return the
same pair.
"""

from __future__ import annotations

from stretchlab.poly import (
    IntPolynomial,
    cyclotomic,
    cyclotomic_indices_up_to_degree,
    divrem,
    exact_div,
    monomial,
    one,
)


def _moebius(m: int) -> int:
    mu = 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if m > 1 else mu


def moebius_cyclotomic(m: int) -> IntPolynomial:
    """Phi_m as the Moebius product over t^d - 1, with one final division."""
    numerator = one()
    denominator = one()
    for d in range(1, m + 1):
        if m % d:
            continue
        mu = _moebius(m // d)
        if mu == 1:
            numerator = numerator * (monomial(d) - one())
        elif mu == -1:
            denominator = denominator * (monomial(d) - one())
    # partial quotients need not be polynomials
    return exact_div(numerator, denominator)


def strip_by_trial_division(p: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    core = p
    cyclo = one()
    for m in cyclotomic_indices_up_to_degree(p.degree()):
        phi_m = cyclotomic(m)
        while core.degree() >= phi_m.degree():
            quot, rem, _, exact = divrem(core, phi_m)
            if not exact or not rem.is_zero():
                break
            core = quot
            cyclo = cyclo * phi_m
    return cyclo, core
