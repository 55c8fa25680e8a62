"""Plain trial-division reference for ``stretchlab.classify.strip_cyclotomic``.

It tries exact division by Phi_m for every m with phi(m) <= deg(p),
repeating each Phi_m until it stops dividing, with no filter in front of
the division.  The library skips the divisions that its Phi_m(2) test
proves would fail, so both must return the same pair.
"""

from __future__ import annotations

from stretchlab.poly import IntPolynomial, cyclotomic, cyclotomic_indices_up_to_degree, divrem, one


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
