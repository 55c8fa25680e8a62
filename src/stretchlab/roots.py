"""Certified real-root machinery: Sturm chains and dyadic enclosures.

Root counting goes through Sturm chains on the square-free part (primitive
parts at every step keep coefficient growth in check).  One run of
``poly.remainder_sequence``, the sequence ``poly_gcd`` also takes its gcd
from, both builds the chain and tests square-freeness, so the chain's
first element is the square-free certificate that enclosures carry.
``largest_real_root`` skips the chain for a monic p with p(0) < 0 and one
coefficient sign change (the sharpness polynomials and every kA1 family
form): Descartes' rule gives it one positive root, simple, and when
gcd(p, p') modulo the word-size prime ``SQUARE_FREE_PRIME`` is constant, p
is square-free, so p is its own certificate and sign bisection of
(0, CauchyBound] gives the Sturm route's enclosure.  Isolation and
refinement use pure dyadic bisection on integer numerators over one
denominator, so every certificate is a finite integer computation.  Both
exact comparators have one shape: signs at the enclosure ends decide an
order, one gcd of certificates decides equality, and otherwise they refine,
up to ``COMPARE_ROUNDS`` rounds.
``compare_power_to_silver_squared`` reads the signs of t^(2e) - 6t^e + 1,
so it needs no enclosure of the threshold.  Nothing in this module touches
floating point except ``ValueInterval.__float__``, a convenience for callers.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

from ._immutable import Immutable, set_field
from .errors import CheckFailed
from .poly import IntPolynomial, exact_div, one, poly_gcd, remainder_sequence

#: Default enclosure width: 2^-40, about 9.09e-13, a dyadic stand-in for 1e-12.
DEFAULT_TOL = Fraction(1, 2**40)

#: Finest enclosure width the CLI accepts: bisection work grows with the
#: bits of the width, so a few characters of ``--tol`` must not ask for
#: thousands of them (``sharpness --k 200`` takes ~0.33 s at this width on
#: a 2-core Xeon, CPython 3.11).
MIN_TOL = Fraction(1, 2**256)

#: t^2 - 6t + 1; its larger root is the squared silver ratio 3 + 2*sqrt(2).
SILVER_SQUARED_POLY = IntPolynomial((1, -6, 1))

#: The word-size prime of the square-free proof on the one-sign-change route.
SQUARE_FREE_PRIME = 2**31 - 1

#: Refinement cap of both comparators, and the width factor per round.
COMPARE_ROUNDS = 12
COMPARE_SHRINK = Fraction(1, 256)


class NoRealRootError(CheckFailed):
    """The polynomial has no real root in the requested range."""


class SeparationError(ArithmeticError):
    """Two enclosures could not be separated within the refinement cap."""


def fraction_to_decimal_str(x: Fraction, sig: int = 10) -> str:
    """Render a rational to ``sig`` significant digits, deterministically."""
    with localcontext() as ctx:
        ctx.prec = sig
        d = Decimal(x.numerator) / Decimal(x.denominator)
    return str(d)


def dyadic_str(x: Fraction) -> str:
    """Render a dyadic rational as 'p/2^k' (or a plain integer)."""
    den = x.denominator
    if den == 1:
        return str(x.numerator)
    k = den.bit_length() - 1
    if 1 << k != den:
        return f"{x.numerator}/{den}"
    return f"{x.numerator}/2^{k}"


class SturmChain(Immutable):
    """Sturm chain of a square-free polynomial (primitive-part sequence).

    ``chain[0]`` is the square-free polynomial itself, primitive with a
    positive leading coefficient: the certificate of every enclosure built
    from the chain.
    """

    __slots__ = ("chain",)

    def __init__(self, chain: tuple[IntPolynomial, ...]):
        set_field(self, "chain", chain)

    def variations_at(self, x: Fraction) -> int:
        signs = [p.sign_at(x) for p in self.chain]
        nonzero = [s for s in signs if s]
        return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)

    def count(self, a: Fraction, b: Fraction) -> int:
        """Number of distinct real roots in (a, b]."""
        if not a < b:
            raise ValueError("need a < b for a root count")
        return self.variations_at(a) - self.variations_at(b)


@functools.lru_cache(maxsize=4096)
def sturm_chain(p: IntPolynomial) -> SturmChain:
    """Sturm chain of the square-free part of p; ``chain[0]`` is that part.

    ``remainder_sequence(f, f')`` runs once on f, the primitive part of p
    with positive leading coefficient.  If it ends in a nonzero
    constant, gcd(f, f') = 1 and f is already square-free.  Otherwise its
    last element is +-gcd(f, f'); f divided by it, normalised the same way,
    is the square-free part of p, and the sequence runs again on that.  A
    constant p gives the chain (1,).  Raises ValueError for the zero
    polynomial.
    """
    if p.is_zero():
        raise ValueError("Sturm chain of the zero polynomial")
    if p.degree() < 1:
        return SturmChain((one(),))
    f = (p if p.lead > 0 else -p).primitive_part()
    chain = list(remainder_sequence(f, f.derivative().primitive_part()))
    if chain[-1].degree() > 0:
        f = exact_div(f, chain[-1])
        f = (f if f.lead > 0 else -f).primitive_part()
        chain = list(remainder_sequence(f, f.derivative().primitive_part()))
    return SturmChain(tuple(chain))


def real_roots_in_interval(p: IntPolynomial, a, b) -> int:
    """Distinct real roots of p in (a, b]."""
    if p.is_zero():
        raise ValueError("root count of the zero polynomial")
    return sturm_chain(p).count(Fraction(a), Fraction(b))


def cauchy_root_bound(p: IntPolynomial) -> Fraction:
    """Integer upper bound 1 + max|c_i| / |lead| for the modulus of any root."""
    if p.degree() < 1:
        raise ValueError("root bound needs a nonconstant polynomial")
    lead = abs(p.lead)
    top = max(abs(c) for c in p.coeffs[:-1])
    return Fraction(1 + (top + lead - 1) // lead)


class ValueInterval(Immutable):
    """Exact rational interval for a derived quantity (e.g. a normalized root)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)

    def _key(self) -> tuple:
        return self.lo, self.hi

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}{self._key()!r}"

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def decimal(self, sig: int = 10) -> str:
        return fraction_to_decimal_str(self.midpoint, sig)

    def __float__(self) -> float:
        return float(self.midpoint)

    def to_json(self) -> dict:
        return {
            "lo": dyadic_str(self.lo),
            "hi": dyadic_str(self.hi),
            "decimal": self.decimal(),
        }


class RootEnclosure(ValueInterval):
    """Dyadic interval certified (by Sturm count) to hold exactly one real root.

    ``polynomial`` is the square-free certificate: its sign changes across
    [lo, hi] and its Sturm count on (lo, hi] is one.  For a square-free input
    this is the input itself.
    """

    __slots__ = ("polynomial",)

    def __init__(self, lo: Fraction, hi: Fraction, polynomial: IntPolynomial):
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "polynomial", polynomial)

    def _key(self) -> tuple:
        return self.lo, self.hi, self.polynomial

    def refined(self, tol: Fraction) -> "RootEnclosure":
        """Shrink the interval to width <= tol by sign bisection."""
        if self.width <= tol:
            return self
        lo, hi = _sign_bisect(self.polynomial, self.lo, self.hi, Fraction(tol))
        return RootEnclosure(lo, hi, self.polynomial)

    def powered(self, n: int) -> "ValueInterval":
        """[lo^n, hi^n] rounded outward to a dyadic grid; requires lo >= 0.

        The grid step is the largest power of two <= width/256, so the result
        still encloses every x^n for x in [lo, hi] and is at most 1/128
        wider, while its numerators stay short: lo^n itself can run past
        the int -> str digit limit (k = 200 of the sharpness family).
        """
        if self.lo < 0:
            raise ValueError("powered() expects a nonnegative enclosure")
        lo, hi = self.lo**n, self.hi**n
        if lo == hi:
            return ValueInterval(lo, hi)
        width = hi - lo
        # 2^s >= ceil(256 / width) for the smallest s >= 0
        scale = 1 << (-(-256 * width.denominator // width.numerator) - 1).bit_length()
        return ValueInterval(
            Fraction(lo.numerator * scale // lo.denominator, scale),
            Fraction(-(-hi.numerator * scale // hi.denominator), scale),
        )


def _collapse_exact_root(
    root: Fraction, lo: Fraction, hi: Fraction, tol: Fraction
) -> tuple[Fraction, Fraction]:
    # root is an exact dyadic zero strictly inside (lo, hi); keep a sign change.
    delta = tol / 4
    new_lo = max(lo, root - delta)
    new_hi = min(hi, root + delta)
    return new_lo, new_hi


def _sign_bisect(
    sf: IntPolynomial, lo: Fraction, hi: Fraction, tol: Fraction
) -> tuple[Fraction, Fraction]:
    s_lo = sf.sign_at(lo)
    s_hi = sf.sign_at(hi)
    if s_hi == 0:
        return _collapse_exact_root(hi, lo, hi + tol / 4, tol)
    if s_lo == 0 or s_lo == s_hi:
        raise AssertionError("enclosure lost its sign change; this is a bug")
    # lo = a/den and hi = b/den on one denominator; each step doubles den and
    # keeps one half, so b - a is fixed while the width halves.  The midpoints
    # are the ones (lo + hi) / 2 would give, with no gcd per step.
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    span = (b - a) * tol.denominator
    limit = tol.numerator * den  # width <= tol iff span <= limit
    while span > limit:
        m = a + b
        a, b, den, limit = 2 * a, 2 * b, 2 * den, 2 * limit
        sm = sf.sign_at(m, den)
        if sm == 0:
            return _collapse_exact_root(
                Fraction(m, den), Fraction(a, den), Fraction(b, den), tol
            )
        if sm == s_lo:
            a = m
        else:
            b = m
    return Fraction(a, den), Fraction(b, den)


def _one_sign_change(p: IntPolynomial) -> bool:
    """Whether p is monic with p(0) < 0 and one sign change in its coefficients.

    Descartes' rule of signs then gives p exactly one positive root, and that
    root is simple: p < 0 on (0, root) and p > 0 above it.
    """
    c = p.coeffs
    if len(c) < 2 or c[-1] != 1 or c[0] >= 0:
        return False
    first = next(i for i, x in enumerate(c) if x > 0)
    return min(c[first:]) >= 0


def _square_free_mod_prime(p: IntPolynomial) -> bool:
    """Whether gcd(p, p') modulo ``SQUARE_FREE_PRIME`` is constant; p monic.

    That proves p square-free: p = g^2 h over Z with deg g >= 1 makes g, whose
    lead divides lead(p) = 1, a nonconstant common factor of p and p' mod the
    prime.  The converse can fail (the prime divides the discriminant), and
    then the caller takes the Sturm route.  Euclid runs on coefficient lists,
    leading coefficient first, so each elimination is one pass over a prefix.
    """
    q = SQUARE_FREE_PRIME
    a = [c % q for c in reversed(p.coeffs)]
    d = len(a) - 1
    b = [(d - i) * c % q for i, c in enumerate(a[:-1])]
    while b and not b[0]:
        del b[0]
    while len(b) > 1:
        inv = pow(b[0], -1, q)
        tail = b[1:]
        n = len(b)
        while len(a) >= n:
            c = a[0]
            if c:
                c = c * inv % q
                a[:n] = [(x - c * y) % q for x, y in zip(a[1:n], tail)]
            else:
                del a[0]
        while a and not a[0]:
            del a[0]
        a, b = b, a
    return len(b) == 1


def largest_real_root(p: IntPolynomial, tol: Fraction = DEFAULT_TOL) -> RootEnclosure:
    """Certified enclosure of the largest real root of p.

    A monic p with p(0) < 0, one coefficient sign change and a square-free
    proof modulo ``SQUARE_FREE_PRIME`` has one positive root, simple, in
    (0, CauchyBound]: p is its own certificate, and sign bisection of that
    interval gives the enclosure the Sturm route would.  Any other p takes
    the Sturm route: Sturm-counted bisection over (0, CauchyBound], then
    sign bisection.  The caller-facing contract requires p to have a
    positive real root, and the returned interval provably contains the
    single largest one (no real root lies above it).
    """
    if p.is_zero():
        raise ValueError("largest real root of the zero polynomial")
    if p.degree() < 1:
        raise NoRealRootError("constant polynomials have no roots")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if _one_sign_change(p) and _square_free_mod_prime(p):
        lo, hi = _sign_bisect(p, Fraction(0), cauchy_root_bound(p), tol)
        return RootEnclosure(lo, hi, p)
    return _sturm_largest_root(p, tol)


def _sturm_largest_root(p: IntPolynomial, tol: Fraction) -> RootEnclosure:
    """``largest_real_root`` by the Sturm chain of p, for any nonconstant p."""
    chain = sturm_chain(p)
    sf = chain.chain[0]
    bound = cauchy_root_bound(sf)
    a, b = Fraction(0), bound
    v_top = chain.variations_at(bound)
    v_a = chain.variations_at(a)  # kept in step with a, which alone moves it
    if v_a == v_top:
        raise NoRealRootError(f"({p}) has no real root in (0, {bound}]")
    while not (v_a - v_top == 1 and sf.sign_at(a) != 0):
        m = (a + b) / 2
        v_m = chain.variations_at(m)
        if v_m - v_top >= 1:
            a, v_a = m, v_m
        else:
            b = m
    lo, hi = _sign_bisect(sf, a, b, tol)
    return RootEnclosure(lo, hi, sf)


def largest_root_above_one(p: IntPolynomial, tol: Fraction = DEFAULT_TOL) -> RootEnclosure | None:
    """``largest_real_root(p, tol)`` when p has a real root above 1, else None.

    The enclosure decides: the root lies above 1 if lo >= 1, not if hi <= 1,
    and otherwise iff the certificate, nonzero at lo with one root in
    (lo, hi), has its sign at lo also at 1.  p must be nonconstant.
    """
    if p.degree() < 1:
        raise ValueError("a root above 1 needs a nonconstant polynomial")
    try:
        root = largest_real_root(p, tol)
    except NoRealRootError:
        return None
    if root.lo >= 1:
        return root
    if root.hi <= 1:
        return None
    cert = root.polynomial
    return root if cert.sign_at(1) == cert.sign_at(root.lo) else None


def _common_root(p: IntPolynomial, q: IntPolynomial, lo: Fraction, hi: Fraction) -> bool:
    """Whether p and q share a real root in (lo, hi]: a root of their gcd there."""
    if not lo < hi:
        return False
    g = poly_gcd(p, q)
    return g.degree() >= 1 and real_roots_in_interval(g, lo, hi) >= 1


def compare_enclosures(e1: RootEnclosure, e2: RootEnclosure) -> int:
    """-1, 0, +1 ordering of the two enclosed roots, exactly.

    Disjoint intervals decide the order.  Each enclosure isolates its root,
    so the roots are equal iff the certificates share a root in the first
    overlap; that gcd test runs once, and after it only refinement remains.
    Raises SeparationError if the enclosures do not separate within the cap.
    """
    a, b = e1, e2
    for round_ in range(COMPARE_ROUNDS + 1):
        if a.hi < b.lo:
            return -1
        if b.hi < a.lo:
            return 1
        if round_ == 0 and _common_root(
            a.polynomial, b.polynomial, max(a.lo, b.lo), min(a.hi, b.hi)
        ):
            return 0
        tol = min(a.width, b.width) * COMPARE_SHRINK
        a = a.refined(tol)
        b = b.refined(tol)
    raise SeparationError("enclosures neither separate nor share a certified root")


def silver_ratio_squared(tol: Fraction = DEFAULT_TOL) -> RootEnclosure:
    """Enclosure of 3 + 2*sqrt(2), the classification threshold, from t^2 - 6t + 1."""
    return largest_real_root(SILVER_SQUARED_POLY, tol)


def compare_power_to_silver_squared(base: RootEnclosure, exponent: int) -> int:
    """-1, 0, +1 for base^exponent against 3 + 2*sqrt(2), exactly.

    s(t) = t^(2e) - 6t^e + 1 = (t^e - 3 - 2*sqrt(2))(t^e - 3 + 2*sqrt(2)),
    e the exponent, has one root above 1, rho = (3 + 2*sqrt(2))^(1/e), and
    on t > 1 its sign is the side of t^e.  So an end lo >= 1 with s(lo) > 0
    proves +1, and an end hi <= 1 or with s(hi) < 0 proves -1.  If neither
    end decides, rho lies in the enclosure, and the enclosed root is rho iff
    gcd(s, certificate) has a root there above 1: one gcd decides 0, and
    otherwise only ``base`` is refined until an end decides.  No enclosure
    of the threshold is built.
    """
    if base.lo < 0:
        raise ValueError("comparator expects a nonnegative enclosure")
    if exponent < 1:
        raise ValueError("comparator needs a positive exponent")
    coeffs = [0] * (2 * exponent + 1)
    coeffs[0], coeffs[exponent], coeffs[2 * exponent] = 1, -6, 1
    silver = IntPolynomial(coeffs)
    b = base
    for round_ in range(COMPARE_ROUNDS + 1):
        if b.lo >= 1 and silver.sign_at(b.lo) > 0:
            return 1
        if b.hi <= 1 or silver.sign_at(b.hi) < 0:
            return -1
        if round_ == 0 and _common_root(b.polynomial, silver, max(b.lo, Fraction(1)), b.hi):
            return 0
        b = b.refined(b.width * COMPARE_SHRINK)
    raise SeparationError("cannot separate the normalized value from the bound")


# -- roots on the unit circle -----------------------------------------


def _chebyshev_fold(h: IntPolynomial) -> IntPolynomial:
    """For palindromic h of degree 2m, the r with h(t) = t^m r(t + 1/t)."""
    deg = h.degree()
    if deg % 2:
        raise ValueError("chebyshev fold needs even degree")
    m = deg // 2
    # V_d(x) = t^d + t^-d under x = t + 1/t:  V_0 = 2, V_1 = x, V_d = x V_{d-1} - V_{d-2}
    x = IntPolynomial((0, 1))
    v_prev, v_cur = IntPolynomial((2,)), x
    r = IntPolynomial((h[m],))
    for d in range(1, m + 1):
        if d > 1:
            v_prev, v_cur = v_cur, x * v_cur - v_prev
        c = h[m + d]
        if c:
            r = r + v_cur * c
    return r


def _distinct_unit_roots_squarefree(q: IntPolynomial) -> int:
    count = 0
    work = q
    for root in (1, -1):
        if work.evaluate(root) == 0:
            count += 1
            work = exact_div(work, IntPolynomial((-root, 1)))
    if work.degree() < 1:
        return count
    g = poly_gcd(work, work.reverse())
    if g.degree() < 1:
        return count
    # g is palindromic with g(+-1) != 0, hence of even degree; its roots on
    # the unit circle pair off under t -> 1/t and map to real roots of the
    # fold in (-2, 2).
    r = _chebyshev_fold(g)
    return count + 2 * real_roots_in_interval(r, Fraction(-2), Fraction(2))


def unit_circle_root_count(p: IntPolynomial) -> int:
    """Roots of p with |z| = 1, counted with multiplicity, exactly.

    The walk g_0 = p, g_(i+1) = gcd(g_i, g_i') ends at a constant.  A root
    of multiplicity k divides exactly g_0 ... g_(k-1), so it is a simple
    root of exactly k of the square-free quotients g_i / g_(i+1), and the
    sum of their distinct unit-circle roots counts it k times.  Each
    quotient is reduced to its palindromic core gcd(q, reverse q), whose
    Chebyshev fold is Sturm-counted on (-2, 2); this applies to every
    integer polynomial with p(0) != 0.
    """
    if p.is_zero():
        raise ValueError("unit-circle count of the zero polynomial")
    if p.constant_term() == 0:
        raise ValueError("unit-circle count requires a nonzero constant term")
    count = 0
    g = p
    while g.degree() > 0:
        nxt = poly_gcd(g, g.derivative())
        count += _distinct_unit_roots_squarefree(exact_div(g, nxt))
        g = nxt
    return count
