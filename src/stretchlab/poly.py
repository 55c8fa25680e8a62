"""Exact integer-coefficient univariate polynomials.

A polynomial is a dense tuple of arbitrary-precision integer coefficients,
constant term first, trailing zeros trimmed.  All arithmetic is exact:
addition, multiplication, division over the rationals (returned with an
integer denominator so no information is lost), gcd via the primitive
polynomial remainder sequence, Newton's identities between coefficients and
root power sums, and cyclotomic polynomials by dividing t^m - 1 by the Phi_d
of the proper divisors d of m.  Nothing in this module touches floating point.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from ._immutable import Immutable, set_field


class InexactDivisionError(ArithmeticError):
    """Division did not come out over the integers (or left a remainder)."""

    def __init__(self, message: str, remainder: "IntPolynomial | None" = None):
        super().__init__(message)
        self.remainder = remainder


class IntPolynomial(Immutable):
    """Dense integer polynomial; ``coeffs[i]`` is the coefficient of t^i.

    The zero polynomial is the empty tuple.  Instances are immutable and
    hashable, so they can key caches.  Coefficients go through
    ``operator.index``: bools and numpy integers become ints, and a float
    raises TypeError instead of being truncated.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        data = tuple(map(operator.index, coeffs))
        end = len(data)
        while end and not data[end - 1]:
            end -= 1
        set_field(self, "coeffs", data[:end] if end < len(data) else data)

    def __eq__(self, other):
        if other.__class__ is not IntPolynomial:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({self.coeffs!r})"

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                for j, d in enumerate(b):
                    out[i + j] += c * d
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by t^k."""
        if self.is_zero():
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def evaluate(self, x):
        """Horner evaluation at an int or Fraction."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_scaled(self, num: int, den: int) -> int:
        """den^deg * p(num/den) as an exact integer; den must be positive.

        Shares the sign of p(num/den), which is all root counting needs.
        Horner's rule steps from one nonzero term to the next: across a gap
        of g zero coefficients it multiplies by num^g and den^g once, and the
        powers of num below the lowest nonzero term come last.  The integer
        is the same as the term-by-term sum of c_i num^i den^(deg-i).
        """
        if self.is_zero():
            return 0
        acc = self.coeffs[-1]
        denpow = 1
        gap = 0
        for c in reversed(self.coeffs[:-1]):
            gap += 1
            if c:
                denpow *= den**gap
                acc = acc * num**gap + c * denpow
                gap = 0
        return acc * num**gap

    def sign_at(self, x: Fraction | int, den: int = 1) -> int:
        """Sign of p(x / den), for x an int or a Fraction and den a positive int."""
        v = self.eval_scaled(x.numerator, x.denominator * den)
        return (v > 0) - (v < 0)

    def content(self) -> int:
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive_part(self) -> "IntPolynomial":
        """Divide out the content, keeping the sign of the polynomial."""
        c = self.content()
        if c <= 1:
            return self
        return IntPolynomial(a // c for a in self.coeffs)

    def reverse(self) -> "IntPolynomial":
        """t^deg * p(1/t); requires a nonzero constant term to be degree-preserving."""
        return IntPolynomial(tuple(reversed(self.coeffs)))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "t" if i == 1 else f"t^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)


def one() -> IntPolynomial:
    return IntPolynomial((1,))


def monomial(k: int) -> IntPolynomial:
    """t^k."""
    return IntPolynomial((0,) * k + (1,))


class DivisionResult(NamedTuple):
    """Outcome of dividing p by q over the rationals.

    The identity ``denominator * p == quotient * q + remainder`` holds exactly
    with integer polynomials and a positive integer denominator reduced to
    lowest terms; ``exact`` flags denominator == 1, i.e. both the quotient and
    the remainder are integer polynomials for p itself.
    """

    quotient: IntPolynomial
    remainder: IntPolynomial
    denominator: int
    exact: bool


def _pseudo_divide(p: IntPolynomial, q: IntPolynomial) -> tuple[list[int], list[int], int]:
    """Pseudo-division over Z: ``mult * p == quot * q + rem``, ``deg rem < deg q``.

    Returns the coefficient lists of ``quot`` and ``rem`` and the multiplier
    ``mult = lead(q)^j`` with ``0 <= j <= max(deg p - deg q + 1, 0)``.  The
    scaling is lazy: a step whose coefficient is 0 is skipped, a coefficient
    that ``lead(q)`` divides is eliminated by the exact multiple, and only
    otherwise are the live remainder entries and the quotient entries
    already set multiplied by ``lead(q)``.  So ``(mult, quot, rem)`` is a
    nonzero multiple of the rational quotient and remainder ``(1, Q, R)``,
    not a fixed power of ``lead(q)``.  Raises ZeroDivisionError for a zero
    divisor.
    """
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by the zero polynomial")
    qc = q.coeffs
    lq = qc[-1]
    dq = len(qc) - 1
    rem = list(p.coeffs)
    quot = [0] * max(len(rem) - dq, 0)
    mult = 1
    for k in range(len(rem) - 1, dq - 1, -1):
        coef = rem[k]
        if not coef:
            continue
        shift = k - dq
        c, r = divmod(coef, lq)
        if r:
            # Scale what is still live: rem[:k] and the quotient above shift.
            for i in range(k):
                rem[i] *= lq
            for i in range(shift + 1, len(quot)):
                quot[i] *= lq
            mult *= lq
            c = coef
        quot[shift] = c
        for j in range(dq):
            rem[shift + j] -= c * qc[j]
        rem[k] = 0
    return quot, rem, mult


def divrem(p: IntPolynomial, q: IntPolynomial) -> DivisionResult:
    """Exact division with remainder over the rationals.

    The pseudo-division's triple is divided by its gcd with the sign of the
    denominator made positive: that is the primitive integer point on the
    ray of ``(1, Q, R)``, so the result does not depend on how lazily the
    division scaled.  Raises ZeroDivisionError for a zero divisor.
    """
    quot, rem, den = _pseudo_divide(p, q)
    if den < 0:
        den = -den
        quot = [-c for c in quot]
        rem = [-c for c in rem]
    g = math.gcd(den, *quot, *rem)
    if g > 1:
        den //= g
        quot = [c // g for c in quot]
        rem = [c // g for c in rem]
    return DivisionResult(IntPolynomial(quot), IntPolynomial(rem), den, den == 1)


def exact_div(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """p // q when q divides p exactly over the integers; raises otherwise."""
    res = divrem(p, q)
    if not res.exact or not res.remainder.is_zero():
        raise InexactDivisionError(
            f"({p}) is not exactly divisible by ({q})", remainder=res.remainder
        )
    return res.quotient


def pseudo_rem(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """A positive integer multiple of the remainder of p modulo q.

    The multiple is |lead(q)|^j for some j no larger than the classical
    pseudo-remainder's exponent, chosen by the lazy scaling of the division.
    Unlike divrem, it takes no content gcd; ``remainder_sequence`` takes
    primitive parts itself, so only the sign and the primitive part of this
    result matter.
    """
    _, rem, mult = _pseudo_divide(p, q)
    return IntPolynomial(rem) if mult > 0 else -IntPolynomial(rem)


def remainder_sequence(f: IntPolynomial, g: IntPolynomial) -> Iterator[IntPolynomial]:
    """f, g, then the negated primitive pseudo-remainders, up to the last nonzero one.

    With g = f' it is the Sturm sequence of f.  Its last element is
    gcd(f, g) up to sign and content, as it stops at a constant or before a
    zero remainder.  g must be nonzero.  A generator, so a caller that
    wants only the last element holds two remainders at a time.
    """
    yield f
    yield g
    while g.degree() > 0:
        rem = pseudo_rem(f, g)
        if rem.is_zero():
            return
        f, g = g, (-rem).primitive_part()
        yield g


def poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Z with positive leading coefficient."""
    if p.is_zero():
        return q.primitive_part() if q.is_zero() or q.lead > 0 else (-q).primitive_part()
    if q.is_zero():
        return p.primitive_part() if p.lead > 0 else (-p).primitive_part()
    a, b = p.primitive_part(), q.primitive_part()
    if a.degree() < b.degree():
        a, b = b, a
    for a in remainder_sequence(a, b):
        pass
    return a if a.lead > 0 else -a


def power_sums(p: IntPolynomial, k: int) -> list[int]:
    """s_1..s_k, the power sums of the roots of monic p, by Newton's identities."""
    if not p.is_monic():
        raise ValueError("power sums need a monic polynomial")
    a = p.coeffs[::-1]  # a[i] is the coefficient of t^(deg p - i)
    s: list[int] = []
    for j in range(1, k + 1):
        term = j * a[j] if j < len(a) else 0
        s.append(-term - sum(a[i] * s[j - 1 - i] for i in range(1, min(j, len(a)))))
    return s


def from_power_sums(s: list[int]) -> IntPolynomial:
    """The monic polynomial of degree len(s) whose roots have the power sums s.

    Raises InexactDivisionError when s gives a coefficient that is not an integer.
    """
    a = [1]
    for j in range(1, len(s) + 1):
        q, r = divmod(-sum(a[i] * s[j - 1 - i] for i in range(j)), j)
        if r:
            raise InexactDivisionError(f"power sums give a non-integral coefficient a_{j}")
        a.append(q)
    return IntPolynomial(reversed(a))


# -- cyclotomic polynomials ------------------------------------------


@functools.cache
def cyclotomic(m: int) -> IntPolynomial:
    """The m-th cyclotomic polynomial, (t^m - 1) / prod of Phi_d over d | m, d < m.

    Each Phi_d comes from this function's own cache.

    >>> str(cyclotomic(6))
    't^2 - t + 1'
    """
    if m < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    divisors = one()
    for d in range(1, m // 2 + 1):
        if m % d == 0:
            divisors = divisors * cyclotomic(d)
    return exact_div(monomial(m) - one(), divisors)


def _phi_sieve(limit: int) -> tuple[int, ...]:
    """Euler phi for 1..limit by sieving."""
    phi = list(range(limit + 1))
    for i in range(2, limit + 1):
        if phi[i] == i:  # prime
            for j in range(i, limit + 1, i):
                phi[j] -= phi[j] // i
    return tuple(phi)


def cyclotomic_indices_up_to_degree(deg: int) -> tuple[int, ...]:
    """All m with phi(m) <= deg; search bound m <= 2*deg^2 since phi(m) >= sqrt(m/2)."""
    if deg < 1:
        return ()
    limit = 2 * deg * deg
    phi = _phi_sieve(limit)
    return tuple(m for m in range(1, limit + 1) if phi[m] <= deg)


# -- JSON wire format -------------------------------------------------


def poly_to_json(p: IntPolynomial) -> dict:
    return {"coeffs": [str(c) for c in p.coeffs]}


def int_from_json(value) -> int:
    """A wire integer: a JSON int or a decimal string.  A float or a bool
    raises ValueError instead of being truncated to an int."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        return int(value)
    raise ValueError(f"an integer must be a JSON int or a decimal string, got {value!r}")


def poly_from_json(data: dict) -> IntPolynomial:
    if not isinstance(data, dict) or not isinstance(data.get("coeffs"), list):
        raise ValueError("polynomial JSON must be an object with a 'coeffs' list")
    return IntPolynomial(map(int_from_json, data["coeffs"]))
