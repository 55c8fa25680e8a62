"""Output verifier: decides whether one `stretch-lab` operation answered correctly.

Three kinds of checks, none of which needs byte-identical JSON:

* Fields that do not depend on representation (polynomials as coefficient
  lists, counts, booleans, 10-digit decimals, exit codes) are compared with
  ``refs.json``, recorded at the seed commit by ``record_refs.py``.
* Every reported dyadic root enclosure is checked directly: its
  certificate polynomial changes sign between ``lo`` and ``hi`` by exact
  integer evaluation, its width is at most the CLI's default tolerance, and
  its 10-digit decimal agrees with its midpoint.  Derived intervals
  (``normalized``) must contain the power of the enclosed root.
* Where no reference can exist, the verifier recomputes the answer with its
  own small exact code: the closed form of the sharpness family (so
  ``sharpness --k 200`` is checkable although it fails at the seed), and
  characteristic polynomials, cyclotomic parts, Sturm counts, primitivity
  and simple cycles for the seeded `witness` inputs.

``check(op, code, stdout, refs)`` returns a list of problems; empty means
the operation answered correctly.
"""

from __future__ import annotations

import functools
import json
import math
from decimal import Decimal
from fractions import Fraction

#: Enclosure width bound of every operation: the CLI's default ``--tol``.
TOL = Fraction(1, 2**40)


class Mismatch(Exception):
    """The output disagrees with the reference or with the exact recomputation."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# -- exact polynomial helpers (coefficient lists, constant term first) -------


def trim(p) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def poly_divmod(p, q) -> tuple[list, list]:
    """Quotient and remainder over the rationals."""
    rem = [Fraction(c) for c in trim(p)]
    q = trim(q)
    dq = len(q) - 1
    if len(rem) - 1 < dq:
        return [], trim(rem)
    quot = [Fraction(0)] * (len(rem) - dq)
    for k in range(len(rem) - 1, dq - 1, -1):
        c = rem[k] / q[-1]
        quot[k - dq] = c
        if c:
            for j in range(dq + 1):
                rem[k - dq + j] -= c * q[j]
    return trim(quot), trim(rem[:dq])


def derivative(p) -> list:
    return trim(i * c for i, c in enumerate(p) if i)


def poly_gcd(a, b) -> list:
    """Monic gcd over the rationals."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return [Fraction(c) / a[-1] for c in a] if a else []


def square_free(p) -> list:
    """p / gcd(p, p'), with rational coefficients; same real roots, all simple."""
    g = poly_gcd(p, derivative(p))
    return poly_divmod(p, g)[0] if len(g) > 1 else trim(p)


def sign_at(p, x: Fraction) -> int:
    """Sign of p(x), by exact integer evaluation of den^deg * p(num/den)."""
    if not p:
        return 0
    x = Fraction(x)
    coeffs = [Fraction(c) for c in p]
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    acc = ints[-1]
    denpow = 1
    for c in reversed(ints[:-1]):
        denpow *= x.denominator
        acc = acc * x.numerator + c * denpow
    return (acc > 0) - (acc < 0)


def sturm_roots(p, a: Fraction, b: Fraction) -> int:
    """Distinct real roots of p in (a, b]."""
    f = square_free(p)
    if len(f) < 2:
        return 0
    chain = [f, derivative(f)]
    while len(chain[-1]) > 1:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])

    def variations(x):
        signs = [s for s in (sign_at(q, x) for q in chain) if s]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return variations(a) - variations(b)


def root_bound(p) -> Fraction:
    """Cauchy bound: every root has modulus below 1 + max |c_i / lead|."""
    p = trim(p)
    return 1 + max(abs(Fraction(c) / p[-1]) for c in p[:-1])


def cyclotomic(m: int) -> list[int]:
    """Phi_m: (t^m - 1) divided by Phi_d for every proper divisor d of m."""
    return list(_cyclotomic(m))


@functools.cache
def _cyclotomic(m: int) -> tuple[int, ...]:
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = [int(c) for c in poly_divmod(num, _cyclotomic(d))[0]]
    return tuple(num)


def _phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


@functools.cache
def cyclotomic_indices(deg: int) -> list[int]:
    """Every m with phi(m) <= deg; phi(m) >= sqrt(m / 2) bounds the search."""
    return [m for m in range(1, 2 * deg * deg + 1) if _phi(m) <= deg]


def divides(q, p) -> bool:
    return not poly_divmod(p, q)[1]


# -- parsing ------------------------------------------------------------


def parse_dyadic(text: str) -> Fraction:
    """'p/2^k', 'p/q' or 'p' as an exact rational."""
    if "/" not in text:
        return Fraction(int(text))
    num, den = text.split("/", 1)
    if den.startswith("2^"):
        return Fraction(int(num), 2 ** int(den[2:]))
    return Fraction(int(num), int(den))


def parse_poly(text: str) -> list[int]:
    """Coefficients of the CLI's rendering, e.g. 't^12 - 2*t^7 - 1'."""
    if text.strip() == "0":
        return []
    coeffs: dict[int, int] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        term = term.strip()
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        if "t" in term:
            mag, _, var = term.rpartition("*")
            power = int(var[2:]) if var.startswith("t^") else 1
            value = int(mag) if mag else 1
        else:
            power, value = 0, int(term)
        coeffs[power] = coeffs.get(power, 0) + sign * value
    top = max(coeffs)
    return trim(coeffs.get(i, 0) for i in range(top + 1))


def coeffs_of(field) -> list[int]:
    """A polynomial field in any of the CLI's wire shapes, as coefficients."""
    if isinstance(field, dict):
        field = field["coeffs"]
    if isinstance(field, str):
        return parse_poly(field)
    return trim(int(c) for c in field)


# -- enclosure checks ---------------------------------------------------------


def check_decimal(text: str, lo: Fraction, hi: Fraction, what: str) -> None:
    """The 10-significant-digit decimal must round the interval's midpoint."""
    value = Decimal(text)
    mid = (lo + hi) / 2
    ulp = Fraction(10) ** (value.adjusted() - 9) if value else Fraction(1, 10**9)
    _expect(abs(Fraction(value) - mid) <= ulp, f"{what}: decimal {text} is not its midpoint")


def check_enclosure(p, enc: dict, what: str, largest: bool = False, tol: Fraction = TOL):
    """A root of p lies in [lo, hi] (sign change), width <= tol; returns (lo, hi).

    With ``largest`` the verifier also Sturm-counts that p has no real root
    above ``hi``, which is only affordable at low degree.
    """
    _expect(isinstance(enc, dict), f"{what}: enclosure missing")
    lo, hi = parse_dyadic(enc["lo"]), parse_dyadic(enc["hi"])
    _expect(lo < hi, f"{what}: empty enclosure")
    _expect(hi - lo <= tol, f"{what}: width {float(hi - lo):.3g} exceeds the tolerance")
    if sign_at(p, lo) * sign_at(p, hi) != -1:
        # an even-multiplicity root does not change sign; its square-free part does
        sf = square_free(p)
        _expect(sign_at(sf, lo) * sign_at(sf, hi) == -1, f"{what}: no sign change on [lo, hi]")
    if largest:
        bound = root_bound(p)
        _expect(hi >= bound or sturm_roots(p, hi, bound) == 0, f"{what}: a real root lies above hi")
    check_decimal(enc["decimal"], lo, hi, what)
    return lo, hi


def check_power_enclosure(p, lo: Fraction, hi: Fraction, n: int, enc: dict, what: str) -> tuple:
    """[L, H] must contain r^n for the root r of p certified in [lo, hi]."""
    big_l, big_h = parse_dyadic(enc["lo"]), parse_dyadic(enc["hi"])
    _expect(big_l <= big_h, f"{what}: empty interval")
    s_lo = sign_at(p, lo)
    for _ in range(400):
        if lo**n >= big_l and hi**n <= big_h:
            break
        mid = (lo + hi) / 2
        s = sign_at(p, mid)
        if s == 0:
            lo = hi = mid
        elif s == s_lo:
            lo = mid
        else:
            hi = mid
    else:
        raise Mismatch(f"{what}: interval does not contain the power of the root")
    check_decimal(enc["decimal"], big_l, big_h, what)
    return big_l, big_h


def exceeds_silver_squared(x: Fraction) -> bool:
    """x > 3 + 2*sqrt(2), exactly."""
    return x > 3 and (x - 3) ** 2 > 8


# -- canonical forms for the reference comparison -----------------------------


def _rows(table, *fields):
    return [[coeffs_of(r[f]) if f in ("polynomial", "char_poly") else r[f] for f in fields] for r in table]


def _search_class(c):
    return [coeffs_of(c["char_poly"]), c["normalized"], c["matrices"]]


def canonical(kind: str, out: dict):
    """The representation-independent fields of one report."""
    if kind == "family":
        keys = ("n", "forms", "count", "minimum", "bound")
        return {
            **{k: out[k] for k in keys},
            "below_bound": [coeffs_of(p) for p in out["below_bound"]],
            "table": _rows(out["table"], "polynomial", "normalized"),
        }
    if kind == "scan":
        keys = ("branch", "n", "strictly_increasing")
        return {**{k: out[k] for k in keys}, "table": _rows(out["table"], "params", "polynomial", "normalized")}
    if kind == "repro":
        checks = [[c["check"], c["values"], c["pass"]] for c in out["checks"]]
        return {"target": out["target"], "pass": out["pass"], "checks": checks}
    if kind == "search":
        minimum = out["minimum"]
        if minimum is not None:
            rows = [[int(e) for e in row] for row in minimum["matrix"]]
            minimum = [coeffs_of(minimum["char_poly"]), minimum["normalized"], rows]
        keys = ("n", "max_entry", "count_scanned", "count_qualifying", "bound")
        return {
            **{k: out[k] for k in keys},
            "classes": [_search_class(c) for c in out["classes"]],
            "violations": [_search_class(c) for c in out["violations"]],
            "minimum": minimum,
        }
    if kind == "sharpness":
        return {
            "k": out["k"],
            "p_k": out["p_k"],
            "q_k": out["q_k"],
            "root": out["root"]["decimal"],
            "normalized": out["normalized"]["decimal"],
            "exceeds_bound": out["exceeds_bound"],
        }
    if kind == "sharpness_table":
        return {"limit": out["limit"], "table": _rows(out["table"], "k", "p_k", "q_k", "char_poly", "normalized")}
    if kind == "traintrack":
        boundary = sorted([c["length"], c["cusps"], c["inner"]] for c in out["boundary"])
        return {**{k: v for k, v in out.items() if k != "boundary"}, "boundary": boundary}
    raise ValueError(f"no canonical form for {kind!r}")


def _json_normal(x):
    return json.loads(json.dumps(x))


# -- closed forms of the sharpness family -------------------------------------


def silver_parameters(k: int) -> tuple[int, int]:
    p = k + 1 if k % 2 == 0 else k + 2
    return p, pow(p, -1, 2 * k)


def sharpness_char_poly(k: int) -> list[int]:
    """t^2k - t^p_k - t^(2k - p_k) - 1."""
    p, _ = silver_parameters(k)
    coeffs = [0] * (2 * k + 1)
    coeffs[0], coeffs[p], coeffs[2 * k - p], coeffs[2 * k] = -1, -1, -1, 1
    return coeffs


def sharpness_matrix(k: int) -> list[list[int]]:
    """P + N: the cyclic shift plus first-row ones at columns p_k - 1 and 2k - p_k - 1."""
    p, _ = silver_parameters(k)
    n = 2 * k
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        rows[(j + 1) % n][j] = 1
    rows[0][p - 1] += 1
    rows[0][n - p - 1] += 1
    return rows


def _check_sharpness(out: dict) -> None:
    k = out["k"]
    p, q = silver_parameters(k)
    _expect((out["p_k"], out["q_k"]) == (p, q), "p_k, q_k differ from the closed form")
    chi = coeffs_of(out["char_poly"])
    _expect(chi == sharpness_char_poly(k), "char_poly differs from t^2k - t^p - t^(2k-p) - 1")
    rows = [[int(e) for e in row] for row in out["matrix"]]
    _expect(rows == sharpness_matrix(k), "matrix differs from P + N")
    # The Perron root of a primitive matrix is simple, so chi itself changes sign.
    lo, hi = check_enclosure(chi, out["root"], "root")
    big_l, _ = check_power_enclosure(chi, lo, hi, 2 * k, out["normalized"], "normalized")
    _expect(out["exceeds_bound"] is True and exceeds_silver_squared(big_l), "P_k not above the bound")


def _check_sharpness_table(out: dict) -> None:
    for row in out["table"]:
        _expect(coeffs_of(row["char_poly"]) == sharpness_char_poly(row["k"]), f"table row k={row['k']}")


# -- witness oracles -------------------------------------------------------------


def char_poly(rows) -> list[int]:
    """det(tI - A) by Faddeev-LeVerrier; every division is exact over Z."""
    n = len(rows)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[0] * n for _ in range(n)]  # M_0 = 0
    c = 1
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I
        am = [[sum(rows[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
        a_m = [[sum(rows[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        trace = sum(a_m[i][i] for i in range(n))
        _expect(trace % k == 0, "internal: inexact Faddeev-LeVerrier step")
        c = -trace // k
        coeffs[n - k] = c
    return coeffs


def simple_cycles(rows) -> list[tuple[int, ...]]:
    """Vertex-simple directed cycles of the support, each once (smallest vertex first)."""
    n = len(rows)
    out = []

    def extend(path):
        u = path[-1]
        for v in range(n):
            if not rows[u][v]:
                continue
            if v == path[0]:
                out.append(tuple(path))
            elif v > path[0] and v not in path:
                extend(path + [v])

    for s in range(n):
        extend([s])
    return out


def _check_spectral_class(p: list[int], sc: dict, what: str) -> None:
    _expect(coeffs_of(sc["polynomial"]) == p, f"{what}: polynomial differs from the input")
    cyclo, core = coeffs_of(sc["cyclotomic_part"]), coeffs_of(sc["core"])
    _expect(poly_mul(cyclo, core) == p, f"{what}: cyclotomic_part * core != polynomial")
    rest = cyclo
    for m in cyclotomic_indices(len(cyclo) - 1):
        phi = cyclotomic(m)
        while len(rest) >= len(phi) and divides(phi, rest):
            rest = [int(c) for c in poly_divmod(rest, phi)[0]]
    _expect(rest == [1], f"{what}: cyclotomic_part is not a product of cyclotomics")
    for m in cyclotomic_indices(len(core) - 1):
        _expect(not divides(cyclotomic(m), core), f"{what}: core keeps Phi_{m}")
    d = len(p) - 1
    recip = next((e for e in (1, -1) if all(p[j] == e * p[d - j] for j in range(d + 1))), None)
    _expect(sc["reciprocal"] == recip, f"{what}: reciprocal")

    def skew(q):
        m = len(q) - 1
        if m % 2 or q[0] == 0:
            return None
        return next(
            (e for e in (1, -1) if all(q[j] == e * (-1) ** (j % 2) * q[m - j] for j in range(m + 1))),
            None,
        )

    _expect(sc["skew_reciprocal"] == skew(p), f"{what}: skew_reciprocal")
    parity = all((p[j] + p[d - j]) % 2 == 0 for j in range(d + 1))
    _expect(sc["parity_ok"] == parity, f"{what}: parity_ok")
    constant = p[0] != 0
    _expect(sc["degenerate"] == (constant and len(core) == 1), f"{what}: degenerate")
    utc = constant and (skew(p) is not None or len(core) == 1 or skew(core) is not None)
    _expect(sc["skew_up_to_cyclotomic"] == utc, f"{what}: skew_up_to_cyclotomic")
    has_root = d >= 1 and sturm_roots(p, Fraction(0), root_bound(p)) >= 1
    if has_root:
        check_enclosure(p, sc["largest_real_root"], f"{what}: largest_real_root", largest=True)
    else:
        _expect(sc["largest_real_root"] is None, f"{what}: reports a root that does not exist")


def _check_matrix(rows, out: dict) -> None:
    n = len(rows)
    chi = char_poly(rows)
    _expect(out["n"] == n, "n")
    _expect(coeffs_of(out["char_poly"]) == chi, "char_poly")
    det = (-1) ** n * chi[0]
    _expect(int(out["det"]) == det and out["in_glnz"] == (abs(det) == 1), "det / in_glnz")
    cycles = simple_cycles(rows)
    period = 0
    for c in cycles:
        period = math.gcd(period, len(c))
    prim = out["primitivity"]
    # the generated matrices contain the cyclic shift, so they are strongly connected
    expected = {"nonnegative": True, "strongly_connected": True, "period": period, "primitive": period == 1}
    _expect(prim == expected, f"primitivity {prim} != {expected}")
    _check_spectral_class(chi, out["spectral_class"], "spectral_class")
    # Perron-Frobenius: a strongly connected nonnegative matrix has its spectral
    # radius as a simple positive root of chi.
    lo, hi = check_enclosure(chi, out["spectral_radius"], "spectral_radius", largest=True)
    check_power_enclosure(chi, lo, hi, n, out["normalized_spectral_radius"], "normalized_spectral_radius")
    norm = out["normalized_spectral_radius"]
    width = parse_dyadic(norm["hi"]) - parse_dyadic(norm["lo"])
    _expect(width <= TOL, "normalized_spectral_radius wider than the tolerance")


def _check_curve_graph(rows, out: dict) -> None:
    n = len(rows)
    chi = char_poly(rows)
    _expect(out["n"] == n, "n")
    _expect(coeffs_of(out["char_poly"]) == chi, "char_poly")
    clique = coeffs_of(out["clique_poly"])
    _expect(clique == trim(reversed(chi)), "clique polynomial != t^n chi(1/t)")
    _expect(out["identity_ok"] is True, "identity_ok")
    listed = out["cycles"]
    expected = sorted(
        (c, tuple(choice))
        for c in simple_cycles(rows)
        for choice in _choices([rows[c[i]][c[(i + 1) % len(c)]] for i in range(len(c))])
    )
    got = sorted((tuple(c["vertices"]), tuple(c["edge_choices"])) for c in listed)
    _expect(got == expected, "cycles differ from the simple cycles of the matrix")
    _expect(out["weights"] == [len(c["vertices"]) for c in listed], "weights")
    disjoint = [
        [i, j]
        for i in range(len(listed))
        for j in range(i + 1, len(listed))
        if not set(listed[i]["vertices"]) & set(listed[j]["vertices"])
    ]
    _expect(out["edges"] == disjoint, "curve-graph edges are not the disjoint pairs")
    check_enclosure(trim(reversed(clique)), out["growth_rate"], "growth_rate", largest=True)


def _choices(mults):
    if not mults:
        return [()]
    return [(c,) + rest for c in range(mults[0]) for rest in _choices(mults[1:])]


# -- entry point -------------------------------------------------------------------


def expected_exit(op, refs: dict) -> int:
    ref = refs.get(op.key)
    return ref["exit"] if ref else 0


def check(op, code: int, stdout: bytes, refs: dict) -> list[str]:
    """Problems with one operation's answer; an empty list means correct."""
    try:
        out = json.loads(stdout)
    except ValueError:
        return [f"exit {code}, no JSON report"]
    try:
        _expect(code == expected_exit(op, refs), f"exit code {code}, expected {expected_exit(op, refs)}")
        ref = refs.get(op.key)
        if ref is not None:
            got = _json_normal(canonical(op.kind, out))
            _expect(got == ref["out"], "differs from the seed reference")
        if op.kind == "sharpness":
            _check_sharpness(out)
        elif op.kind == "sharpness_table":
            _check_sharpness_table(out)
        elif op.kind == "classify":
            _check_spectral_class(trim(op.data["coeffs"]), out, "classify")
        elif op.kind == "matrix":
            _check_matrix(op.data["rows"], out)
        elif op.kind == "curve-graph":
            _check_curve_graph(op.data["rows"], out)
        elif ref is None:
            raise Mismatch(f"no reference for {op.key!r}")
    except Mismatch as exc:
        return [str(exc)]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
    return []
