"""The five families: instantiation, filters, enumeration, scans, exceptions."""

import importlib
import json
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key

import pytest

from stretchlab.classify import (
    is_skew_reciprocal,
    is_skew_reciprocal_up_to_cyclotomic,
    parity_condition,
)
from stretchlab.cli import main
from stretchlab.families import (
    ALL_FORMS,
    SCAN_DEGREE_CAP,
    FamilyForm,
    _form_instances,
    admissibility_report,
    enumerate_admissible,
    instantiate,
    monotonicity_scan,
    primitivity_compatible,
    verify_low_degree_exceptions,
)
from stretchlab.poly import InexactDivisionError, IntPolynomial, exact_div
from stretchlab.roots import compare_enclosures, compare_power_to_silver_squared

P = IntPolynomial

SILVER_SQ = 5.828427124746190
MU4 = 6.854101966249685


def test_instantiate_examples():
    assert instantiate(FamilyForm("3A1", (1, 3)), 4) == P((-1, -1, 0, -1, 1))
    assert instantiate(FamilyForm("3A1", (2, 2)), 4) == P((-1, 0, -2, 0, 1))
    # the A*2 representative with P(t) = t^4 - 2t^3 + t^2 - 1: weights (1,1,4)
    assert instantiate(FamilyForm("AStar2", (1, 1, 4)), 4) == P((-1, 0, 1, -2, 1))
    # cross-check by exact multiplication: (t^2-t-1)(t^2-t+1)
    assert P((-1, -1, 1)) * P((1, -1, 1)) == P((-1, 0, 1, -2, 1))


def test_instantiate_reciprocal_convention():
    # P(t) = t^n Q(1/t) means reversing P recovers the clique polynomial
    for form, n, q_coeffs in [
        (FamilyForm("2A1", (1,)), 3, (1, -1, 0, -1)),
        (FamilyForm("4A1", (1, 2, 2)), 5, (1, -1, -2, 0, 0, -1)),
        (FamilyForm("AStar2", (1, 2, 5)), 5, (1, -1, -1, 1, 0, -1)),
    ]:
        p = instantiate(form, n)
        assert p.reverse() == P(q_coeffs)


def test_instantiate_errors():
    with pytest.raises(ValueError):
        instantiate(FamilyForm("3A1", (1, 5)), 4)  # exponent above n
    with pytest.raises(ValueError):
        FamilyForm("3A1", (0, 2))  # nonpositive parameter
    with pytest.raises(ValueError):
        FamilyForm("3A1", (1, 2, 3))  # arity
    with pytest.raises(ValueError):
        instantiate(FamilyForm("AStar2", (1, 1, 3)), 4)  # max(c, a+b) != n
    with pytest.raises(ValueError):
        FamilyForm("6A1", (1,))


def test_primitivity_compatible():
    assert not primitivity_compatible(P((-1, 0, -2, 0, 1)))
    assert primitivity_compatible(P((-1, -1, 0, -1, 1)))
    assert not primitivity_compatible(P((-1, 0, 0, -3, 0, 0, 1)))


def test_enumerate_n4_individual_forms():
    only_3a1 = enumerate_admissible(4, forms=("3A1",))
    assert [r.polynomial for r in only_3a1] == [P((-1, -1, 0, -1, 1))]
    assert abs(float(only_3a1[0].normalized) - MU4) < 1e-9

    only_4a1 = enumerate_admissible(4, forms=("4A1",))
    assert [r.polynomial for r in only_4a1] == [P((-1, -2, -1, 0, 1))]
    assert abs(float(only_4a1[0].normalized) - MU4) < 1e-9


def test_enumerate_n4_all_forms():
    reports = enumerate_admissible(4)
    assert reports, "n=4 must have admissible polynomials"
    assert abs(float(reports[0].normalized) - MU4) < 1e-9
    # includes the 5A1 member (t^2+1)(t^2-2t-1) with value sigma^4
    assert any(r.polynomial == P((-1, -2, 0, -2, 1)) for r in reports)
    assert P((1, 0, 1)) * P((-1, -2, 1)) == P((-1, -2, 0, -2, 1))
    # every admissible value stays above the bound
    for r in reports:
        assert compare_power_to_silver_squared(r.root, 4) >= 0
    # filter soundness: parity follows independently
    for r in reports:
        assert parity_condition(r.polynomial)


def test_enumerate_rejects_known_non_candidates():
    polys = {r.polynomial for r in enumerate_admissible(4)}
    assert P((-1, 0, 0, -1, 1)) not in polys  # t^4 - t^3 - 1: parity fails
    assert P((-1, -2, 0, 0, 1)) not in polys  # t^4 - 2t - 1: not skew up to cyclotomic
    # the degree-4 analogues the low-degree check excludes by its filters alone
    excluded = {p for p, _ in verify_low_degree_exceptions().excluded_at_4}
    assert excluded == {P((-1, 0, 0, -1, 1)), P((-1, -2, 0, 0, 1))}
    assert not excluded & polys


def test_enumerate_low_degrees_find_the_exceptions():
    # the n = 2 and n = 3 exceptional values come straight out of the engine
    n2 = enumerate_admissible(2)
    assert n2 and n2[0].polynomial == P((-1, -1, 1))
    assert abs(float(n2[0].normalized) - 2.618033988749895) < 1e-9
    n3 = enumerate_admissible(3)
    assert any(r.polynomial == P((-1, -2, 0, 1)) for r in n3)
    assert abs(float(n3[0].normalized) - 4.23606797749979) < 1e-9


def test_enumerate_cap():
    with pytest.raises(ValueError):
        enumerate_admissible(18)
    with pytest.raises(ValueError):
        enumerate_admissible(1)


@pytest.mark.parametrize("forms", [("bogus",), ("2A1", ""), ("",)])
def test_enumerate_rejects_unknown_form_tags(forms):
    with pytest.raises(ValueError, match="unknown family form tag"):
        enumerate_admissible(4, forms=forms)


def test_cyclotomic_trial_division_only_after_parity(monkeypatch):
    candidates = {
        instantiate(form, 16) for tag in ALL_FORMS for form in _form_instances(tag, 16)
    }
    passing = [p for p in candidates if p.constant_term() and parity_condition(p)]
    assert len(passing) * 10 < len(candidates)
    # the package's classify() function shadows the module attribute
    classify_module = importlib.import_module("stretchlab.classify")
    strip = classify_module.strip_cyclotomic
    calls = []
    monkeypatch.setattr(
        classify_module, "strip_cyclotomic", lambda p: calls.append(p) or strip(p)
    )
    enumerate_admissible(16)
    assert len(calls) <= len(passing)
    assert all(parity_condition(p) for p in calls)


def test_stripping_skips_failing_divisions(monkeypatch):
    # the Phi_m(2) | p(2) test: plain trial division makes ~8,700 divisions here
    classify_module = importlib.import_module("stretchlab.classify")
    divrem = classify_module.divrem
    calls = []
    monkeypatch.setattr(
        classify_module, "divrem", lambda p, q: calls.append(q) or divrem(p, q)
    )
    enumerate_admissible(16)
    assert 0 < len(calls) < 1000


def test_reports_built_only_for_parity_survivors(monkeypatch, capsys):
    # the package's classify() function shadows the module attribute
    classify_module = importlib.import_module("stretchlab.classify")
    families_module = importlib.import_module("stretchlab.families")
    report_fn = families_module.admissibility_report
    parity_calls = []
    reports = []

    def counted_parity(p):
        parity_calls.append(p.coeffs)
        return parity_condition(p)

    def recorded_report(p, tol):
        reports.append(report_fn(p, tol))
        return reports[-1]

    for module in (classify_module, families_module):
        monkeypatch.setattr(module, "parity_condition", counted_parity)
    monkeypatch.setattr(families_module, "admissibility_report", recorded_report)
    assert main(["family", "--n", "16"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    # parity runs once on each of the 5,028 distinct candidates, once more
    # inside the report of each of the 326 that pass it, and once in the skew
    # predicate of each report whose polynomial is not skew-reciprocal itself
    assert len(reports) == 326
    in_reports = Counter()
    for r in reports:
        p = r.polynomial
        in_reports[p.coeffs] += 1 + (p.constant_term() != 0 and is_skew_reciprocal(p) is None)
    before_reports = Counter(parity_calls) - in_reports
    assert len(before_reports) == 5028 and set(before_reports.values()) == {1}
    for r in reports:
        p = r.polynomial
        # the filter fields as computed before skew waited for parity
        expected = (
            True,
            primitivity_compatible(p),
            p.constant_term() != 0 and is_skew_reciprocal_up_to_cyclotomic(p),
        )
        assert (r.parity_ok, r.primitivity_compatible, r.skew_up_to_cyclotomic) == expected


@pytest.mark.parametrize("n", range(4, 17))
def test_enumerate_matches_the_full_report_filter(n):
    candidates = {
        instantiate(form, n).coeffs for tag in ALL_FORMS for form in _form_instances(tag, n)
    }
    reports = [admissibility_report(P(c)) for c in candidates]
    # certified order of the values; the stable sort keeps equal ones in coefficient order
    by_coeffs = sorted((r for r in reports if r.admissible), key=lambda r: r.polynomial.coeffs)
    expected = sorted(by_coeffs, key=cmp_to_key(lambda a, b: compare_enclosures(a.root, b.root)))
    assert enumerate_admissible(n) == expected


@pytest.mark.parametrize("tol", ["1", "1/2"])
def test_family_minimum_does_not_depend_on_the_tolerance(tol, capsys):
    # coarse enclosures overlap, so only a certified order finds the minimum
    assert main(["family", "--n", "12"]) == 0
    fine = json.loads(capsys.readouterr().out)
    assert main(["family", "--n", "12", "--tol", tol]) == 0
    coarse = json.loads(capsys.readouterr().out)
    assert fine["table"][0]["polynomial"] == "t^12 - t^7 - t^5 - 1"
    assert coarse["table"][0]["polynomial"] == fine["table"][0]["polynomial"]
    assert [row["polynomial"] for row in coarse["table"]] == [
        row["polynomial"] for row in fine["table"]
    ]


def test_admissible_reports_carry_the_exact_side():
    for n in (4, 6, 12):
        for r in enumerate_admissible(n, tol=Fraction(1)):
            assert r.side == compare_power_to_silver_squared(r.root, n)


@pytest.mark.parametrize("n", range(2, 41))
def test_astar2_forms_match_the_set_based_enumeration(n):
    # every (a, b, c), a <= b, with max(c, a + b) = n, collected and sorted
    seen = set()
    for a in range(1, n):
        for b in range(a, n - a + 1):
            if a + b <= n:
                seen.add((a, b, n))
            if a + b == n:
                seen.update((a, b, c) for c in range(1, n + 1))
    assert [form.params for form in _form_instances("AStar2", n)] == sorted(seen)


def test_quotient_exact_examples():
    assert exact_div(P((-1, -2, 0, 1)), P((1, 1))) == P((-1, -1, 1))
    assert exact_div(P((-1, -2, -1, 0, 1)), P((1, 1, 1))) == P((-1, -1, 1))
    with pytest.raises(InexactDivisionError) as err:
        exact_div(P((-1, -1, 0, 0, 0, -1, 1)), P((1, 0, 1)))
    assert not err.value.remainder.is_zero()


def test_monotonicity_scan_3a1():
    result = monotonicity_scan("3A1", 12, range(0, 6))
    assert result.strictly_increasing
    assert abs(float(result.points[0].normalized) - SILVER_SQ) < 1e-9
    # d = 0 instance is t^12 - 2t^6 - 1
    assert result.points[0].polynomial == P((-1,) + (0,) * 5 + (-2,) + (0,) * 5 + (1,))


def test_monotonicity_scan_4a1():
    result = monotonicity_scan("4A1", 12, range(0, 6))
    assert result.strictly_increasing
    # ((3 + sqrt 13)/2)^2
    assert abs(float(result.points[0].normalized) - 10.908326913195984) < 1e-7


def test_monotonicity_scan_5a1():
    result = monotonicity_scan("5A1", 12, range(0, 3))
    assert result.strictly_increasing
    first = result.points[0]
    assert first.params == (0, 0)
    # (2 + sqrt 5)^2
    assert abs(float(first.normalized) - 17.944271909999159) < 1e-7


def _monomials(n: int, *exponents: int) -> P:
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    for e in exponents:
        coeffs[e] -= 1
    return P(coeffs)


@pytest.mark.parametrize("n", range(4, 25, 2))
def test_scan_polynomials_are_the_closed_forms(n):
    g = n // 2
    closed = {
        "3A1": lambda d: _monomials(n, g + d, g - d, 0),
        "4A1": lambda d: _monomials(n, g + d, g, g - d, 0),
        "5A1": lambda a, b: _monomials(n, g + a, g + b, g - b, g - a, 0),
    }
    for branch, form in closed.items():
        points = monotonicity_scan(branch, n).points
        assert [pt.params for pt in points] == sorted(pt.params for pt in points)
        assert len(points) == (g * (g + 1) // 2 if branch == "5A1" else g)
        for pt in points:
            assert pt.polynomial == form(*pt.params)


def test_scan_errors():
    with pytest.raises(ValueError):
        monotonicity_scan("3A1", 11)
    with pytest.raises(ValueError):
        monotonicity_scan("3A1", 12, [6])
    with pytest.raises(ValueError, match="exceeds the scan cap"):
        monotonicity_scan("5A1", SCAN_DEGREE_CAP + 2)
    # family tags without a symmetric scan are rejected as branches, too
    for branch in ("XX", "2A1", "AStar2"):
        with pytest.raises(ValueError, match="unknown scan branch"):
            monotonicity_scan(branch, 12)


def test_low_degree_exceptions():
    report = verify_low_degree_exceptions()
    assert report.ok
    assert report.n2_skew_sign == -1
    assert report.n3_skew_up_to_cyclotomic
    assert report.n3_core == P((-1, -1, 1))
    assert abs(float(report.mu_squared) - 2.618033988749895) < 1e-9
    assert abs(float(report.mu_cubed) - 4.23606797749979) < 1e-9
    assert report.below_bound
    reasons = dict((str(p), why) for p, why in report.excluded_at_4)
    assert reasons["t^4 - t^3 - 1"] == "parity"
    assert reasons["t^4 - 2*t - 1"] == "skew_up_to_cyclotomic"


@pytest.mark.parametrize("tol", [Fraction(1, 2), Fraction(1)])
def test_low_degree_exceptions_hold_at_a_coarse_tolerance(tol):
    # mu^2 and mu^3 enclosures this wide overlap the bound; the side is still exact
    report = verify_low_degree_exceptions(tol)
    assert report.below_bound
    assert report.ok
