"""The self-test's checker and its suites' check counts and headroom."""

import math
from fractions import Fraction

import pytest

from pentacomplex import analytic, selftest
from pentacomplex.cli import main
from pentacomplex.errors import NoConvergence

CHECKS = {
    "basis-table": 2, "ring-axioms": 3001, "matrix-representation": 1200,
    "canonical-structure": 1021, "cosexp-triple-agreement": 1591,
    "cosexp-identities": 1639, "elementary-functions": 2200, "geometry": 4401,
    "analyticity": 91, "residues": 50, "factorization": 142,
}
# the suite with no tolerance check: basis-table holds exact products and a
# time budget
NO_TOLERANCE = {"basis-table"}


@pytest.fixture(scope="module")
def results():
    return selftest.run_all()


def test_each_suite_keeps_its_check_count(results):
    assert {r.name: r.checks for r in results} == CHECKS
    assert sum(CHECKS.values()) == 15338


def test_worst_is_the_headroom_of_the_tolerance_checks(results):
    for r in results:
        if r.name in NO_TOLERANCE:
            assert r.worst == 0.0, r.name
        else:
            assert 0.0 < r.worst <= 1.0, (r.name, r.worst)
    # the record's printed line does not show it
    assert "worst" not in results[1].line()


def test_within_passes_an_error_equal_to_its_tolerance():
    c = selftest._Checker()
    c.within(1e-12, 1e-12, "at the bound")
    assert (c.checks, c.failures, c.worst) == (1, [], 1.0)


def test_within_fails_a_nan_error():
    c = selftest._Checker()
    c.within(0.5, 1.0, "half")
    c.within(math.nan, 1.0, "nan")
    assert c.checks == 2
    assert c.failures == ["nan: error nan above 1.000e+00"]
    assert c.worst == math.inf


def test_within_fails_an_error_above_its_tolerance():
    c = selftest._Checker()
    c.within(3e-10, 1e-10, "too far")
    assert c.failures == ["too far: error 3.000e-10 above 1.000e-10"]
    assert c.worst == pytest.approx(3.0)
    # an exact error is compared exactly, though it rounds to the tolerance
    c = selftest._Checker()
    c.within(Fraction(1) + Fraction(1, 2 ** 60), 1, "ulp")
    assert c.failures == ["ulp: error 1.000e+00 above 1.000e+00"]
    assert type(c.worst) is float


def _raise_no_convergence(poly):
    raise NoConvergence("simulated")


def test_a_raising_suite_fails_alone(monkeypatch):
    monkeypatch.setattr(selftest.polyfactor, "count_factorizations", _raise_no_convergence)
    results = selftest.run_all()
    assert [r.name for r in results] == list(CHECKS)
    assert [r.name for r in results if not r.passed] == ["factorization"]
    assert results[-1].failures == ["raised NoConvergence: simulated"]


def test_the_cli_reports_a_raising_suite_and_the_others(monkeypatch, capsys):
    monkeypatch.setattr(selftest.polyfactor, "count_factorizations", _raise_no_convergence)
    assert main(["selftest"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 12
    assert lines[10].startswith("FAIL factorization (")
    assert lines[10].endswith(" :: raised NoConvergence: simulated")
    assert lines[11].startswith("10/11 suites passed (")
    assert captured.err == ""


@pytest.mark.parametrize("deviations", [(0.0, 1e-9), (0.0, math.inf), (0.0, 1.0),
                                        (math.nan, 0.0), (0.0, math.nan)])
def test_analyticity_fails_exactly_where_a_relation_report_does(monkeypatch, deviations):
    # the second-order checks see reports with these chain deviations; a
    # NaN fails them wherever it stands, as it fails the report
    def check_second_order(f, point):
        chains = tuple(analytic.MixedPartialChain(0, i, (), (), d, d <= 1e-6)
                       for i, d in enumerate(deviations))
        return analytic.SecondOrderReport(point, 1e-4, 1e-6, chains)

    monkeypatch.setattr(selftest.analytic, "check_second_order", check_second_order)
    passed = check_second_order(None, None).passed
    result = selftest.suite_analytic()
    assert result.checks == CHECKS["analyticity"]
    assert result.passed is passed
    assert all(msg.startswith("second-order chains fail for ") for msg in result.failures)
    if passed:
        assert 0.0 < result.worst <= 1.0
    else:
        assert result.worst > 1.0
