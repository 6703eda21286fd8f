import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentacomplex import (ONE, ZERO, ComponentPolynomials, EvaluationFailed,
                          InsufficientTerms, Overflow, PentaComplex, PowerSeries, ZeroTail,
                          check_cr_relations, check_second_order,
                          coefficient_spectrum, convergence_radii, exp,
                          inverse, multiply, series_eval,
                          series_eval_components, sin, taylor_coefficients,
                          to_canonical)
from pentacomplex.canonical import E1_TILDE


def rand(rng, lo=-1.0, hi=1.0):
    return PentaComplex(*rng.uniform(lo, hi, 5))


def dev(u, v):
    return max(abs(a - b) for a, b in zip(u, v))


def test_constant_series():
    s = PowerSeries((ONE,))
    rng = np.random.default_rng(50)
    for _ in range(10):
        assert series_eval(s, rand(rng)) == ONE


def test_geometric_series_equals_inverse():
    rng = np.random.default_rng(51)
    s = PowerSeries(tuple(ONE for _ in range(60)))
    for _ in range(50):
        u = rand(rng, -0.08, 0.08)
        got = series_eval(s, u)
        want = inverse(ONE - u)
        assert dev(got, want) <= 1e-10 * max(1.0, abs(want))


def test_horner_and_component_evaluation_agree():
    rng = np.random.default_rng(52)
    for _ in range(100):
        coeffs = tuple(rand(rng, -2, 2) for _ in range(8))
        s = PowerSeries(coeffs)
        u = rand(rng, -0.9, 0.9)
        a = series_eval(s, u)
        b = series_eval_components(s, u)
        assert dev(a, b) <= 1e-12 * max(1.0, abs(a))


@pytest.mark.parametrize("parts", [((1.0,), (1 + 0j, 0j), (1 + 0j, 0j)),
                                   ((1.0, 0.0), (1 + 0j,), (1 + 0j, 0j)),
                                   ((1.0, 0.0), (1 + 0j, 0j), ()),
                                   ((), (1 + 0j,), (1 + 0j,))])
def test_component_polynomials_of_different_lengths_raise(parts):
    # zip would cut the longer ones short: the first case evaluated to 1,
    # where the planes' polynomial is z
    with pytest.raises(ValueError, match="same number of coefficients"):
        ComponentPolynomials(*parts)


def test_coefficient_spectrum_examples():
    sp = coefficient_spectrum(ONE)
    assert (sp.vplus, sp.v1, sp.tv1, sp.v2, sp.tv2) == (1, 1, 0, 1, 0)
    sp = coefficient_spectrum(PentaComplex.basis(1))
    assert abs(sp.v1 - math.cos(2 * math.pi / 5)) <= 1e-15
    assert abs(sp.tv1 - math.sin(2 * math.pi / 5)) <= 1e-15


def trig_spectrum(a):
    # the component sums weighted by cos/sin of the fifth-circle angles,
    # an independent route to the canonical transform
    comps = a.components
    return (math.fsum(comps),
            sum(comps[p] * math.cos(2.0 * math.pi * p / 5.0) for p in range(5)),
            sum(comps[p] * math.sin(2.0 * math.pi * p / 5.0) for p in range(5)),
            sum(comps[p] * math.cos(4.0 * math.pi * p / 5.0) for p in range(5)),
            sum(comps[p] * math.sin(4.0 * math.pi * p / 5.0) for p in range(5)))


def test_coefficient_spectrum_matches_canonical_transform():
    rng = np.random.default_rng(53)
    for _ in range(200):
        a = rand(rng, -5, 5)
        sp = coefficient_spectrum(a)
        c = to_canonical(a)
        got = (sp.vplus, sp.v1, sp.tv1, sp.v2, sp.tv2)
        assert type(sp) is type(c) and got == (c.vplus, c.v1, c.tv1, c.v2, c.tv2)
        want = trig_spectrum(a)
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-13 * max(1.0, abs(a))


def test_series_evaluators_overflow_is_typed():
    s = PowerSeries(tuple(ONE for _ in range(40)))
    u = PentaComplex.scalar(1e10)
    for evaluate in (series_eval, series_eval_components):
        with pytest.raises(Overflow):
            evaluate(s, u)


def test_convergence_radii_geometric():
    s = PowerSeries(tuple(ONE for _ in range(12)))
    rep = convergence_radii(s)
    assert abs(rep.c - 1 / math.sqrt(5)) <= 1e-14
    assert abs(rep.cplus - 1.0) <= 1e-14
    assert abs(rep.c1 - 1.0) <= 1e-14
    assert abs(rep.c2 - 1.0) <= 1e-14
    assert rep.trend["c"] == "steady"


def test_convergence_radii_exponential_flags_growth():
    s = PowerSeries(tuple(PentaComplex.scalar(1 / math.factorial(l)) for l in range(14)))
    rep = convergence_radii(s)
    assert rep.trend["c"] == "increasing"
    assert rep.trend["cplus"] == "increasing"
    assert rep.c > 1.0


def test_convergence_radii_factorials_flag_decay():
    # sum l! u^l converges nowhere: the ratios a_l / a_(l+1) = 1/(l+1) fall
    s = PowerSeries.from_scalars([math.factorial(l) for l in range(14)])
    assert s.coeffs[3] == PentaComplex.scalar(6.0)
    rep = convergence_radii(s)
    assert set(rep.trend.values()) == {"decreasing"}
    assert rep.cplus < 0.2


def test_convergence_radii_scaled_geometric():
    r = 2.5
    s = PowerSeries(tuple(PentaComplex.scalar(r ** l) for l in range(12)))
    rep = convergence_radii(s)
    assert abs(rep.cplus - 1 / r) <= 1e-13


def test_convergence_radii_errors():
    with pytest.raises(InsufficientTerms):
        convergence_radii(PowerSeries(tuple(ONE for _ in range(5))))
    # a series living purely in the ~e1 direction has no line content
    s = PowerSeries(tuple(E1_TILDE for _ in range(12)))
    with pytest.raises(ZeroTail):
        convergence_radii(s)


@pytest.mark.parametrize("window", [0, -1, -5, 2.5])
def test_convergence_radii_rejects_a_window_that_is_not_a_count(window):
    # an empty window raised statistics.StatisticsError (no median)
    with pytest.raises(ValueError, match="window"):
        convergence_radii(PowerSeries(tuple(ONE for _ in range(12))), window=window)


# coefficient components log-uniform in 1e-3..1e3 with either sign
COMPONENT = st.builds(lambda sign, e: sign * 10.0 ** e,
                      st.sampled_from((-1.0, 1.0)), st.floats(-3.0, 3.0))
COEFF = st.builds(PentaComplex, *[COMPONENT] * 5)


def point(lo, hi):
    return st.builds(PentaComplex, *[st.floats(lo, hi)] * 5)


def magnitude(coeffs, u):
    """sum_l |a_l| (sqrt5 |u|)^l, which bounds every term of the series at
    u (|uv| <= sqrt5 |u| |v| in the ring) and so sets its rounding."""
    return sum(abs(a) * (math.sqrt(5.0) * abs(u)) ** l for l, a in enumerate(coeffs))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(st.lists(COEFF, min_size=1, max_size=13), point(-1.0, 1.0))
def test_component_evaluation_matches_ring_horner(coeffs, u):
    s = PowerSeries(tuple(coeffs))
    a = series_eval(s, u)
    b = series_eval_components(s, u)
    assert dev(a, b) <= 1e-12 * max(1.0, magnitude(coeffs, u))


def ring_taylor(s, u0, kmax):
    """sum_l C(l, k) a_l u0^(l-k) in ring arithmetic: the reference route."""
    n = len(s.coeffs)
    powers = [ONE]
    for _ in range(max(0, n - 1)):
        powers.append(multiply(powers[-1], u0))
    out = []
    for k in range(kmax + 1):
        acc = ZERO
        for l in range(k, n):
            acc = acc + math.comb(l, k) * multiply(s.coeffs[l], powers[l - k])
        out.append(acc)
    return PowerSeries(tuple(out))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(st.lists(COEFF, min_size=1, max_size=13), point(-0.5, 0.5), st.integers(0, 14))
def test_taylor_coefficients_match_the_ring_route(coeffs, u0, kmax):
    s = PowerSeries(tuple(coeffs))
    got = taylor_coefficients(s, u0, kmax)
    want = ring_taylor(s, u0, kmax)
    assert len(got) == len(want) == kmax + 1
    for k, (a, b) in enumerate(zip(got.coeffs, want.coeffs)):
        # the k-th derivative's terms, divided by k!
        scale = sum(math.comb(l, k) * abs(c) * (math.sqrt(5.0) * abs(u0)) ** (l - k)
                    for l, c in enumerate(coeffs) if l >= k)
        assert dev(a, b) <= 1e-10 * max(1.0, scale), k


def test_taylor_coefficients_binomial():
    # u^2 recentred at the ring unit: (1, 2, 1)
    s = PowerSeries((ZERO, ZERO, ONE))
    t = taylor_coefficients(s, ONE, 2)
    assert dev(t.coeffs[0], ONE) <= 1e-15
    assert dev(t.coeffs[1], 2.0 * ONE) <= 1e-15
    assert dev(t.coeffs[2], ONE) <= 1e-15


@pytest.mark.parametrize("kmax,error", [(2.0, None), (2.5, "kmax must be a whole number"),
                                        (-1, "kmax must be >= 0")])
def test_taylor_coefficients_takes_kmax_by_the_count_rule(kmax, error):
    # an integral float acts as the int; 2.0 and 2.5 raised a raw TypeError
    # from range(), and -1 returned an empty series
    s = PowerSeries((ZERO, ZERO, ONE))
    if error is None:
        assert taylor_coefficients(s, ONE, kmax) == taylor_coefficients(s, ONE, 2)
    else:
        with pytest.raises(ValueError, match=error):
            taylor_coefficients(s, ONE, kmax)


def test_taylor_coefficients_of_exp_series():
    s = PowerSeries(tuple(PentaComplex.scalar(1 / math.factorial(l)) for l in range(12)))
    t = taylor_coefficients(s, ZERO, 11)
    for k in range(12):
        assert dev(t.coeffs[k], PentaComplex.scalar(1 / math.factorial(k))) <= 1e-15


def test_taylor_recentering_reproduces_values():
    rng = np.random.default_rng(54)
    coeffs = tuple(rand(rng, -1, 1) for _ in range(7))
    s = PowerSeries(coeffs)
    u0 = rand(rng, -0.5, 0.5)
    t = taylor_coefficients(s, u0, len(coeffs) - 1)
    for _ in range(100):
        h = rand(rng, -0.3, 0.3)
        direct = series_eval(s, u0 + h)
        recentred = series_eval(t, h)
        assert dev(direct, recentred) <= 1e-10 * max(1.0, abs(direct))


def test_first_order_relations_linear_map():
    report = check_cr_relations(lambda u: u, PentaComplex(0.3, -0.2, 0.1, 0.4, -0.5))
    assert report.passed
    g0 = report.groups[0]
    assert max(abs(d - 1.0) for d in g0.derivatives) <= 1e-9
    for g in report.groups[1:]:
        assert max(abs(d) for d in g.derivatives) <= 1e-9


def test_first_order_relations_analytic_functions():
    rng = np.random.default_rng(55)
    for f in (lambda u: multiply(u, u), exp, sin):
        for _ in range(10):
            assert check_cr_relations(f, rand(rng)).passed


def test_first_order_relations_counterexample():
    def projection(u):
        return PentaComplex(u.x0, 0.0, 0.0, 0.0, 0.0)

    report = check_cr_relations(projection, PentaComplex(0.1, 0.2, 0.3, 0.4, 0.5))
    assert not report.passed
    assert report.groups[0].deviation > 0.5  # dP0/dx0 = 1 against zeros


def test_shifted_points_have_float_components():
    seen = []

    def f(u):
        seen.append(u)
        return multiply(u, u)

    point = PentaComplex(0.1, 0.2, 0.3, 0.4, 0.5)
    check_cr_relations(f, point, step=np.float64(1e-6))
    check_second_order(f, point, step=np.float32(3e-4))
    # first order: 2 per axis; second order: the centre, 2 per diagonal
    # pair and 4 per mixed pair, each evaluated once
    assert len(seen) == 10 + (1 + 5 * 2 + 10 * 4)
    for u in seen:
        assert all(type(x) is float for x in u.components), u


def _reference_first_order(f, point, step, tol=1e-6):
    """check_cr_relations' report built field by field: each derivative
    by its own central difference."""
    from pentacomplex.analytic import _shifted

    def partial(component, axis):
        fp = f(_shifted(point, axis, step))[component]
        fm = f(_shifted(point, axis, -step))[component]
        return (fp - fm) / (2.0 * step)

    groups = []
    for shift in range(5):
        vals = [partial((shift + j) % 5, j) for j in range(5)]
        dev = max(vals) - min(vals)
        groups.append({"shift": shift, "derivatives": vals, "deviation": dev,
                       "passed": dev <= tol})
    return {"point": point.to_list(), "step": step, "tol": tol,
            "passed": all(g["passed"] for g in groups), "groups": groups}


def test_first_order_report_serializes_field_by_field():
    rng = np.random.default_rng(141)
    proj0 = lambda u: PentaComplex(u.x0, 0, 0, 0, 0)  # noqa: E731
    for g in (exp, sin, lambda u: multiply(u, u), proj0):
        for step in (1e-6, 1e-3):
            point = rand(rng)
            got = check_cr_relations(g, point, step=step).to_dict()
            assert repr(got) == repr(_reference_first_order(g, point, step))


def _reference_second_order(f, point, step=3e-4, tol=1e-4):
    """check_second_order as it was written before its stencil table: each
    chain value re-evaluates f at its own stencil points."""
    from pentacomplex.analytic import _chain_pairs, _shifted

    def partial(component, i, j):
        if i == j:
            fp = f(_shifted(point, i, step))[component]
            f0 = f(point)[component]
            fm = f(_shifted(point, i, -step))[component]
            return (fp - 2.0 * f0 + fm) / (step * step)
        fpp = f(_shifted(_shifted(point, i, step), j, step))[component]
        fpm = f(_shifted(_shifted(point, i, step), j, -step))[component]
        fmp = f(_shifted(_shifted(point, i, -step), j, step))[component]
        fmm = f(_shifted(_shifted(point, i, -step), j, -step))[component]
        return (fpp - fpm - fmp + fmm) / (4.0 * step * step)

    chains = []
    for component in range(5):
        for index_sum in range(5):
            pairs = _chain_pairs(index_sum)
            vals = tuple(partial(component, i, j) for i, j in pairs)
            dev = max(vals) - min(vals)
            chains.append({"component": component, "index_sum": index_sum,
                           "pairs": [list(p) for p in pairs], "values": list(vals),
                           "deviation": dev, "passed": dev <= tol})
    return {"point": point.to_list(), "step": step, "tol": tol,
            "passed": all(c["passed"] for c in chains), "chains": chains}


def test_second_order_evaluates_each_stencil_point_once():
    calls = []

    def counted(g):
        def f(u):
            calls.append(u)
            return g(u)
        return f

    rng = np.random.default_rng(140)
    cube_x0 = lambda u: PentaComplex(u.x0 ** 3, 0, 0, 0, 0)  # noqa: E731
    for g in (exp, sin, lambda u: multiply(u, u), cube_x0):
        for step in (3e-4, 1e-3):
            point = rand(rng)
            calls.clear()
            got = check_second_order(counted(g), point, step=step).to_dict()
            assert len(calls) == len(set(calls)) == 51
            # bit-identical, and the same report as the per-chain evaluation
            assert repr(got) == repr(_reference_second_order(g, point, step))


def test_relation_reports_serialize():
    report = check_cr_relations(lambda u: u, PentaComplex(1, 0, 0, 0, 0))
    d = report.to_dict()
    assert d["passed"] and len(d["groups"]) == 5
    report2 = check_second_order(lambda u: u, PentaComplex(1, 0, 0, 0, 0))
    d2 = report2.to_dict()
    assert d2["passed"] and len(d2["chains"]) == 25


def test_evaluation_failure_propagates():
    def broken(u):
        raise RuntimeError("boom")

    with pytest.raises(EvaluationFailed):
        check_cr_relations(broken, PentaComplex(1, 0, 0, 0, 0))


def test_evaluator_of_another_type_is_evaluation_failed():
    for f in (lambda u: 1.0, lambda u: None, lambda u: (1.0, 0.0, 0.0, 0.0, 0.0)):
        for check in (check_cr_relations, check_second_order):
            with pytest.raises(EvaluationFailed, match="not PentaComplex"):
                check(f, PentaComplex(1, 0, 0, 0, 0))


def test_second_order_chains():
    rng = np.random.default_rng(56)
    for f in (lambda u: multiply(u, u), exp):
        report = check_second_order(f, rand(rng))
        assert report.passed
    assert check_second_order(exp, ZERO).passed
    # linear functions have identically zero second partials
    report = check_second_order(lambda u: u, rand(rng))
    assert report.passed
    assert all(max(abs(v) for v in chain.values) <= 1e-6 for chain in report.chains)


def test_second_order_step_whose_square_underflows_is_value_error():
    # not a ZeroDivisionError from the differences; f is not called
    calls = []
    with pytest.raises(ValueError, match="step 1e-200"):
        check_second_order(lambda u: calls.append(u) or u, ONE, step=1e-200)
    assert calls == []
    assert check_second_order(exp, ONE, step=1e-150).step == 1e-150


def test_first_order_zero_step_is_value_error():
    # not a ZeroDivisionError from the differences; f is not called
    calls = []
    for step in (0.0, -0.0):
        with pytest.raises(ValueError, match=f"step {step!r} is zero"):
            check_cr_relations(lambda u: calls.append(u) or u, ONE, step=step)
    assert calls == []
    assert check_cr_relations(exp, ONE, step=5e-324).step == 5e-324


@pytest.mark.parametrize("check", [check_cr_relations, check_second_order])
@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf])
def test_a_non_finite_step_is_value_error(check, step):
    # the shifted point raised Overflow; f is not called
    calls = []
    with pytest.raises(ValueError, match=f"step {step!r} is not finite"):
        check(lambda u: calls.append(u) or u, ONE, step=step)
    assert calls == []


def test_second_order_chain_pairs_cover_residues():
    report = check_second_order(lambda u: u, PentaComplex(1, 0, 0, 0, 0))
    for chain in report.chains:
        want = {(i, j) for i in range(5) for j in range(i, 5)
                if (i + j) % 5 == chain.index_sum}
        assert set(chain.pairs) == want


def test_power_term_modulus_bound():
    rng = np.random.default_rng(57)
    for _ in range(200):
        a = rand(rng, -2, 2)
        u = rand(rng, -2, 2)
        term = a
        for l in range(11):
            assert abs(term) <= 5 ** (l / 2) * abs(a) * abs(u) ** l * (1 + 1e-12)
            term = multiply(term, u)


def test_directional_derivative_is_direction_independent():
    rng = np.random.default_rng(58)
    coeffs = (PentaComplex.scalar(0.3), PentaComplex.scalar(1.1),
              PentaComplex.scalar(-0.4), PentaComplex.scalar(0.25))
    s = PowerSeries(coeffs)
    dseries = PowerSeries((coeffs[1], 2.0 * coeffs[2], 3.0 * coeffs[3]))
    u0 = rand(rng, -0.5, 0.5)
    want = series_eval(dseries, u0)
    eps = 1e-6
    done = 0
    while done < 20:
        w = rand(rng)
        c = to_canonical(w)
        if (abs(c.vplus) < 0.2 or math.hypot(c.v1, c.tv1) < 0.2
                or math.hypot(c.v2, c.tv2) < 0.2):
            continue
        quot = multiply(series_eval(s, u0 + eps * w) - series_eval(s, u0),
                        inverse(eps * w))
        assert dev(quot, want) <= 1e-5
        done += 1
