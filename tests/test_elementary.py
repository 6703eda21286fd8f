import dataclasses
import math
import pickle

import numpy as np
import pytest

from pentacomplex import (H1, ONE, ZERO, CanonicalForm, FormDomain, LogDomain,
                          NonInvertible, Overflow, PentaComplex, PowDomain,
                          cos, cosh, elementary, exp, exp_basis, exponential_form,
                          from_canonical, inverse, log,
                          modulus_amplitude_relation, multiply, pow_real, sin,
                          sinh, to_canonical, to_matrix, trigonometric_form)
from pentacomplex.canonical import E_PLUS, _from_canon_comps, _to_canon_comps
from pentacomplex.selftest import _matrix_exp


def rand(rng, lo=-3.0, hi=3.0):
    return PentaComplex(*rng.uniform(lo, hi, 5))


def dev(u, v):
    return max(abs(a - b) for a, b in zip(u, v))


def log_domain_sample(rng, n):
    out = []
    while len(out) < n:
        u = rand(rng)
        c = to_canonical(u)
        if (c.vplus > 0.05 and math.hypot(c.v1, c.tv1) > 0.05
                and math.hypot(c.v2, c.tv2) > 0.05):
            out.append(u)
    return out


def test_exp_zero_and_basis_direction():
    assert dev(exp(ZERO), ONE) <= 1e-15
    for y in (0.6, -1.1):
        assert dev(exp(y * H1), exp_basis(1, y)) <= 1e-13


def test_exp_against_truncated_ring_series():
    rng = np.random.default_rng(40)
    for _ in range(100):
        u = rand(rng, -0.8, 0.8)
        series = ONE
        term = ONE
        for n in range(1, 41):
            term = multiply(term, u) * (1.0 / n)
            series = series + term
        assert dev(exp(u), series) <= 1e-11 * max(1.0, abs(series))


def test_exp_is_a_homomorphism():
    rng = np.random.default_rng(41)
    for _ in range(200):
        u, v = rand(rng, -1.5, 1.5), rand(rng, -1.5, 1.5)
        lhs = exp(u + v)
        rhs = multiply(exp(u), exp(v))
        assert dev(lhs, rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_exp_matches_matrix_exponential():
    rng = np.random.default_rng(42)
    for _ in range(100):
        u = rand(rng, -2.0, 2.0)
        got = to_matrix(exp(u))
        want = _matrix_exp(to_matrix(u))
        assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


def test_exp_overflow():
    with pytest.raises(Overflow):
        exp(PentaComplex.scalar(1000.0))


def test_a_lifted_builtin_re_raises_an_argument_without_components():
    # the batch sniffer hands on only a batch's lift: any other argument
    # raises the AttributeError of its own lookup
    bad = object()
    for f in (exp, cos, sin, cosh, sinh):
        with pytest.raises(AttributeError, match="'_canon'") as exc:
            f(bad)
        assert exc.value.obj is bad


def test_log_unit_and_roundtrips():
    assert dev(log(ONE), ZERO) <= 1e-15
    rng = np.random.default_rng(43)
    for u in log_domain_sample(rng, 300):
        assert dev(exp(log(u)), u) <= 1e-10 * max(1.0, abs(u))
    for _ in range(300):
        c = CanonicalForm(rng.uniform(-2, 2), rng.uniform(-2, 2),
                          rng.uniform(0.05, 2 * math.pi - 0.05),
                          rng.uniform(-2, 2),
                          rng.uniform(0.05, 2 * math.pi - 0.05))
        u = from_canonical(c)
        assert dev(log(exp(u)), u) <= 1e-10 * max(1.0, abs(u))


def test_log_agrees_with_exponential_form_route():
    # log works on the canonical components; the paper's route assembles it
    # from the amplitude and the tangents of thetaplus and psi1
    rng = np.random.default_rng(48)
    for u in log_domain_sample(rng, 2000):
        ef = exponential_form(u)
        want = math.log(ef.amplitude) + ef.exponent()
        assert dev(log(u), want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("small", ["vplus", "rho2"])
def test_exp_log_round_trip_with_a_small_canonical_part(small):
    rng = np.random.default_rng(49)
    for _ in range(200):
        vp, r1, r2 = rng.uniform(0.5, 2.0, 3)
        a1, a2 = rng.uniform(0.0, 2 * math.pi, 2)
        if small == "vplus":
            vp *= 1e-6
        else:
            r2 *= 1e-6
        u = from_canonical(CanonicalForm(vp, r1 * math.cos(a1), r1 * math.sin(a1),
                                         r2 * math.cos(a2), r2 * math.sin(a2)))
        assert dev(exp(log(u)), u) <= 1e-14 * abs(u)


def test_log_domain_errors():
    with pytest.raises(LogDomain):
        log(E_PLUS)  # plane radii vanish
    with pytest.raises(LogDomain):
        log(PentaComplex.scalar(-1.0))  # vplus < 0
    with pytest.raises(LogDomain):
        log(ZERO)


def test_pow_integer():
    rng = np.random.default_rng(44)
    for _ in range(200):
        u = rand(rng)
        assert dev(pow_real(u, 2), multiply(u, u)) <= 1e-12 * max(1.0, abs(u) ** 2)
    assert dev(pow_real(H1, 5), ONE) <= 1e-14
    u = rand(rng)
    assert dev(pow_real(u, 0), ONE) <= 1e-15
    # negative integer powers are iterated inverses
    done = 0
    while done < 50:
        u = rand(rng)
        try:
            got = pow_real(u, -1)
        except NonInvertible:
            continue
        assert dev(got, inverse(u)) <= 1e-10 * max(1.0, abs(got))
        done += 1
    with pytest.raises(NonInvertible):
        pow_real(E_PLUS, -2)


def test_pow_non_integer():
    rng = np.random.default_rng(45)
    done = 0
    while done < 100:
        u = rand(rng, 0.1, 2.0)
        c = to_canonical(u)
        if c.vplus <= 0.05:
            continue
        half = pow_real(u, 0.5)
        assert dev(multiply(half, half), u) <= 1e-10 * max(1.0, abs(u))
        done += 1
    with pytest.raises(PowDomain):
        pow_real(PentaComplex.scalar(-1.0), 0.5)
    with pytest.raises(PowDomain):
        pow_real(E_PLUS, 1.5)



@pytest.mark.parametrize("m, same", [(np.float64(0.5), 0.5), (np.float64(-1.5), -1.5),
                                     (np.int64(3), 3), (np.int64(-2), -2),
                                     (np.float64(3.0), 3)])
def test_pow_real_numpy_exponent_gives_float_components(m, same):
    rng = np.random.default_rng(46)
    for u in log_domain_sample(rng, 50):
        got = pow_real(u, m)
        assert all(type(x) is float for x in got.components)
        assert got.components == pow_real(u, same).components


@pytest.mark.parametrize("m", [-math.inf, math.inf, math.nan])
@pytest.mark.parametrize("u", [PentaComplex(2.0, 0.1, 0.0, 0.0, 0.0),
                               PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)])
def test_pow_real_rejects_a_non_finite_exponent(u, m):
    # these raised a raw "math domain error", returned 0 or raised Overflow
    with pytest.raises(ValueError, match="exponent must be finite"):
        pow_real(u, m)

def test_trig_zero_values():
    assert dev(cos(ZERO), ONE) <= 1e-15
    assert dev(sin(ZERO), ZERO) <= 1e-15
    assert dev(cosh(ZERO), ONE) <= 1e-15
    assert dev(sinh(ZERO), ZERO) <= 1e-15


def test_pythagorean_identities():
    rng = np.random.default_rng(46)
    for _ in range(200):
        u = rand(rng, -1.0, 1.0)
        lhs = multiply(sin(u), sin(u)) + multiply(cos(u), cos(u))
        assert dev(lhs, ONE) <= 1e-11
        lhs = multiply(cosh(u), cosh(u)) - multiply(sinh(u), sinh(u))
        assert dev(lhs, ONE) <= 1e-11


def test_exponential_form_of_unit():
    ef = exponential_form(ONE)
    assert abs(ef.amplitude - 1.0) <= 1e-15
    assert abs(ef.log_tan_theta) <= 1e-15  # tan(thetaplus) = sqrt(2) for u = 1
    assert abs(ef.log_tan_psi) <= 1e-15
    assert ef.phi1 == 0.0 and ef.phi2 == 0.0
    assert dev(ef.exponent(), ZERO) <= 1e-15
    assert dev(ef.reconstruct(), ONE) <= 1e-14
    assert ef.to_dict() == dataclasses.asdict(ef)


def test_exponential_form_reconstructs():
    rng = np.random.default_rng(47)
    for u in log_domain_sample(rng, 200):
        ef = exponential_form(u)
        assert dev(ef.reconstruct(), u) <= 1e-10 * max(1.0, abs(u))


@pytest.mark.parametrize("small", ["vplus", "rho2"])
def test_exponential_form_reconstructs_with_a_small_canonical_part(small):
    # vplus = 1e-9 * rho1 or rho2 = 1e-12 * rho1: the logarithms are taken of
    # the radii's quotients, not through tan(atan2(...)) at an extreme angle
    rng = np.random.default_rng(50)
    for _ in range(200):
        vp, r1, r2 = rng.uniform(0.5, 2.0, 3)
        if small == "vplus":
            vp = 1e-9 * r1
        else:
            r2 = 1e-12 * r1
        a1, a2 = rng.uniform(0.0, 2 * math.pi, 2)
        u = from_canonical(CanonicalForm(vp, r1 * math.cos(a1), r1 * math.sin(a1),
                                         r2 * math.cos(a2), r2 * math.sin(a2)))
        assert dev(exponential_form(u).reconstruct(), u) <= 2e-14 * abs(u), u


def test_exponential_form_domain():
    with pytest.raises(FormDomain):
        exponential_form(PentaComplex.scalar(-1.0))
    with pytest.raises(FormDomain):
        exponential_form(E_PLUS)


def test_trigonometric_form_reconstructs():
    assert dev(trigonometric_form(ONE), ONE) <= 1e-14
    rng = np.random.default_rng(48)
    done = 0
    while done < 200:
        u = rand(rng)
        c = to_canonical(u)
        if (math.hypot(c.v1, c.tv1) < 0.05 or math.hypot(c.v2, c.tv2) < 0.05
                or abs(c.vplus) < 0.05):
            continue
        assert dev(trigonometric_form(u), u) <= 1e-10 * max(1.0, abs(u))
        done += 1
    with pytest.raises(FormDomain):
        trigonometric_form(E_PLUS)


def test_trigonometric_form_accepts_negative_line_part():
    # thetaplus in (pi/2, pi) is inside the trigonometric-form domain
    u = from_canonical(CanonicalForm(-1.5, 1.0, 0.5, -0.7, 0.3))
    assert dev(trigonometric_form(u), u) <= 1e-12


def test_modulus_amplitude_relation():
    rng = np.random.default_rng(49)
    for u in log_domain_sample(rng, 200):
        d, rhs = modulus_amplitude_relation(u)
        assert abs(d - rhs) <= 1e-10 * max(1.0, d)


@pytest.mark.parametrize("c", [(1e-9, 1.0, 0.0, 1.0, 0.0), (1.0, 1.0, 0.0, 1e-12, 0.0)],
                         ids=["small vplus", "small rho2"])
def test_modulus_amplitude_relation_near_the_domain_edge(c):
    # tan(thetaplus) and tan(psi1) come from the radii; through atan2 and
    # tan the gaps were 1.8e-8 and 4.2e-5
    d, rhs = modulus_amplitude_relation(from_canonical(CanonicalForm(*c)))
    assert abs(d - rhs) <= 1e-15 * d


# the hand-written line and plane formulas the lift replaced, on canonical
# components (vp, v1, tv1, v2, tv2)
HAND_FORMULAS = {
    exp: lambda vp, v1, tv1, v2, tv2: (
        math.exp(vp), math.exp(v1) * math.cos(tv1), math.exp(v1) * math.sin(tv1),
        math.exp(v2) * math.cos(tv2), math.exp(v2) * math.sin(tv2)),
    cos: lambda vp, v1, tv1, v2, tv2: (
        math.cos(vp), math.cos(v1) * math.cosh(tv1), -math.sin(v1) * math.sinh(tv1),
        math.cos(v2) * math.cosh(tv2), -math.sin(v2) * math.sinh(tv2)),
    sin: lambda vp, v1, tv1, v2, tv2: (
        math.sin(vp), math.sin(v1) * math.cosh(tv1), math.cos(v1) * math.sinh(tv1),
        math.sin(v2) * math.cosh(tv2), math.cos(v2) * math.sinh(tv2)),
    cosh: lambda vp, v1, tv1, v2, tv2: (
        math.cosh(vp), math.cosh(v1) * math.cos(tv1), math.sinh(v1) * math.sin(tv1),
        math.cosh(v2) * math.cos(tv2), math.sinh(v2) * math.sin(tv2)),
    sinh: lambda vp, v1, tv1, v2, tv2: (
        math.sinh(vp), math.sinh(v1) * math.cos(tv1), math.cosh(v1) * math.sin(tv1),
        math.sinh(v2) * math.cos(tv2), math.cosh(v2) * math.sin(tv2)),
}


def lift_inputs(rng, n):
    # canonical coordinates within |699|: mixed large and small scales,
    # plus signed zeros in every position
    out = []
    for _ in range(n):
        scale = rng.choice([1e-3, 1.0, 30.0, 699.0], size=5)
        coords = rng.uniform(-1.0, 1.0, 5) * scale
        out.append(from_canonical(CanonicalForm(*coords)))
    for signs in range(32):
        out.append(PentaComplex(*(-0.0 if signs >> k & 1 else 0.0 for k in range(5))))
        out.append(from_canonical(CanonicalForm(
            *(-0.0 if signs >> k & 1 else 0.0 for k in range(3)), 0.5, -0.25)))
    return out


@pytest.mark.parametrize("f", list(HAND_FORMULAS), ids=lambda f: f.__name__)
def test_lift_is_bit_identical_to_hand_formulas(f):
    rng = np.random.default_rng(70)
    for u in lift_inputs(rng, 4000):
        c = _to_canon_comps(u.components)
        assert max(map(abs, c)) <= 700.0
        want = _from_canon_comps(HAND_FORMULAS[f](*c))
        assert [x.hex() for x in f(u)] == [x.hex() for x in want], u


def test_builtins_keep_their_names_docs_and_pickle_by_reference():
    assert [f.__name__ for f in elementary._LIFTED] == ["exp", "cos", "sin", "cosh", "sinh"]
    for f in elementary._LIFTED:
        assert f is getattr(elementary, f.__name__)
        assert f.__qualname__ == f.__name__
        assert f.__module__ == "pentacomplex.elementary"
        assert f.__doc__
        assert pickle.loads(pickle.dumps(f)) is f


def near_divisor(part):
    # plane 2 is (0.8, -0.3); the named part is 1e-14 * |u| (the cutoff is
    # 1e-13 * |u|), the others are of order one
    base = from_canonical(CanonicalForm(1.0, 0.6, 0.4, 0.8, -0.3))
    small = 1e-14 * abs(base)
    if part == "plane1":
        return from_canonical(CanonicalForm(1.0, small * 0.6, small * 0.8, 0.8, -0.3))
    return from_canonical(CanonicalForm(1.0, 0.6, 0.4, small * 0.6, small * 0.8))


GUARDED = [
    (inverse, NonInvertible),
    (lambda u: pow_real(u, -2), NonInvertible),
    (log, LogDomain),
    (lambda u: pow_real(u, 0.5), PowDomain),
    (exponential_form, FormDomain),
    (trigonometric_form, FormDomain),
    (modulus_amplitude_relation, FormDomain),
]


@pytest.mark.parametrize("f, error", GUARDED)
def test_guard_raises_each_functions_own_error(f, error):
    for u in (E_PLUS, near_divisor("plane1"), near_divisor("plane2")):
        with pytest.raises(error):
            f(u)


def test_guard_line_test_depends_on_the_error_class():
    minus_one = PentaComplex.scalar(-1.0)
    # vplus < 0: outside the logarithm's domain ...
    for f, error in ((log, LogDomain), (lambda u: pow_real(u, 0.5), PowDomain),
                     (exponential_form, FormDomain)):
        with pytest.raises(error):
            f(minus_one)
    # ... but invertible, and inside the trigonometric form's domain
    assert dev(inverse(minus_one), minus_one) <= 1e-15
    assert dev(pow_real(minus_one, -3), minus_one) <= 1e-15
    assert dev(trigonometric_form(minus_one), minus_one) <= 1e-14
    # a line part of 1e-14 * |u| is a divisor of zero for every guarded function
    u = from_canonical(CanonicalForm(1e-14, 0.6, 0.4, 0.8, -0.3))
    for f, error in GUARDED[:5]:
        with pytest.raises(error):
            f(u)


def test_negative_power_beyond_the_float_range_is_overflow():
    # the line power raises OverflowError ...
    with pytest.raises(Overflow) as info:
        pow_real(1e-215 * from_canonical(CanonicalForm(1.0, 0.6, 0.4, 0.8, -0.3)), -3)
    assert isinstance(info.value.__cause__, OverflowError)
    # ... and a plane power whose cube underflows to 0 raises ZeroDivisionError
    # (plane 1 is 1e-8 * |u|, well above the divisor-of-zero cutoff)
    u = from_canonical(CanonicalForm(1e-100, 0.6e-108, 0.8e-108, 0.8e-100, -0.3e-100))
    with pytest.raises(Overflow) as info:
        pow_real(u, -3)
    assert isinstance(info.value.__cause__, ZeroDivisionError)
