"""Scale safety: the modulus, the amplitude and the divisor-of-zero guard
at magnitudes from 1e-300 to 1e300 and next to the divisor-of-zero set."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentacomplex import (AngleUndefined, CanonicalForm, Overflow,
                          PentaComplex, PentaError, amplitude, exp,
                          exponential_form, from_canonical, inverse, log,
                          polar_form, pow_real, sin, to_canonical,
                          trigonometric_form)

BASE = PentaComplex(1.0, 0.3, 0.0, 0.1, 0.0)
SCALES = [1e-300, 1e-170, 1e170, 1e300]


def rel_dev(u, v):
    return max(abs(a - b) for a, b in zip(u, v)) / abs(v)


@pytest.mark.parametrize("s", SCALES)
def test_modulus_is_scale_safe(s):
    assert abs(abs(s * BASE) - s * abs(BASE)) <= 1e-15 * s * abs(BASE)


@pytest.mark.parametrize("s", SCALES)
def test_log_inverse_and_polar_form_at_extreme_scales(s):
    u = s * BASE
    assert rel_dev(log(u), log(BASE) + math.log(s)) <= 1e-15
    assert rel_dev(inverse(u), inverse(BASE) * (1.0 / s)) <= 1e-15
    pf, pf1 = polar_form(u), polar_form(BASE)
    # the exponents 0.2 and 0.4 miss 1/5 and 2/5 by about 1e-17, a relative
    # error of about 6e-17 * |ln s| (4e-14 at 1e300)
    assert abs(pf.rho - s * pf1.rho) <= 1e-13 * s * pf1.rho
    assert pf.rho == amplitude(u)
    for name in ("phi1", "phi2", "psi1", "thetaplus"):
        assert abs(pf.require(name) - pf1.require(name)) <= 1e-15


# near-divisor inputs: one canonical part shrunk by a factor of 1e-6..1e-15,
# which straddles the guard's cutoff of 1e-13 * |u|
COORD = st.one_of(st.just(0.0), st.floats(0.01, 1.0), st.floats(-1.0, -0.01))


@st.composite
def canonical_parts(draw):
    coords = [draw(COORD) for _ in range(5)]
    shrink = draw(st.sampled_from([None, 0, 1, 2]))
    if shrink is not None:
        factor = 10.0 ** -draw(st.floats(6.0, 15.0))
        for k in {0: (0,), 1: (1, 2), 2: (3, 4)}[shrink]:
            coords[k] *= factor
    return from_canonical(CanonicalForm(*coords))


def finite(x):
    return x is None or math.isfinite(x)


CONTRACT = {
    "inverse": (inverse, lambda r: True),
    "log": (log, lambda r: True),
    "exp": (exp, lambda r: True),
    "pow_real(0.5)": (lambda u: pow_real(u, 0.5), lambda r: True),
    "pow_real(-3)": (lambda u: pow_real(u, -3), lambda r: True),
    "polar_form": (polar_form, lambda r: all(map(finite, (
        r.d, r.rho, r.rho1, r.rho2, r.phi1, r.phi2, r.psi1, r.thetaplus)))),
    "amplitude": (amplitude, math.isfinite),
    "exponential_form": (exponential_form, lambda r: all(map(finite, (
        r.amplitude, r.log_tan_theta, r.log_tan_psi, r.phi1, r.phi2)))),
    "trigonometric_form": (trigonometric_form, lambda r: True),
}


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(canonical_parts(), st.floats(-300.0, 300.0))
def test_finite_result_or_typed_error(u, exponent):
    # a PentaComplex result is finite by construction
    u = u * 10.0 ** exponent
    for name, (f, ok) in CONTRACT.items():
        try:
            result = f(u)
        except PentaError:
            continue
        assert ok(result), (name, u, result)


# powers of two scale exactly, so both sides see the same canonical parts;
# |k| <= 960 keeps every component of s*u a normal float
@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(canonical_parts(), st.integers(-960, 960))
def test_log_and_inverse_are_scale_equivariant(u, k):
    s = 2.0 ** k
    su = u * s
    try:
        lu = log(u)
    except PentaError as exc:
        with pytest.raises(type(exc)):
            log(su)
    else:
        want = lu + math.log(s)
        assert max(abs(a - b) for a, b in zip(log(su), want)) \
            <= 1e-15 * (1.0 + abs(math.log(s)) + abs(lu))
    try:
        iu = inverse(u)
    except PentaError as exc:
        with pytest.raises(type(exc)):
            inverse(su)
    else:
        assert rel_dev(inverse(su), iu * (1.0 / s)) <= 1e-15
    pf, spf = polar_form(u), polar_form(su)
    for name in ("phi1", "phi2", "psi1", "thetaplus"):
        try:
            angle = pf.require(name)
        except AngleUndefined:
            assert getattr(spf, name) is None
        else:
            assert abs(spf.require(name) - angle) <= 4e-15


# finite elements whose canonical coordinates or modulus are not: vplus =
# x0 + x1 overflows in the first; the second's canonical coordinates are
# finite (up to 1.66e308) but its modulus is not
CEILING = [PentaComplex(1.7e308, 1.7e308, 0.0, 0.0, 0.0),
           PentaComplex(0.0, -1.45e308, 1.1e308, 4e307, 0.0)]


@pytest.mark.parametrize("u", CEILING, ids=["vplus", "modulus"])
def test_components_near_the_float_ceiling_are_overflow(u):
    for f in (inverse, log, polar_form, exponential_form, trigonometric_form):
        with pytest.raises(Overflow):
            f(u)


def test_canonical_coordinates_beyond_the_float_range_are_overflow():
    # math.sin(inf) would raise a raw ValueError
    for f in (exp, sin, to_canonical):
        with pytest.raises(Overflow):
            f(CEILING[0])
