"""Scale safety: the modulus, the amplitude and the divisor-of-zero guard
at magnitudes from 1e-300 to 1e300 and next to the divisor-of-zero set."""

import math
import random
from dataclasses import astuple
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pentacomplex import (ONE, AngleUndefined, CanonicalForm, Overflow,
                          PentaComplex, PentaError, PentaPolynomial,
                          PowerSeries, amplitude, canonical_multiply,
                          coefficient_spectrum, decompose, exp,
                          exponential_form, from_canonical, inverse, log,
                          modulus_amplitude_relation, modulus_product_bound,
                          multiply, polar_form, pow_real, rotated_coords,
                          series_eval, series_eval_components, sin,
                          taylor_coefficients, to_canonical,
                          trigonometric_form)
from pentacomplex.canonical import _to_canon_comps
from pentacomplex.geometry import odd_fifth_root

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
    assert abs(pf.rho - s * pf1.rho) <= 1e-15 * s * pf1.rho
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


# u^2 + u + (0.5 + 0.1 h1), as a polynomial and as a series: every
# evaluation route overflows at |u| = 1e200
POLY = PentaPolynomial((ONE, PentaComplex(0.5, 0.1)))
SERIES = PowerSeries((PentaComplex(0.5, 0.1), ONE, ONE))

CONTRACT = {
    "inverse": (inverse, lambda r: True),
    "log": (log, lambda r: True),
    "exp": (exp, lambda r: True),
    "pow_real(0.5)": (lambda u: pow_real(u, 0.5), lambda r: True),
    "pow_real(-1)": (lambda u: pow_real(u, -1), lambda r: True),
    "pow_real(-3)": (lambda u: pow_real(u, -3), lambda r: True),
    "polar_form": (polar_form, lambda r: all(map(finite, (
        r.d, r.rho, r.rho1, r.rho2, r.phi1, r.phi2, r.psi1, r.thetaplus)))),
    "amplitude": (amplitude, math.isfinite),
    "exponential_form": (exponential_form, lambda r: all(map(finite, (
        r.amplitude, r.log_tan_theta, r.log_tan_psi, r.phi1, r.phi2)))),
    "trigonometric_form": (trigonometric_form, lambda r: True),
    "PentaPolynomial.evaluate": (POLY.evaluate, lambda r: True),
    "ComponentPolynomials.evaluate": (decompose(POLY).evaluate, lambda r: True),
    "series_eval": (lambda u: series_eval(SERIES, u), lambda r: True),
    "series_eval_components": (lambda u: series_eval_components(SERIES, u), lambda r: True),
    "modulus_product_bound": (lambda u: modulus_product_bound(u, u),
                              lambda r: all(map(math.isfinite, r))),
}


# plane radii beyond the float range at a finite modulus
WIDE_PLANE = from_canonical(CanonicalForm(0.0, 1.5e308, 1.5e308, 0.0, 0.0))
# the same plane radius with an invertible element (|u| = 1.35e308)
BIG_PLANE = from_canonical(CanonicalForm(1e307, 1.5e308, 1.5e308, 1e307, 1e307))
# a plane-2 radius beyond the float range, with vplus > 0 (|u| = 1.17e308)
WIDE_PLANE_2 = from_canonical(CanonicalForm(1e307, 1e307, 0.0, 1.3e308, 1.3e308))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(canonical_parts(), st.floats(-300.0, 300.0))
@example(WIDE_PLANE, 0.0)
@example(BIG_PLANE, 0.0)
@example(ONE, 200.0)
@example(PentaComplex(1.28e154), 0.0)  # |u*u| is finite, its bound is not
def test_finite_result_or_typed_error(u, exponent):
    # a PentaComplex result is finite by construction
    u = u * 10.0 ** exponent
    for name, (f, ok) in CONTRACT.items():
        try:
            result = f(u)
        except PentaError:
            continue
        assert ok(result), (name, u, result)


# every function that reads an element's canonical coordinates
CANON_READERS = {name: f for name, (f, _) in CONTRACT.items()} | {
    "to_canonical": to_canonical, "rotated_coords": rotated_coords,
    "coefficient_spectrum": coefficient_spectrum, "sin": sin,
    "modulus_amplitude_relation": modulus_amplitude_relation,
    "taylor_coefficients": lambda u: taylor_coefficients(SERIES, u, 2)}


def outcome(f, u) -> str:
    try:
        return repr(f(u))
    except PentaError as exc:
        return f"{type(exc).__name__}: {exc}"


def float_bits(xs) -> list:
    return [x.hex() for x in xs]


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(canonical_parts(), st.floats(-300.0, 300.0))
@example(WIDE_PLANE, 0.0)
@example(PentaComplex(1.7e308, 1.7e308, 0.0, 0.0, 0.0), 0.0)
def test_kept_canonical_coordinates_are_the_transform(u, exponent):
    # whatever ran on u before, each function gives what it gives on a fresh
    # copy, and the slot holds exactly what the transform returns (or None)
    u = u * 10.0 ** exponent
    for name, f in CANON_READERS.items():
        assert outcome(f, u) == outcome(f, PentaComplex(*u.components)), name
        if u._canon is not None:
            assert float_bits(u._canon) == float_bits(_to_canon_comps(u.components)), name
    try:
        _to_canon_comps(u.components)
    except Overflow:
        assert u._canon is None
    else:
        assert u._canon is not None


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


def test_plane_radius_beyond_the_float_range():
    for u in (WIDE_PLANE, WIDE_PLANE_2):
        with pytest.raises(Overflow):
            polar_form(u)
        # fifth root of vplus * rho1^2 * rho2^2 in decimal arithmetic (28 digits)
        cf = to_canonical(u)
        d = [Decimal(x) for x in (cf.vplus, cf.v1, cf.tv1, cf.v2, cf.tv2)]
        prod = abs(d[0]) * (d[1] ** 2 + d[2] ** 2) * (d[3] ** 2 + d[4] ** 2)
        want = math.copysign(float((prod.ln() / 5).exp()), cf.vplus)
        got = amplitude(u)
        assert abs(got - want) <= 4 * math.ulp(want)
    # the forms hold rho2 as a float, so they raise although their values
    # are finite
    for f in (exponential_form, trigonometric_form, modulus_amplitude_relation):
        with pytest.raises(Overflow, match="plane radius exceeds"):
            f(WIDE_PLANE_2)


def fifth_root_reference(x: Decimal) -> float:
    with localcontext() as ctx:
        ctx.prec = 40
        return float((abs(x).ln() / 5).exp()) if x else 0.0


@pytest.mark.parametrize("s", [1e-300, 1e-150, 1.0, 1e150, 1e300])
def test_amplitude_is_accurate_to_a_few_ulp(s):
    # against the fifth root of vplus * rho1^2 * rho2^2 in 40-digit decimal
    # arithmetic on the same canonical coordinates
    rng = random.Random(17)
    for _ in range(200):
        u = PentaComplex(*(rng.uniform(-1.0, 1.0) * s for _ in range(5)))
        cf = to_canonical(u)
        d = [Decimal(x) for x in (cf.vplus, cf.v1, cf.tv1, cf.v2, cf.tv2)]
        prod = d[0] * (d[1] ** 2 + d[2] ** 2) * (d[3] ** 2 + d[4] ** 2)
        want = math.copysign(fifth_root_reference(prod), cf.vplus)
        assert abs(amplitude(u) - want) <= 4 * math.ulp(want), u
        x = rng.uniform(-1.0, 1.0) * s
        want = math.copysign(fifth_root_reference(Decimal(x)), x)
        assert abs(odd_fifth_root(x) - want) <= math.ulp(want), x


def test_inverse_and_log_with_a_plane_radius_beyond_the_float_range():
    iu = inverse(BIG_PLANE)
    assert all(map(math.isfinite, iu))
    one = to_canonical(multiply(BIG_PLANE, iu))
    assert max(abs(x - 1.0) for x in (one.vplus, one.v1, one.v2)) <= 1e-14
    assert max(abs(one.tv1), abs(one.tv2)) <= 1e-14
    cf = to_canonical(BIG_PLANE)
    # log|z| = log(|z|/2) + log 2, so nothing overflows in the reference
    want = [math.log(cf.vplus)]
    for v, tv in ((cf.v1, cf.tv1), (cf.v2, cf.tv2)):
        want += [math.log(math.hypot(0.5 * v, 0.5 * tv)) + math.log(2.0),
                 math.atan2(tv, v) % (2 * math.pi)]
    assert rel_dev(log(BIG_PLANE), from_canonical(CanonicalForm(*want))) <= 1e-15


def test_negative_integer_power_with_a_plane_radius_beyond_the_float_range():
    # z ** -1 divides 1 by z, whose denominator overflows to give a silent 0
    # on plane 1; the true coordinates there are about 3e-309
    want = to_canonical(inverse(BIG_PLANE))
    for m in (-1, -1.0):
        got = to_canonical(pow_real(BIG_PLANE, m))
        for a, b in zip(astuple(got), astuple(want)):
            assert abs(a - b) <= 1e-12 * abs(b), m
    # z ** -2 and z ** -3 come back nan there; the true powers underflow to 0
    for n in (-2, -3):
        assert pow_real(BIG_PLANE, n) == PentaComplex()


def test_square_root_with_a_plane_radius_beyond_the_float_range():
    # cmath.polar(z) overflows on that plane although the root is about 1e154
    # the square of root/2 against BIG_PLANE/4: the full square's v1**2
    # would overflow although its coordinates do not
    half = to_canonical(0.5 * pow_real(BIG_PLANE, 0.5))
    square = canonical_multiply(half, half)
    for a, b in zip(astuple(square), astuple(to_canonical(BIG_PLANE))):
        assert abs(a - 0.25 * b) <= 1e-12 * abs(0.25 * b)


def test_square_of_the_root_with_a_plane_radius_beyond_the_float_range():
    # on plane 1 of the root, v1*v1 overflows although v1*v1 - tv1*tv1 does not
    root = pow_real(BIG_PLANE, 0.5)
    c = to_canonical(root)
    want = astuple(to_canonical(BIG_PLANE))
    squares = {"ring": to_canonical(multiply(root, root)),
               "canonical": canonical_multiply(c, c),
               "pow 2": to_canonical(pow_real(root, 2)),
               "pow 2.0": to_canonical(pow_real(root, 2.0))}
    for name, square in squares.items():
        for a, b in zip(astuple(square), want):
            assert abs(a - b) <= 1e-12 * abs(b), name
    # twice the root squares to four times BIG_PLANE, beyond the float range
    c2 = to_canonical(2.0 * root)
    with pytest.raises(Overflow):
        canonical_multiply(c2, c2)
    for m in (2, 2.0):
        with pytest.raises(Overflow):
            pow_real(2.0 * root, m)
