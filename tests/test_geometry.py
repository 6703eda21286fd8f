import math

import numpy as np
import pytest

from pentacomplex import (H1, H2, ONE, AngleUndefined, Overflow, PentaComplex,
                          amplitude, modulus, modulus_product_bound, multiply,
                          polar_form, to_canonical)
from pentacomplex.canonical import E_PLUS

SQRT5 = math.sqrt(5.0)


def rand(rng, lo=-10.0, hi=10.0):
    return PentaComplex(*rng.uniform(lo, hi, 5))


def test_modulus_examples():
    assert modulus(ONE) == 1.0
    assert abs(modulus(E_PLUS) - 1 / SQRT5) <= 1e-16
    assert abs(modulus(H1 + H2) - math.sqrt(2)) <= 1e-16


def test_modulus_beyond_the_float_range_raises_overflow_like_polar_form():
    u = PentaComplex(*[1e308] * 5)
    assert abs(u) == math.inf  # the plain hypot keeps its inf
    for f in (modulus, polar_form, lambda u: modulus_product_bound(u, ONE)):
        with pytest.raises(Overflow):
            f(u)
    half = 0.5 * u  # its modulus, about 1.1e308, is representable
    assert modulus(half) == abs(half) < math.inf


def test_polar_form_of_unit():
    pf = polar_form(ONE)
    assert pf.d == 1.0
    assert pf.rho1 == 1.0 and pf.rho2 == 1.0
    assert pf.phi1 == 0.0 and pf.phi2 == 0.0
    assert abs(pf.psi1 - math.pi / 4) <= 1e-16
    assert abs(math.tan(pf.thetaplus) - math.sqrt(2)) <= 1e-15
    assert pf.rho == 1.0
    assert not pf.undefined


def test_polar_form_of_line_idempotent():
    pf = polar_form(E_PLUS)
    assert abs(pf.d - 1 / SQRT5) <= 1e-16
    assert pf.rho1 <= 1e-15 and pf.rho2 <= 1e-15
    assert pf.phi1 is None and pf.phi2 is None and pf.psi1 is None
    assert pf.thetaplus == 0.0  # vplus = 1 > 0, rho1 = 0
    for name in ("phi1", "phi2", "psi1"):
        with pytest.raises(AngleUndefined) as err:
            pf.require(name)
        assert err.value.which == name
    d = pf.to_dict()
    assert d["phi1"] is None and "phi1" in d["undefined"]
    # each result owns its dict
    assert polar_form(E_PLUS).undefined is not pf.undefined


def test_norm_split_identity():
    rng = np.random.default_rng(20)
    for _ in range(1000):
        u = rand(rng)
        c = to_canonical(u)
        d2 = modulus(u) ** 2
        lhs = c.vplus ** 2 / 5 + 0.4 * (c.v1 ** 2 + c.tv1 ** 2 + c.v2 ** 2 + c.tv2 ** 2)
        assert abs(lhs - d2) <= 1e-12 * max(1.0, d2)


def test_amplitude_fifth_power_identity():
    rng = np.random.default_rng(21)
    for _ in range(500):
        u = rand(rng)
        c = to_canonical(u)
        want = c.vplus * (c.v1 ** 2 + c.tv1 ** 2) * (c.v2 ** 2 + c.tv2 ** 2)
        got = amplitude(u) ** 5
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_amplitude_preserves_sign():
    # odd fifth root: negative line part gives a negative amplitude
    minus_one = PentaComplex(-1, 0, 0, 0, 0)
    assert abs(amplitude(minus_one) + 1.0) <= 1e-15
    assert polar_form(minus_one).rho == amplitude(minus_one)


def test_modulus_product_bound_examples():
    lhs, rhs = modulus_product_bound(ONE, ONE)
    assert lhs == 1.0 and abs(rhs - SQRT5) <= 1e-15
    # the bound is tight on the line idempotent: |e+^2| = |e+| = sqrt5*|e+|^2
    lhs, rhs = modulus_product_bound(E_PLUS, E_PLUS)
    assert lhs <= rhs and abs(lhs - rhs) <= 1e-15


def test_modulus_product_bound_random():
    rng = np.random.default_rng(22)
    for _ in range(10000):
        u, v = rand(rng, -1, 1), rand(rng, -1, 1)
        lhs, rhs = modulus_product_bound(u, v)
        assert lhs <= rhs


def _conditioned(rng, floor=0.05):
    while True:
        u = rand(rng, -3, 3)
        c = to_canonical(u)
        d = abs(u)
        if d == 0:
            continue
        if (c.vplus > floor * d and math.hypot(c.v1, c.tv1) > floor * d
                and math.hypot(c.v2, c.tv2) > floor * d):
            return u


def test_multiplication_covariance():
    rng = np.random.default_rng(23)
    two_pi = 2 * math.pi
    for _ in range(200):
        u = _conditioned(rng)
        v = _conditioned(rng)
        prod = multiply(u, v)
        pu, pv, pp = polar_form(u), polar_form(v), polar_form(prod)
        cu, cv, cp = to_canonical(u), to_canonical(v), to_canonical(prod)
        assert abs(cp.vplus - cu.vplus * cv.vplus) <= 1e-10 * max(1, abs(cp.vplus))
        assert abs(pp.rho1 - pu.rho1 * pv.rho1) <= 1e-10 * max(1, pp.rho1)
        assert abs(pp.rho2 - pu.rho2 * pv.rho2) <= 1e-10 * max(1, pp.rho2)
        assert abs(pp.rho - pu.rho * pv.rho) <= 1e-10 * max(1, abs(pp.rho))
        t = math.tan(pp.thetaplus)
        assert abs(t - math.tan(pu.thetaplus) * math.tan(pv.thetaplus) / math.sqrt(2)) \
            <= 1e-10 * max(1, abs(t))
        t = math.tan(pp.psi1)
        assert abs(t - math.tan(pu.psi1) * math.tan(pv.psi1)) <= 1e-10 * max(1, abs(t))
        for name in ("phi1", "phi2"):
            diff = (pu.require(name) + pv.require(name) - pp.require(name)) % two_pi
            assert min(diff, two_pi - diff) <= 1e-10


def test_angle_tolerance_override():
    u = ONE + 1e-6 * H1
    # huge tolerance declares every angle undefined
    pf = polar_form(u, tol=10.0)
    assert pf.phi1 is None and pf.thetaplus is None
    assert pf.d > 0
