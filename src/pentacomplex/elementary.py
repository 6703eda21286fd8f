"""Elementary functions of a 5-complex variable.

All functions act componentwise on the canonical form: an ordinary real
function on the line part vplus, and the matching complex function on each
plane (v_k, tv_k).  The logarithm, non-integer powers and the exponential
form exist only where vplus > 0 and both plane radii are nonzero; those
domains raise typed errors rather than returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import PentaComplex, _result, multiply
from .canonical import (E1_TILDE, E2_TILDE, E_PLUS, E1, E2, SQRT5, TWO_PI,
                        _from_canon_comps, _to_canon_comps)
from .errors import FormDomain, LogDomain, NonInvertible, Overflow, PowDomain
from .geometry import SQRT2, odd_fifth_root, polar_form

# direction of the log(sqrt2/tan(thetaplus)) term in the exponent assembly
_H_ALL = PentaComplex(0.0, 1.0, 1.0, 1.0, 1.0)
# direction of the log(tan(psi1)) term: mixes h1+h4 against h2+h3
_PSI_MIX = PentaComplex(0.0, (SQRT5 + 1.0) / 10.0, -(SQRT5 - 1.0) / 10.0,
                        -(SQRT5 - 1.0) / 10.0, (SQRT5 + 1.0) / 10.0)


def _exp_guarded(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError as exc:
        raise Overflow(f"exp({x}) exceeds the floating-point range") from exc


def _build(w: tuple) -> PentaComplex:
    # canonical components near the float ceiling can overflow on reassembly
    return _result(*_from_canon_comps(w))


def exp(u: PentaComplex) -> PentaComplex:
    """Exponential: e^vplus on the line, e^v_k*(cos tv_k, sin tv_k) per plane."""
    vp, v1, tv1, v2, tv2 = _to_canon_comps(u.components)
    e0 = _exp_guarded(vp)
    e1 = _exp_guarded(v1)
    e2 = _exp_guarded(v2)
    w = (e0, e1 * math.cos(tv1), e1 * math.sin(tv1),
         e2 * math.cos(tv2), e2 * math.sin(tv2))
    return _build(w)


def log(u: PentaComplex) -> PentaComplex:
    """Principal logarithm, computed on the canonical components:
    log(vplus) on the line and log(rho_k) + i*phi_k on each plane, with
    phi_k in [0, 2*pi).  Requires vplus > 0 and both plane radii nonzero;
    exp(log(u)) == u on that domain.

    The paper's route through the amplitude and the tangents of thetaplus
    and psi1 is `exponential_form`; the tests cross-check the two.
    """
    vp, v1, tv1, v2, tv2 = _to_canon_comps(u.components)
    tol = 1e-13 * abs(u)
    if vp <= tol:
        raise LogDomain(f"vplus = {vp:.3e} is not positive")
    rho1 = math.hypot(v1, tv1)
    rho2 = math.hypot(v2, tv2)
    if rho1 <= tol or rho2 <= tol:
        raise LogDomain("a plane radius vanishes")
    return _build((math.log(vp), math.log(rho1), math.atan2(tv1, v1) % TWO_PI,
                   math.log(rho2), math.atan2(tv2, v2) % TWO_PI))


def pow_real(u: PentaComplex, m: float) -> PentaComplex:
    """u^m: e+*vplus^m plus rho_k^m*(cos m*phi_k, sin m*phi_k) per plane.

    Integer m works for any u (negative m needs invertibility); non-integer m
    needs the logarithm domain.  phi_k follows the principal branch [0, 2*pi).
    """
    vp, v1, tv1, v2, tv2 = _to_canon_comps(u.components)
    if isinstance(m, int) or float(m).is_integer():
        n = int(m)
        if n < 0:
            tol = 1e-13 * abs(u)
            if abs(vp) <= tol or math.hypot(v1, tv1) <= tol or math.hypot(v2, tv2) <= tol:
                raise NonInvertible("negative power of a divisor of zero")
        try:
            wp = vp ** n
            z1 = complex(v1, tv1) ** n
            z2 = complex(v2, tv2) ** n
        except (OverflowError, ZeroDivisionError) as exc:
            raise Overflow(f"power {n} overflows") from exc
        w = (wp, z1.real, z1.imag, z2.real, z2.imag)
        if not all(math.isfinite(x) for x in w):
            raise Overflow(f"power {n} overflows")
        return _build(w)
    rho1 = math.hypot(v1, tv1)
    rho2 = math.hypot(v2, tv2)
    tol = 1e-13 * abs(u)
    if vp <= tol or rho1 <= tol or rho2 <= tol:
        raise PowDomain("non-integer power needs vplus > 0 and nonzero plane radii")
    phi1 = math.atan2(tv1, v1) % TWO_PI
    phi2 = math.atan2(tv2, v2) % TWO_PI
    try:
        wp = vp ** m
        r1m = rho1 ** m
        r2m = rho2 ** m
    except OverflowError as exc:
        raise Overflow(f"power {m} overflows") from exc
    w = (wp, r1m * math.cos(m * phi1), r1m * math.sin(m * phi1),
         r2m * math.cos(m * phi2), r2m * math.sin(m * phi2))
    return _build(w)


def cos(u: PentaComplex) -> PentaComplex:
    vp, v1, tv1, v2, tv2 = _to_canon_comps(u.components)
    try:
        w = (math.cos(vp),
             math.cos(v1) * math.cosh(tv1), -math.sin(v1) * math.sinh(tv1),
             math.cos(v2) * math.cosh(tv2), -math.sin(v2) * math.sinh(tv2))
    except OverflowError as exc:
        raise Overflow("cos overflows") from exc
    return _build(w)


def sin(u: PentaComplex) -> PentaComplex:
    vp, v1, tv1, v2, tv2 = _to_canon_comps(u.components)
    try:
        w = (math.sin(vp),
             math.sin(v1) * math.cosh(tv1), math.cos(v1) * math.sinh(tv1),
             math.sin(v2) * math.cosh(tv2), math.cos(v2) * math.sinh(tv2))
    except OverflowError as exc:
        raise Overflow("sin overflows") from exc
    return _build(w)


def cosh(u: PentaComplex) -> PentaComplex:
    vp, v1, tv1, v2, tv2 = _to_canon_comps(u.components)
    try:
        w = (math.cosh(vp),
             math.cosh(v1) * math.cos(tv1), math.sinh(v1) * math.sin(tv1),
             math.cosh(v2) * math.cos(tv2), math.sinh(v2) * math.sin(tv2))
    except OverflowError as exc:
        raise Overflow("cosh overflows") from exc
    return _build(w)


def sinh(u: PentaComplex) -> PentaComplex:
    vp, v1, tv1, v2, tv2 = _to_canon_comps(u.components)
    try:
        w = (math.sinh(vp),
             math.sinh(v1) * math.cos(tv1), math.cosh(v1) * math.sin(tv1),
             math.sinh(v2) * math.cos(tv2), math.cosh(v2) * math.sin(tv2))
    except OverflowError as exc:
        raise Overflow("sinh overflows") from exc
    return _build(w)


# Array forms of the builtins above, keyed by id of the scalar function: the
# one numpy ufunc that acts on the line (real) and on each plane (complex).
# While every canonical coordinate stays within LIFT_RANGE no builtin
# overflows (e^700 is about 1e304, and reassembly sums five such terms
# scaled by at most 0.4), so there the array forms are finite exactly where
# the scalar functions return a value.
ARRAY_LIFT = {id(exp): np.exp, id(sin): np.sin, id(cos): np.cos,
              id(sinh): np.sinh, id(cosh): np.cosh}
LIFT_RANGE = 700.0


@dataclass(frozen=True)
class ExponentialForm:
    """u = amplitude * exp(exponent) with the exponent assembled from
    log(sqrt2/tan(thetaplus)), log(tan(psi1)) and the azimuthal angles."""

    amplitude: float
    log_tan_theta: float
    log_tan_psi: float
    phi1: float
    phi2: float

    def exponent(self) -> PentaComplex:
        return ((1.0 / 5.0) * self.log_tan_theta * _H_ALL
                + self.log_tan_psi * _PSI_MIX
                + self.phi1 * E1_TILDE + self.phi2 * E2_TILDE)

    def reconstruct(self) -> PentaComplex:
        return self.amplitude * exp(self.exponent())

    def to_dict(self) -> dict:
        return {"amplitude": self.amplitude, "log_tan_theta": self.log_tan_theta,
                "log_tan_psi": self.log_tan_psi, "phi1": self.phi1, "phi2": self.phi2}


def exponential_form(u: PentaComplex) -> ExponentialForm:
    """Exponential form of u; defined for 0 < thetaplus < pi/2 (i.e. vplus > 0)
    with both plane radii nonzero."""
    vp, v1, tv1, v2, tv2 = _to_canon_comps(u.components)
    tol = 1e-13 * abs(u)
    rho1 = math.hypot(v1, tv1)
    rho2 = math.hypot(v2, tv2)
    if vp <= tol:
        raise FormDomain(f"vplus = {vp:.3e} is not positive")
    if rho1 <= tol or rho2 <= tol:
        raise FormDomain("a plane radius vanishes")
    pf = polar_form(u)
    return ExponentialForm(
        amplitude=pf.rho,
        log_tan_theta=math.log(SQRT2 / math.tan(pf.require("thetaplus"))),
        log_tan_psi=math.log(math.tan(pf.require("psi1"))),
        phi1=pf.require("phi1"),
        phi2=pf.require("phi2"),
    )


def trigonometric_form(u: PentaComplex) -> PentaComplex:
    """Reconstruct u from modulus, angles and the azimuthal rotation:

        d * sqrt(5/2) * (cot^2 thetaplus + 1 + cot^2 psi1)^(-1/2)
          * (e+ * sqrt2 * cot(thetaplus) + e1 + e2 * cot(psi1))
          * exp(~e1*phi1 + ~e2*phi2)

    Defined for 0 < thetaplus < pi and 0 < psi1 < pi/2 (both plane radii
    nonzero); the cotangents are evaluated from the canonical components so
    thetaplus = pi/2 costs no precision.
    """
    vp, v1, tv1, v2, tv2 = _to_canon_comps(u.components)
    d = abs(u)
    tol = 1e-13 * d
    rho1 = math.hypot(v1, tv1)
    rho2 = math.hypot(v2, tv2)
    if rho1 <= tol or rho2 <= tol:
        raise FormDomain("a plane radius vanishes")
    cot_theta = vp / (SQRT2 * rho1)
    cot_psi = rho2 / rho1
    phi1 = math.atan2(tv1, v1) % TWO_PI
    phi2 = math.atan2(tv2, v2) % TWO_PI
    prefactor = d * math.sqrt(2.5) / math.sqrt(cot_theta ** 2 + 1.0 + cot_psi ** 2)
    direction = SQRT2 * cot_theta * E_PLUS + E1 + cot_psi * E2
    rotation = exp(phi1 * E1_TILDE + phi2 * E2_TILDE)
    return prefactor * multiply(direction, rotation)


def modulus_amplitude_relation(u: PentaComplex) -> tuple[float, float]:
    """(d, reconstruction of d from rho and the angles); equal where
    0 < thetaplus < pi/2 and 0 < psi1 < pi/2."""
    pf = polar_form(u)
    tan_theta = math.tan(pf.require("thetaplus"))
    tan_psi = math.tan(pf.require("psi1"))
    rhs = (pf.rho * 2.0 ** 0.4 / SQRT5
           * odd_fifth_root(tan_theta * tan_psi * tan_psi)
           * math.sqrt(1.0 / tan_theta ** 2 + 1.0 + 1.0 / tan_psi ** 2))
    return pf.d, rhs
