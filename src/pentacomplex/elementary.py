"""Elementary functions of a 5-complex variable.

All functions act componentwise on the canonical form: an ordinary real
function on the line part vplus, and the matching complex function on each
plane (v_k, tv_k).  The logarithm, non-integer powers and the exponential
form exist only where vplus > 0 and both plane radii are nonzero; those
domains raise typed errors rather than returning garbage.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import PentaComplex, multiply
from .canonical import (E1_TILDE, E2_TILDE, E_PLUS, E1, E2, SQRT5, TWO_PI,
                        _guard, _lift, _to_canon_comps)
from .errors import FormDomain, LogDomain, NonInvertible, PowDomain
from .geometry import SQRT2, odd_fifth_root, polar_form

# direction of the log(sqrt2/tan(thetaplus)) term in the exponent assembly
_H_ALL = PentaComplex(0.0, 1.0, 1.0, 1.0, 1.0)
# direction of the log(tan(psi1)) term: mixes h1+h4 against h2+h3
_PSI_MIX = PentaComplex(0.0, (SQRT5 + 1.0) / 10.0, -(SQRT5 - 1.0) / 10.0,
                        -(SQRT5 - 1.0) / 10.0, (SQRT5 + 1.0) / 10.0)


def exp(u: PentaComplex) -> PentaComplex:
    """Exponential: e^vplus on the line and e^z_k on each plane."""
    return _lift(u, math.exp, cmath.exp)


_TWO_PI_J = complex(0.0, TWO_PI)


def _log_plane(z: complex) -> complex:
    # the angle moved from (-pi, pi] to [0, 2*pi); adding 0j turns -0.0 into 0.0
    w = cmath.log(z)
    return w + (_TWO_PI_J if w.imag < 0.0 else 0j)


def log(u: PentaComplex) -> PentaComplex:
    """Principal logarithm, computed on the canonical components:
    log(vplus) on the line and log(rho_k) + i*phi_k on each plane, with
    phi_k in [0, 2*pi).  Requires vplus > 0 and both plane radii nonzero;
    exp(log(u)) == u on that domain.

    The paper's route through the amplitude and the tangents of thetaplus
    and psi1 is `exponential_form`; the tests cross-check the two.
    """
    return _lift(u, math.log, _log_plane, LogDomain)


def pow_real(u: PentaComplex, m: float) -> PentaComplex:
    """u^m: e+*vplus^m plus rho_k^m*(cos m*phi_k, sin m*phi_k) per plane.

    Integer m works for any u (negative m needs invertibility); non-integer m
    needs the logarithm domain.  phi_k follows the principal branch [0, 2*pi).
    """
    if isinstance(m, int) or float(m).is_integer():
        n = int(m)
        power = lambda x: x ** n  # noqa: E731 -- float and complex alike
        return _lift(u, power, power, NonInvertible if n < 0 else None)
    m = float(m)  # a numpy exponent would make numpy components

    def plane(z: complex) -> complex:
        rho, phi = cmath.polar(z)
        return cmath.rect(rho ** m, m * (phi % TWO_PI))

    return _lift(u, lambda x: x ** m, plane, PowDomain)


def cos(u: PentaComplex) -> PentaComplex:
    return _lift(u, math.cos, cmath.cos)


def sin(u: PentaComplex) -> PentaComplex:
    return _lift(u, math.sin, cmath.sin)


def cosh(u: PentaComplex) -> PentaComplex:
    return _lift(u, math.cosh, cmath.cosh)


def sinh(u: PentaComplex) -> PentaComplex:
    return _lift(u, math.sinh, cmath.sinh)


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
    _guard(u, vp, math.hypot(v1, tv1), math.hypot(v2, tv2), FormDomain)
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
    rho1 = math.hypot(v1, tv1)
    rho2 = math.hypot(v2, tv2)
    _guard(u, None, rho1, rho2, FormDomain)
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
