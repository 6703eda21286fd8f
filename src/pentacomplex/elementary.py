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
from dataclasses import asdict, dataclass

from .algebra import PentaComplex, _recip_plane, multiply
from .canonical import (E1_TILDE, E2_TILDE, E_PLUS, E1, E2, SQRT5, TWO_PI,
                        _canon, _guard, _lift)
from .errors import FormDomain, LogDomain, NonInvertible, Overflow, PowDomain
from .geometry import SQRT2, _amplitude, _azimuths, odd_fifth_root

# direction of the log(sqrt2/tan(thetaplus)) term in the exponent assembly
_H_ALL = PentaComplex(0.0, 1.0, 1.0, 1.0, 1.0)
# direction of the log(tan(psi1)) term: mixes h1+h4 against h2+h3
_PSI_MIX = PentaComplex(0.0, (SQRT5 + 1.0) / 10.0, -(SQRT5 - 1.0) / 10.0,
                        -(SQRT5 - 1.0) / 10.0, (SQRT5 + 1.0) / 10.0)


def _lifted(line_fn, plane_fn):
    """The builtin declared by its lift, line_fn on the line and plane_fn on
    each plane, and named after them.  A batch of elements (contour's
    nodes) holds no components: it applies the pair to its columns itself,
    through its `lift` method."""

    def f(u: PentaComplex) -> PentaComplex:
        try:
            return _lift(u, line_fn, plane_fn)
        except AttributeError:
            if hasattr(u, "lift"):
                return u.lift(line_fn, plane_fn)
            raise

    f.__name__ = f.__qualname__ = name = line_fn.__name__
    f.__doc__ = f"{name}(vplus) on the line and {name}(z_k) on each plane."
    return f


exp = _lifted(math.exp, cmath.exp)
cos = _lifted(math.cos, cmath.cos)
sin = _lifted(math.sin, cmath.sin)
cosh = _lifted(math.cosh, cmath.cosh)
sinh = _lifted(math.sinh, cmath.sinh)
# every builtin declared by its lift
_LIFTED = (exp, cos, sin, cosh, sinh)


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
    needs the logarithm domain; a non-finite m raises ValueError.  phi_k
    follows the principal branch [0, 2*pi).
    """
    if isinstance(m, int) or float(m).is_integer():
        n = int(m)
        power = lambda x: x ** n  # noqa: E731 -- float and complex alike

        def plane_power(z: complex) -> complex:
            try:
                w = z ** n
            except OverflowError:
                # a partial product such as v1*v1 can overflow where the
                # power is representable: the power of z/2, scaled back
                w = (0.5 * z) ** n
                return complex(math.ldexp(w.real, n), math.ldexp(w.imag, n))
            # for n < 0, z ** n divides 1 by z ** -n and comes back 0 or nan
            # without an error where that denominator overflows; the
            # reciprocal taken first keeps the value there
            if n < 0 and not (w and cmath.isfinite(w)):
                w = _recip_plane(z) ** -n
            return w

        return _lift(u, power, plane_power, NonInvertible if n < 0 else None)
    m = float(m)  # a numpy exponent would make numpy components
    if not math.isfinite(m):
        raise ValueError(f"exponent must be finite, got {m}")

    def plane(z: complex) -> complex:
        try:
            rho, phi = cmath.polar(z)
        except OverflowError:
            # a radius beyond the float range: the polar form of z/2 (halved
            # exactly at that size), whose radius is representable
            rho, phi = cmath.polar(0.5 * z)
            return cmath.rect(rho ** m * 2.0 ** m, m * (phi % TWO_PI))
        return cmath.rect(rho ** m, m * (phi % TWO_PI))

    return _lift(u, lambda x: x ** m, plane, PowDomain)


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
        return asdict(self)


def exponential_form(u: PentaComplex) -> ExponentialForm:
    """Exponential form of u; defined for 0 < thetaplus < pi/2 (i.e. vplus > 0)
    with both plane radii nonzero.  sqrt2/tan(thetaplus) is vplus/rho1 and
    tan(psi1) is rho1/rho2, so both logarithms are taken of the quotients;
    a plane radius beyond the floating-point range raises Overflow."""
    vp, v1, tv1, v2, tv2 = _canon(u)
    rho1, rho2 = _guard(u, vp, v1, tv1, v2, tv2, FormDomain)
    phi1, phi2 = _azimuths(rho1, rho2, v1, tv1, v2, tv2)
    return ExponentialForm(
        amplitude=_amplitude(vp, rho1, rho2),
        log_tan_theta=math.log(vp / rho1),
        log_tan_psi=math.log(rho1 / rho2),
        phi1=phi1, phi2=phi2,
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
    vp, v1, tv1, v2, tv2 = _canon(u)
    d = abs(u)
    rho1, rho2 = _guard(u, None, v1, tv1, v2, tv2, FormDomain)
    cot_theta = vp / (SQRT2 * rho1)
    cot_psi = rho2 / rho1
    phi1, phi2 = _azimuths(rho1, rho2, v1, tv1, v2, tv2)
    prefactor = d * math.sqrt(2.5) / math.sqrt(cot_theta ** 2 + 1.0 + cot_psi ** 2)
    direction = SQRT2 * cot_theta * E_PLUS + E1 + cot_psi * E2
    rotation = exp(phi1 * E1_TILDE + phi2 * E2_TILDE)
    return prefactor * multiply(direction, rotation)


def modulus_amplitude_relation(u: PentaComplex) -> tuple[float, float]:
    """(d, reconstruction of d from rho and the angles); equal where
    0 < thetaplus < pi/2 and 0 < psi1 < pi/2, that is where vplus > 0 and
    both plane radii are nonzero (FormDomain elsewhere).  tan(thetaplus)
    is sqrt2*rho1/vplus and tan(psi1) is rho1/rho2, both taken as quotients
    of the radii, as in exponential_form; a plane radius beyond the
    floating-point range raises Overflow."""
    vp, v1, tv1, v2, tv2 = _canon(u)
    rho1, rho2 = _guard(u, vp, v1, tv1, v2, tv2, FormDomain)
    if rho1 == math.inf or rho2 == math.inf:
        raise Overflow("a plane radius exceeds the floating-point range")
    tan_theta = SQRT2 * rho1 / vp
    tan_psi = rho1 / rho2
    rhs = (_amplitude(vp, rho1, rho2) * 2.0 ** 0.4 / SQRT5
           * odd_fifth_root(tan_theta * tan_psi * tan_psi)
           * math.sqrt(1.0 / tan_theta ** 2 + 1.0 + 1.0 / tan_psi ** 2))
    return abs(u), rhs
