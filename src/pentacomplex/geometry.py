"""Metric and angular structure of 5-complex numbers.

A nonzero element is located by the Euclidean modulus d, the amplitude rho
(sign-preserving fifth root of vplus*rho1^2*rho2^2), the two plane radii
rho1, rho2, the azimuthal angles phi1, phi2 in each plane, the planar angle
psi1 between the radii, and the polar angle thetaplus between the line part
and the plane-1 radius.  Under multiplication vplus, the radii and the
amplitude are multiplicative and the azimuthal angles are additive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .algebra import PentaComplex, multiply
from .canonical import SQRT5, TAU_REL, TWO_PI, _modulus, _to_canon_comps
from .errors import AngleUndefined

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PolarForm:
    """Modulus, amplitude, radii and angles of one element.

    Angles whose defining radius vanishes are None, with the reason recorded
    in `undefined`; `require` turns access to a missing angle into an
    AngleUndefined error.
    """

    d: float
    rho: float
    rho1: float
    rho2: float
    phi1: float | None
    phi2: float | None
    psi1: float | None
    thetaplus: float | None
    undefined: dict = field(default_factory=dict)

    def require(self, name: str) -> float:
        value = getattr(self, name)
        if value is None:
            raise AngleUndefined(name, self.undefined.get(name, ""))
        return value

    def to_dict(self) -> dict:
        out = {"d": self.d, "rho": self.rho, "rho1": self.rho1, "rho2": self.rho2,
               "phi1": self.phi1, "phi2": self.phi2, "psi1": self.psi1,
               "thetaplus": self.thetaplus}
        if self.undefined:
            out["undefined"] = dict(self.undefined)
        return out


def modulus(u: PentaComplex) -> float:
    """Euclidean norm of the five components."""
    return abs(u)


def odd_fifth_root(x: float) -> float:
    """Real fifth root with the sign of x."""
    return math.copysign(abs(x) ** 0.2, x)


def _amplitude(vp: float, rho1: float, rho2: float) -> float:
    # the fifth root taken factor by factor, so nothing under- or overflows
    return math.copysign(abs(vp) ** 0.2 * rho1 ** 0.4 * rho2 ** 0.4, vp)


def amplitude(u: PentaComplex) -> float:
    """Sign-preserving fifth root of vplus * rho1^2 * rho2^2.

    Exactly multiplicative under the ring product (the modulus is only
    submultiplicative up to sqrt(5)).
    """
    vp, v1, tv1, v2, tv2 = _to_canon_comps(u.components)
    return _amplitude(vp, math.hypot(v1, tv1), math.hypot(v2, tv2))


def polar_form(u: PentaComplex, tol: float | None = None) -> PolarForm:
    """Full polar decomposition of u.

    d, rho, rho1, rho2 are always returned; a canonical coordinate or a
    modulus beyond the floating-point range raises Overflow.  phi_k needs
    rho_k > 0, psi1 needs rho1^2 + rho2^2 > 0 and thetaplus needs
    vplus^2 + rho1^2 > 0; the cutoff is `tol` (default TAU_REL * d).  All
    angles come from the two-argument arctangent: phi_k in [0, 2*pi), psi1
    in [0, pi/2], thetaplus in [0, pi].
    """
    vp, v1, tv1, v2, tv2 = _to_canon_comps(u.components)
    d = _modulus(u)
    if tol is None:
        tol = TAU_REL * d
    rho1 = math.hypot(v1, tv1)
    rho2 = math.hypot(v2, tv2)
    rho = _amplitude(vp, rho1, rho2)

    undefined: dict = {}
    phi1 = phi2 = psi1 = thetaplus = None
    if rho1 > tol:
        phi1 = math.atan2(tv1, v1) % TWO_PI
    else:
        undefined["phi1"] = "rho1 vanishes"
    if rho2 > tol:
        phi2 = math.atan2(tv2, v2) % TWO_PI
    else:
        undefined["phi2"] = "rho2 vanishes"
    if rho1 > tol or rho2 > tol:
        psi1 = math.atan2(rho1, rho2)
    else:
        undefined["psi1"] = "rho1 and rho2 both vanish"
    if abs(vp) > tol or rho1 > tol:
        thetaplus = math.atan2(SQRT2 * rho1, vp)
    else:
        undefined["thetaplus"] = "vplus and rho1 both vanish"
    return PolarForm(d=d, rho=rho, rho1=rho1, rho2=rho2, phi1=phi1, phi2=phi2,
                     psi1=psi1, thetaplus=thetaplus, undefined=undefined)


def modulus_product_bound(u: PentaComplex, v: PentaComplex) -> tuple[float, float]:
    """(|u*v|, sqrt(5)*|u|*|v|); the first never exceeds the second."""
    return abs(multiply(u, v)), SQRT5 * abs(u) * abs(v)
