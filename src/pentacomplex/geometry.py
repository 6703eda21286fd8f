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
from dataclasses import asdict, dataclass, field

from .algebra import PentaComplex, _check_tol, multiply
from .canonical import SQRT5, TAU_REL, TWO_PI, _canon, _modulus, _record
from .errors import AngleUndefined, Overflow

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
        out = asdict(self)
        if not self.undefined:
            del out["undefined"]
        return out


def modulus(u: PentaComplex) -> float:
    """Euclidean norm of the five components; beyond the floating-point
    range it raises Overflow, as `polar_form` does."""
    return _modulus(u)


# the smallest normal float
_TINY = 2.0 ** -1022

# 2**(k/5) for k = 0..4, each correctly rounded
_TWO_FIFTHS = tuple(2.0 ** (k / 5) for k in range(5))


def _fifth_root(m: float, e: int) -> float:
    """(m * 2**e)**(1/5) for m in [1/32, 1].  The binary exponent's root is
    exact (a power of two times a constant), so only m's root carries the
    error of the exponent 0.2 against 1/5, which |ln m| <= ln 32 keeps below
    an ulp."""
    q, k = divmod(e, 5)
    return math.ldexp(m ** 0.2 * _TWO_FIFTHS[k], q)


def odd_fifth_root(x: float) -> float:
    """Real fifth root with the sign of x."""
    m, e = math.frexp(x)
    return math.copysign(_fifth_root(abs(m), e), x)


def _amplitude(vp: float, rho1: float, rho2: float, e: int = 0) -> float:
    """Sign-preserving fifth root of vp * rho1**2 * rho2**2 * 2**e.  Where a
    partial product leaves the normal range, the mantissas and the binary
    exponents are multiplied apart, so nothing under- or overflows."""
    r = rho1 * rho2
    r2 = r * r
    x = abs(vp) * r2
    # r2 normal means r is too; x normal and finite means r2 is finite
    if r2 >= _TINY and _TINY <= x < math.inf:
        m, ex = math.frexp(x)
        return math.copysign(_fifth_root(m, e + ex), vp)
    m0, e0 = math.frexp(vp)
    m1, e1 = math.frexp(rho1)
    m2, e2 = math.frexp(rho2)
    m = abs(m0) * (m1 * m1) * (m2 * m2)
    return math.copysign(_fifth_root(m, e + e0 + 2 * (e1 + e2)), vp)


def amplitude(u: PentaComplex) -> float:
    """Sign-preserving fifth root of vplus * rho1^2 * rho2^2.

    Exactly multiplicative under the ring product (the modulus is only
    submultiplicative up to sqrt(5)).
    """
    vp, v1, tv1, v2, tv2 = _canon(u)
    rho1 = math.hypot(v1, tv1)
    rho2 = math.hypot(v2, tv2)
    e = 0
    # a radius beyond the float range is taken from the halved coordinates
    # (exactly halved at that size); the result is at most |u| (weighted
    # AM-GM), so it is finite
    if rho1 == math.inf:
        rho1 = math.hypot(0.5 * v1, 0.5 * tv1)
        e += 2
    if rho2 == math.inf:
        rho2 = math.hypot(0.5 * v2, 0.5 * tv2)
        e += 2
    return _amplitude(vp, rho1, rho2, e)


def _azimuths(rho1, rho2, v1, tv1, v2, tv2) -> tuple[float, float]:
    """phi1, phi2 in [0, 2*pi); a radius rho_k of inf raises Overflow."""
    if rho1 == math.inf or rho2 == math.inf:
        raise Overflow("a plane radius exceeds the floating-point range")
    return math.atan2(tv1, v1) % TWO_PI, math.atan2(tv2, v2) % TWO_PI


def polar_form(u: PentaComplex, tol: float | None = None) -> PolarForm:
    """Full polar decomposition of u.

    d, rho, rho1, rho2 are always returned; a canonical coordinate, a plane
    radius or a modulus beyond the floating-point range raises Overflow.
    phi_k needs rho_k > 0, psi1 needs rho1^2 + rho2^2 > 0 and thetaplus needs
    vplus^2 + rho1^2 > 0; the cutoff is `tol` (default TAU_REL * d; nan or
    negative raises ValueError).  All
    angles come from the two-argument arctangent: phi_k in [0, 2*pi), psi1
    in [0, pi/2], thetaplus in [0, pi].
    """
    vp, v1, tv1, v2, tv2 = _canon(u)
    d = _modulus(u)
    if tol is None:
        tol = TAU_REL * d
    else:
        _check_tol(tol)
    rho1 = math.hypot(v1, tv1)
    rho2 = math.hypot(v2, tv2)
    az1, az2 = _azimuths(rho1, rho2, v1, tv1, v2, tv2)
    rho = _amplitude(vp, rho1, rho2)

    undefined: dict = {}
    phi1 = phi2 = psi1 = thetaplus = None
    if rho1 > tol:
        phi1 = az1
    else:
        undefined["phi1"] = "rho1 vanishes"
    if rho2 > tol:
        phi2 = az2
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
    return _record(PolarForm, {"d": d, "rho": rho, "rho1": rho1, "rho2": rho2, "phi1": phi1,
                               "phi2": phi2, "psi1": psi1, "thetaplus": thetaplus,
                               "undefined": undefined})


def modulus_product_bound(u: PentaComplex, v: PentaComplex) -> tuple[float, float]:
    """(|u*v|, sqrt(5)*|u|*|v|); the first never exceeds the second.  A
    bound beyond the floating-point range raises Overflow."""
    bound = SQRT5 * _modulus(u) * _modulus(v)
    if bound == math.inf:
        raise Overflow("modulus bound exceeds the floating-point range")
    return abs(multiply(u, v)), bound
