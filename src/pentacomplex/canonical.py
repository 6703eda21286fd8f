"""Canonical (idempotent) decomposition of the 5-complex ring.

The linear change of variables (vplus, v1, tv1, v2, tv2) splits the ring into
a real line and two independent complex planes: multiplication becomes a real
scaling times two plane rotations-with-scaling.  The transform constants are
the closed radicals p = (sqrt5 - 1)/4 and q = sqrt((5 + sqrt5)/8), which equal
cos(2*pi/5) and sin(2*pi/5); the radicals are used for construction and the
trigonometric identities are left to the tests.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .algebra import DIM, PentaComplex, _check_tol, _new, _number, _result, _set_canon
from .errors import NonInvertible, Overflow

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

SQRT5 = math.sqrt(5.0)
TWO_PI = 2.0 * math.pi

P = (SQRT5 - 1.0) / 4.0            # cos of the fifth-circle angle
Q = math.sqrt((5.0 + SQRT5) / 8.0)  # sin of the fifth-circle angle
P2 = 2.0 * P * P - 1.0             # cos of twice the angle
Q2 = 2.0 * P * Q                   # sin of twice the angle

# a canonical part at or below this fraction of |u| counts as zero: the
# cutoff of the divisor-of-zero guard and the default of polar_form's angles
TAU_REL = 1e-13


@dataclass(frozen=True)
class CanonicalForm:
    """Coordinates (vplus, v1, tv1, v2, tv2) of the line and the two planes.

    The remaining four formal coordinates are dependent (v3 = v2, tv3 = -tv2,
    v4 = v1, tv4 = -tv1) and are never stored.
    """

    vplus: float
    v1: float
    tv1: float
    v2: float
    tv2: float

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CanonicalForm":
        """The form of `to_dict`'s data: every field a finite JSON number,
        else ValueError naming the field."""
        names = [f.name for f in fields(cls)]
        if not isinstance(data, dict) or any(k not in data for k in names):
            raise ValueError("canonical input must be a JSON object "
                             "with vplus, v1, tv1, v2 and tv2")
        return cls(*(_number(data[k], k) for k in names))


@dataclass(frozen=True)
class RotatedCoords:
    """Orthonormal coordinates (xiplus, xi1, eta1, xi2, eta2).

    Same directions as the canonical variables but with unit-length axes, so
    the Euclidean norm of u is preserved exactly.
    """

    xiplus: float
    xi1: float
    eta1: float
    xi2: float
    eta2: float


@dataclass(frozen=True)
class IrreducibleRep:
    """Block-diagonal form of the circulant matrix: 1x1 + 2x2 + 2x2."""

    vplus: float
    v1_block: np.ndarray
    v2_block: np.ndarray


def _to_canon_comps(c: tuple) -> tuple:
    """(x0..x4) -> (vplus, v1, tv1, v2, tv2), on five floats or elementwise
    on five numpy arrays (such as the rows of a (5, n) array), with the same
    roundings: the package's one canonical transform.  On floats, components
    near the float ceiling can take a coordinate beyond the floating-point
    range, which raises Overflow; arrays are not checked, and such a
    coordinate becomes inf or nan there, which their caller reports."""
    x0, x1, x2, x3, x4 = c
    s14 = x1 + x4
    d14 = x1 - x4
    s23 = x2 + x3
    d23 = x2 - x3
    vp = x0 + s14 + s23
    v1 = x0 + P * s14 + P2 * s23
    tv1 = Q * d14 + Q2 * d23
    v2 = x0 + P2 * s14 + P * s23
    tv2 = Q2 * d14 - Q * d23
    if vp.__class__ is float and vp * 0.0 + v1 * 0.0 + tv1 * 0.0 + v2 * 0.0 + tv2 * 0.0 != 0.0:
        raise Overflow("canonical coordinates exceed the floating-point range")
    return vp, v1, tv1, v2, tv2


def _canon(u: PentaComplex) -> tuple:
    """u's canonical coordinates (vplus, v1, tv1, v2, tv2): the tuple
    _to_canon_comps returns for its components, transformed on first use
    and kept in u's `_canon` slot.  Where the transform raises Overflow
    nothing is kept, so the next call raises again."""
    c = u._canon
    if c is None:
        c = _to_canon_comps(u.components)
        _set_canon(u, c)
    return c


# the transform as a matrix: its images of the unit vectors are the columns
_CANON_ROWS = tuple(zip(*(_to_canon_comps(tuple(float(i == j) for j in range(DIM)))
                          for i in range(DIM))))
# canonical basis components: the transform's rows scaled by 2/5 (the line
# row carries an extra 1/2)
_E_PLUS, _E1, _TE1, _E2, _TE2 = (tuple(s * x for x in row) for s, row in
                                 zip((0.2, 0.4, 0.4, 0.4, 0.4), _CANON_ROWS))
_P4, _P24, _Q4, _Q24 = _E1[1], _E1[2], _TE1[1], _TE1[2]


def _from_canon_comps(w: tuple) -> tuple:
    """(vplus, v1, tv1, v2, tv2) -> (x0..x4), on five floats or elementwise
    on five numpy arrays, with the same roundings; nothing is checked.

    Row i is _E_PLUS[i]*vp + _E1[i]*v1 + _TE1[i]*tv1 + _E2[i]*v2 + _TE2[i]*tv2
    summed left to right, unrolled; a negative coefficient is written as a
    subtraction and the zero terms of row 0 are kept, so every result is
    bit-identical to the row formula, signed zeros included.
    """
    vp, v1, tv1, v2, tv2 = w
    p = 0.2 * vp
    return (
        p + 0.4 * v1 + 0.0 * tv1 + 0.4 * v2 + 0.0 * tv2,
        p + _P4 * v1 + _Q4 * tv1 + _P24 * v2 + _Q24 * tv2,
        p + _P24 * v1 + _Q24 * tv1 + _P4 * v2 - _Q4 * tv2,
        p + _P24 * v1 - _Q24 * tv1 + _P4 * v2 + _Q4 * tv2,
        p + _P4 * v1 - _Q4 * tv1 + _P24 * v2 - _Q24 * tv2,
    )


_set_attr = object.__setattr__


def _record(cls: type, fields: dict):
    """An instance of the frozen dataclass cls whose fields are `fields`,
    a dict in field order, built in one step instead of one
    object.__setattr__ per field.  Only for values the package computed
    itself: nothing is converted or checked, and no __post_init__ runs."""
    rec = _new(cls)
    _set_attr(rec, "__dict__", fields)
    return rec


def _modulus(u: PentaComplex) -> float:
    """|u| (abs(u), without its call), raising Overflow where it exceeds
    the floating-point range."""
    d = math.hypot(*u.components)
    if d == math.inf:
        raise Overflow("modulus exceeds the floating-point range")
    return d


def _guard(u: PentaComplex, vp: float | None, v1: float, tv1: float, v2: float,
           tv2: float, error: type, tol: float | None = None) -> tuple[float, float]:
    """The divisor-of-zero guard on u's canonical coordinates: raise `error`
    unless both plane radii exceed `tol` (default TAU_REL * |u|) and so does
    vplus, in absolute value for NonInvertible and in value (the logarithm's
    domain) for any other error.  vp=None leaves the line untested.  A
    modulus beyond the floating-point range leaves no cutoff and raises
    Overflow; a nan or negative tol raises ValueError.  Returns the radii,
    from hypot, which unlike abs(z) gives inf (passing the guard) for a
    radius beyond the float range."""
    r1 = math.hypot(v1, tv1)
    r2 = math.hypot(v2, tv2)
    tol = TAU_REL * _modulus(u) if tol is None else _check_tol(tol)
    if vp is not None:
        if error is NonInvertible:
            if abs(vp) <= tol:
                raise error(f"vplus = {vp:.3e} vanishes; divisor of zero")
        elif vp <= tol:
            raise error(f"vplus = {vp:.3e} is not positive")
    if r1 <= tol or r2 <= tol:
        raise error(f"plane-{1 if r1 <= tol else 2} radius vanishes; divisor of zero")
    return r1, r2


def _lift(u: PentaComplex, line_fn, plane_fn, domain: type | None = None,
          tol: float | None = None) -> PentaComplex:
    """The element with line_fn(vplus) on the line and plane_fn(v_k + i*tv_k)
    on each plane.  With an error class `domain`, u first passes the guard;
    a result beyond the floating-point range raises Overflow."""
    vp, v1, tv1, v2, tv2 = _canon(u)
    z1 = complex(v1, tv1)
    z2 = complex(v2, tv2)
    try:
        if domain is not None:
            # a radius beyond the float range passes the guard; plane_fn
            # must then return its value or raise (1/z silently gives 0 there)
            _guard(u, vp, v1, tv1, v2, tv2, domain, tol)
        wp = line_fn(vp)
        w1 = plane_fn(z1)
        w2 = plane_fn(z2)
    except (OverflowError, ZeroDivisionError) as exc:
        raise Overflow("result exceeds the floating-point range") from exc
    return _assemble(wp, w1, w2)


def _assemble(wp: float, w1: complex, w2: complex) -> PentaComplex:
    """The element with wp on the line and w1, w2 on the planes; a
    non-finite part raises Overflow."""
    return _result(*_from_canon_comps((wp, w1.real, w1.imag, w2.real, w2.imag)))


E_PLUS = PentaComplex(*_E_PLUS)
E1 = PentaComplex(*_E1)
E1_TILDE = PentaComplex(*_TE1)
E2 = PentaComplex(*_E2)
E2_TILDE = PentaComplex(*_TE2)


def canonical_basis() -> tuple[PentaComplex, PentaComplex, PentaComplex,
                               PentaComplex, PentaComplex]:
    """The idempotent basis (e+, e1, ~e1, e2, ~e2).

    e+ and the e_k are idempotent and mutually annihilating, the ~e_k square
    to -e_k within their plane, and e+ + e1 + e2 is the ring unit.
    """
    return E_PLUS, E1, E1_TILDE, E2, E2_TILDE


def to_canonical(u: PentaComplex) -> CanonicalForm:
    """Project u onto the real line and the two planes."""
    vp, v1, tv1, v2, tv2 = _canon(u)
    return _record(CanonicalForm, {"vplus": vp, "v1": v1, "tv1": tv1, "v2": v2, "tv2": tv2})


def from_canonical(c: CanonicalForm) -> PentaComplex:
    """Assemble e+*vplus + e1*v1 + ~e1*tv1 + e2*v2 + ~e2*tv2.  A result
    beyond the floating-point range, or a non-finite field, raises
    Overflow."""
    w = (float(c.vplus), float(c.v1), float(c.tv1), float(c.v2), float(c.tv2))
    return _result(*_from_canon_comps(w))


def canonical_multiply(c: CanonicalForm, d: CanonicalForm) -> CanonicalForm:
    """Componentwise product: real scaling plus complex product in each
    plane.  A product beyond the floating-point range raises Overflow."""
    vp = c.vplus * d.vplus
    v1 = c.v1 * d.v1 - c.tv1 * d.tv1
    tv1 = c.v1 * d.tv1 + c.tv1 * d.v1
    v2 = c.v2 * d.v2 - c.tv2 * d.tv2
    tv2 = c.v2 * d.tv2 + c.tv2 * d.v2
    if vp * 0.0 + v1 * 0.0 + tv1 * 0.0 + v2 * 0.0 + tv2 * 0.0 != 0.0:
        # a partial product such as v1*v1 can overflow where v1*v1 - tv1*tv1
        # is representable: the planes again with c's halved, doubled after
        h1, ht1, h2, ht2 = 0.5 * c.v1, 0.5 * c.tv1, 0.5 * c.v2, 0.5 * c.tv2
        v1 = 2.0 * (h1 * d.v1 - ht1 * d.tv1)
        tv1 = 2.0 * (h1 * d.tv1 + ht1 * d.v1)
        v2 = 2.0 * (h2 * d.v2 - ht2 * d.tv2)
        tv2 = 2.0 * (h2 * d.tv2 + ht2 * d.v2)
        if vp * 0.0 + v1 * 0.0 + tv1 * 0.0 + v2 * 0.0 + tv2 * 0.0 != 0.0:
            raise Overflow("canonical product exceeds the floating-point range")
    return _record(CanonicalForm, {"vplus": vp, "v1": v1, "tv1": tv1, "v2": v2, "tv2": tv2})


_SQ25 = math.sqrt(2.0 / 5.0)
# the transform's rows scaled to unit length (the line row by an extra 1/sqrt2)
_ROT_ROWS = tuple(tuple(s * x for x in row) for s, row in
                  zip((_SQ25 / math.sqrt(2.0),) + (_SQ25,) * 4, _CANON_ROWS))


def rotation_matrix() -> np.ndarray:
    """Orthonormal 5x5 change of basis onto the rotated axes (rows are the axes)."""
    import numpy as np

    return np.array(_ROT_ROWS)


def rotated_coords(u: PentaComplex) -> RotatedCoords:
    """Coordinates of u in the rotated orthonormal frame.

    Related to the canonical variables by vplus = sqrt(5)*xiplus and
    v_k = sqrt(5/2)*xi_k, tv_k = sqrt(5/2)*eta_k.
    """
    vp, v1, tv1, v2, tv2 = _canon(u)
    return _record(RotatedCoords, {"xiplus": vp / SQRT5, "xi1": _SQ25 * v1, "eta1": _SQ25 * tv1,
                                   "xi2": _SQ25 * v2, "eta2": _SQ25 * tv2})


def irreducible_rep(u: PentaComplex) -> IrreducibleRep:
    """Block-diagonal matrix form: scalar vplus plus one 2x2 block per plane.

    Equals T @ to_matrix(u) @ T^-1 with T the rotated-frame matrix; each plane
    block is [[v_k, tv_k], [-tv_k, v_k]].
    """
    import numpy as np

    vp, v1, tv1, v2, tv2 = _canon(u)
    b1 = np.array([[v1, tv1], [-tv1, v1]])
    b2 = np.array([[v2, tv2], [-tv2, v2]])
    return IrreducibleRep(vplus=vp, v1_block=b1, v2_block=b2)
