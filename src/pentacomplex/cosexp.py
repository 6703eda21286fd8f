"""Polar 5-dimensional cosexponential functions g_{5k}.

g_{5k}(y) collects every fifth term of the exponential series starting at
power k, so the five functions interleave exp and sum to e^y.  Three
independent evaluation routes are provided: the defining series, a closed
form summing exponentials around the unit circle's five fifth-roots, and a
closed form in the radicals a = (sqrt5-1)/2, b = -(5+sqrt5)/2.  The values
the package uses (`cosexp_values`, `exp_basis`) come from the series for
small |y|, where the closed forms cancel, and the first closed form beyond;
the other routes are the cross-checks.  One routine sums the ring series
of exp((h1 + s*h4) y), s in {0, 1, -1}, exactly in integers: s = 0 gives
the five g5k at once, and s = +-1 gives exp((h1 +- h4) y) for small |y|;
beyond, those come from the lift `elementary.exp`, the exponential of a
5-complex variable.  The module also expands powers of h1+h4 and h1-h4
into integer coefficient families, both by recurrence and by radical
closed forms evaluated exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .algebra import PentaComplex, _check_count, _check_index
from .canonical import SQRT5
from .elementary import exp
from .errors import DomainTooLarge, Overflow

#: roots of a^2 + a - 1 = 0 and b^2 + 5b + 5 = 0 used by the radical forms
RADICAL_A = (SQRT5 - 1.0) / 2.0
RADICAL_B = -(5.0 + SQRT5) / 2.0

# |y| guard for the series route (keeps term magnitudes well inside range)
SERIES_MAX_ABS_Y = 50.0
# cosexp_values and exp_basis sum the series up to this |y|, where the
# closed form's five O(1) terms cancel to g5k(y) ~ y^k/k! (still up to 37
# ulp off in g54 at |y| in [1.5, 2], against an exact rational series,
# where the series is rounded once)
SERIES_UP_TO = 2.0
# exp_h1_minus_h4 sums its ring series up to this |y|; beyond it the
# components pass through zero, and the lift is the more accurate route
# (normwise)
_MINUS_SERIES_UP_TO = 1.0


@dataclass(frozen=True)
class CosexpVector:
    """Values (g50(y), ..., g54(y)) at a common argument."""

    y: float
    g: tuple[float, float, float, float, float]


def _exp_series(y: float, s: int = 0, nterms: int = 60) -> tuple[float, ...]:
    """Components of exp((h1 + s*h4) * y), s in {0, 1, -1}, by the ring
    series, with at most nterms terms in each, each rounded once.

    The n-th term is y^n/n! times the integer coefficients of
    (h1 + s*h4)^n (h1 and h4 shift the index by +1 and -1 mod 5), so for
    s = 0 it lands in component n mod 5 alone.  The sums are exact, in
    integer units of at most 2^-123 of the smallest leading term
    |y|^lead/lead! (lead = 4 for s = 0, 2 otherwise), and stop at the first
    term below 2^-60 (about 1e-18) of it; the terms only shrink from
    there."""
    m, e = math.frexp(y)
    num, shift = int(m * 2.0 ** 53), 53 - e  # y = num / 2^shift
    lead = 2 if s else 4
    one = 1 << (128 + lead * max(0, 1 - e))
    floor = (one * abs(num) ** lead >> lead * shift) // (math.factorial(lead) << 60)
    sums = [one, 0, 0, 0, 0]
    t, c0, c1, c2, c3, c4 = one, 1, 0, 0, 0, 0
    for n in range(1, 5 * nterms if s == 0 else nterms):
        t = (t * num >> shift) // n
        if s == 0:
            sums[n % 5] += t
        else:
            c0, c1, c2, c3, c4 = c4 + s * c1, c0 + s * c2, c1 + s * c3, c2 + s * c4, c3 + s * c0
            sums = [sums[0] + c0 * t, sums[1] + c1 * t, sums[2] + c2 * t,
                    sums[3] + c3 * t, sums[4] + c4 * t]
        # no coefficient of (h1 +- h4)^n exceeds 2^n
        if abs(t) << (n if s else 0) <= floor:
            break
    return tuple(x / one for x in sums)


def _check_finite(y: float) -> None:
    """Raise DomainTooLarge, as g5_series's guard does, for a y that is not
    finite: every route here needs a finite argument."""
    if not math.isfinite(y):
        raise DomainTooLarge(f"y = {y} is not finite")


def g5_series(k: int, y: float, nterms: int = 60) -> float:
    """Partial sum of y^(k+5p)/(k+5p)! over p < nterms, rounded once;
    summation stops early once a term drops below 2^-60 of y^4/4! (see
    _exp_series, of which this is component k)."""
    k = _check_index("index", k, 0, 4)
    nterms = _check_count("nterms", nterms, 1)
    if not abs(y) <= SERIES_MAX_ABS_Y:
        raise DomainTooLarge(f"|y| = {abs(y)} exceeds the series guard {SERIES_MAX_ABS_Y}")
    return _exp_series(y, 0, nterms)[k]


def g5_closed(k: int, y: float) -> float:
    """Closed form: mean over the five fifth-circle directions of
    exp(y*cos(2*pi*l/5)) * cos(y*sin(2*pi*l/5) - 2*pi*k*l/5)."""
    k = _check_index("index", k, 0, 4)
    _check_finite(y)
    total = 0.0
    try:
        for l in range(5):
            ang = 2.0 * math.pi * l / 5.0
            total += math.exp(y * math.cos(ang)) * math.cos(y * math.sin(ang) - ang * k)
    except OverflowError:
        raise Overflow(f"g5{k}({y}) exceeds the floating-point range") from None
    return total / 5.0


# the radical closed form, stated at the half argument x = y/2: g5k(y) is
# (e^(2x) + e^(ax) (p c1 + q s1) + e^(-(1+a)x) (r c2 + t s2)) / 5 with
# c1, s1 = cos, sin(sqrt(-b) x) and c2, s2 = cos, sin(sqrt(5+b) x), and the
# row (p, q, r, t) below for k
_SB = math.sqrt(-RADICAL_B)
_S5B = math.sqrt(5.0 + RADICAL_B)
_HALF_P = (1.0 + SQRT5) / 2.0
_BIG = (5.0 + SQRT5) / (2.0 * _SB)
_SMALL = math.sqrt(5.0 / -RADICAL_B)
_RADICAL_ROWS = (
    (2.0, 0.0, 2.0, 0.0),
    (RADICAL_A, _BIG, -_HALF_P, _SMALL),
    (-_HALF_P, _SMALL, RADICAL_A, -_BIG),
    (-_HALF_P, -_SMALL, RADICAL_A, _BIG),
    (RADICAL_A, -_BIG, -_HALF_P, -_SMALL),
)


def g5_closed_radical(k: int, y: float) -> float:
    """Radical closed form of g_{5k}(y), in the radicals a and b."""
    k = _check_index("index", k, 0, 4)
    _check_finite(y)
    p, q, r, t = _RADICAL_ROWS[k]
    x = y / 2.0
    try:
        e2 = math.exp(2.0 * x) / 5.0
        ea = math.exp(RADICAL_A * x) / 5.0
        em = math.exp(-(1.0 + RADICAL_A) * x) / 5.0
    except OverflowError:
        raise Overflow(f"g5{k}({y}) exceeds the floating-point range") from None
    return (e2 + ea * (p * math.cos(_SB * x) + q * math.sin(_SB * x))
            + em * (r * math.cos(_S5B * x) + t * math.sin(_S5B * x)))


def _g5_values(y: float) -> tuple[float, float, float, float, float]:
    """(g50(y), ..., g54(y)): the series for |y| <= SERIES_UP_TO, rounded
    once in every component, and the closed form beyond (which refuses a y
    that is not finite)."""
    if abs(y) <= SERIES_UP_TO:
        return _exp_series(y)
    return tuple(g5_closed(k, y) for k in range(5))


def cosexp_values(y: float) -> CosexpVector:
    """All five cosexponential values at y: the series for |y| up to
    SERIES_UP_TO, where the closed form cancels, and the closed form beyond."""
    return CosexpVector(y=y, g=_g5_values(y))


def exp_basis(k: int, y: float) -> PentaComplex:
    """exp(h_k * y) for k = 1..4.

    Component h_{(k*m) mod 5} carries g_{5m}(y): the four expansions are the
    same five functions under the cyclic index permutation of h_k powers.
    """
    k = _check_index("basis index", k, 1, 4)
    comps = [0.0] * 5
    for m, g in enumerate(_g5_values(y)):
        comps[(k * m) % 5] = g
    return PentaComplex(*comps)


def _exp_along(y: float, s: int, up_to: float) -> PentaComplex:
    """exp((h1 + s*h4) * y), s = 1 or -1: the ring series (_exp_series) for
    |y| <= up_to, where the lift's O(1) terms cancel to components of size
    y^2, and the lift `elementary.exp` beyond."""
    if abs(y) <= up_to:
        return PentaComplex(*_exp_series(y, s))
    _check_finite(y)
    return exp(PentaComplex(0.0, y, 0.0, 0.0, s * y))


def exp_h1_plus_h4(y: float) -> PentaComplex:
    """exp((h1 + h4) * y), by the ring series for |y| <= SERIES_UP_TO."""
    return _exp_along(y, 1, SERIES_UP_TO)


def exp_h1_minus_h4(y: float) -> PentaComplex:
    """exp((h1 - h4) * y), by the ring series for |y| <= 1."""
    return _exp_along(y, -1, _MINUS_SERIES_UP_TO)


def cosexp_power(perm: int, y: float, l: int) -> PentaComplex:
    """l-th ring power of exp(h_perm * y).

    Powers only rescale the argument: the result is exp(h_perm * l * y), with
    l = 0 giving the ring unit.  A negative or non-finite l raises
    ValueError.
    """
    perm = _check_index("permutation index", perm, 1, 4)
    if not 0 <= l < math.inf:  # nan fails both comparisons
        raise ValueError(f"power must be finite and >= 0, got {l}")
    _check_finite(y)
    try:
        ly = l * y
    except OverflowError:  # an int l beyond the float range
        ly = math.inf
    if not math.isfinite(ly):
        raise Overflow(f"exp(h{perm} * {y}) to the power l exceeds the floating-point range")
    return exp_basis(perm, ly)


# ---------------------------------------------------------------------------
# integer coefficient families for powers of h1 +/- h4

class PowerKind(enum.Enum):
    A_PLUS = "powers of h1+h4"
    D_MINUS = "odd powers of h1-h4"
    F_MINUS = "even powers of h1-h4"


@dataclass(frozen=True)
class PowerCoefficients:
    """Coefficient sequences for one family, by recurrence and closed form.

    `recurrence` maps sequence name to values at subscripts 1..m;
    `closed_form` has None below the subscript where the closed form applies
    (A, B from 3; C from 4; D..H from 1).  Closed forms are evaluated exactly
    in the golden integers p + q*phi (integers p, q, phi = (1 + sqrt5)/2),
    in which every term lies after clearing the common denominator 5, so
    matching entries are equal as integers, not merely close.
    """

    kind: PowerKind
    m: int
    recurrence: dict[str, tuple[int, ...]]
    closed_form: dict[str, tuple[int | None, ...]]


@dataclass(slots=True)
class _Golden:
    """Exact p + q*phi with integers p, q, where phi = (1 + sqrt5)/2, so
    phi^2 = phi + 1.  Every closed form below is such a golden integer, or
    one divided by 5."""

    p: int
    q: int = 0

    def __add__(self, o):
        o = o if isinstance(o, _Golden) else _Golden(o)
        return _Golden(self.p + o.p, self.q + o.q)

    __radd__ = __add__

    def __neg__(self):
        return _Golden(-self.p, -self.q)

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        o = o if isinstance(o, _Golden) else _Golden(o)
        qq = self.q * o.q
        return _Golden(self.p * o.p + qq, self.p * o.q + self.q * o.p + qq)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = _Golden(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, n: int):
        """The golden integer self/n, for an integer n dividing both parts."""
        if self.p % n or self.q % n:
            raise ArithmeticError(f"not a golden integer: ({self.p} + {self.q}*phi)/{n}")
        return _Golden(self.p // n, self.q // n)

    def as_int(self) -> int:
        if self.q:
            raise ArithmeticError(f"not an integer: {self.p} + {self.q}*phi")
        return self.p


_A5 = _Golden(-1, 1)            # a = phi - 1 = (sqrt5 - 1)/2, so 1 + a = phi
_B5 = _Golden(-2, -1)           # b = -(phi + 2) = -(5 + sqrt5)/2
_INV_B2 = _Golden(1, -1)        # 1/(b + 2) = 1/(-phi) = 1 - phi


def _closed_abc(m: int) -> tuple[int | None, int | None, int | None]:
    a = _A5
    A = B = C = None
    if m >= 3:
        sgn = (-1) ** (m - 3)
        A = ((2 ** m + (2 - 3 * a) * a ** (m - 3)
              + sgn * (5 + 3 * a) * (1 + a) ** (m - 3)) / 5).as_int()
        B = ((2 ** m + (a - 1) * a ** (m - 3)
              - sgn * (a + 2) * (1 + a) ** (m - 3)) / 5).as_int()
    if m >= 4:
        sgn4 = (-1) ** (m - 4)
        C = ((2 ** m + (4 - 6 * a) * a ** (m - 4)
              + sgn4 * (10 + 6 * a) * (1 + a) ** (m - 4)) / 5).as_int()
    return A, B, C


def _closed_de(m: int) -> tuple[int, int]:
    b, inv = _B5, _INV_B2
    sgn = (-1) ** m  # (-1)^(m-2), an int at m = 1
    D = ((b + 1) * b ** (m - 1) + sgn * (b + 4) * (5 + b) ** (m - 1)).as_int()
    E = (-(b + 1) * inv * b ** (m - 1) + sgn * inv * (5 + b) ** (m - 1)).as_int()
    return D, E


def _closed_fgh(m: int) -> tuple[int, int, int]:
    b, inv = _B5, _INV_B2
    sgn = (-1) ** (m - 1)
    F = ((-inv * b ** m + sgn * (b + 1) * inv * (5 + b) ** m) / 5).as_int()
    G = (((4 * b + 5) * inv * b ** (m - 1) + sgn * inv * (5 + b) ** m) / 5).as_int()
    H = ((-(6 * b + 10) * inv * b ** (m - 1) + (-1) ** m * 2 * (5 + b) ** m) / 5).as_int()
    return F, G, H


# per family: the sequence names, their values at subscript 1, the step
# from subscript m to m+1, and the closed form at subscript m
_FAMILIES = {
    PowerKind.A_PLUS: ("ABC", (1, 0, 0), lambda a, b, c: (b + c, a + b, 2 * a), _closed_abc),
    PowerKind.D_MINUS: ("DE", (-3, -1), lambda d, e: (-3 * d - e, -d - 2 * e), _closed_de),
    PowerKind.F_MINUS: ("FGH", (0, 1, -2),
                        lambda f, g, h: (-f + g, f - 2 * g + h, 2 * (g - h)), _closed_fgh),
}


def power_coeffs(kind: PowerKind, m: int) -> PowerCoefficients:
    """Coefficient families up to subscript m, by recurrence and closed form.

    A_PLUS: (h1+h4)^m = A_m (h1+h4) + B_m (h2+h3) + C_m.
    D_MINUS: (h1-h4)^(2m+1) = D_m (h1-h4) + E_m (h2-h3).
    F_MINUS: (h1-h4)^(2m) = F_m (h1+h4) + G_m (h2+h3) + H_m.
    """
    m = _check_count("m", m, 1)
    if not isinstance(kind, PowerKind):
        raise ValueError(f"unknown kind {kind!r}")
    names, first, step, closed = _FAMILIES[kind]
    rows = [first]
    for _ in range(1, m):
        rows.append(step(*rows[-1]))
    closed_rows = [closed(mm) for mm in range(1, m + 1)]
    return PowerCoefficients(kind=kind, m=m,
                             recurrence=dict(zip(names, zip(*rows))),
                             closed_form=dict(zip(names, zip(*closed_rows))))
