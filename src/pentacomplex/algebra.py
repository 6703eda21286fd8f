"""Ring arithmetic for commutative 5-dimensional complex numbers.

An element is u = x0 + h1*x1 + h2*x2 + h3*x3 + h4*x4 with real components
and cyclic basis rule h_j * h_k = h_{(j+k) mod 5} (h0 = 1).  Multiplication
is the convolution of the component vectors modulo 5, so every element is
also a 5x5 circulant matrix acting on the components.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from functools import partial
from numbers import Real
from operator import truediv

from .errors import EvaluationFailed, NonInvertible, NotCirculant, Overflow

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

DIM = 5

# from_matrix accepts matrices this far from exactly circulant, relative to
# their largest entry
TAU_CIRC = 1e-12


class PentaComplex:
    """Immutable 5-component hypercomplex number.

    Components are validated to be finite at construction; NaN/infinity never
    enter the ring.  All arithmetic returns new instances, and a result
    beyond the floating-point range raises Overflow.  The components are
    stored as one tuple of floats; `_canon` holds their canonical
    coordinates once canonical._canon has transformed them (None before).
    """

    __slots__ = ("components", "_canon")

    def __init__(self, x0=0.0, x1=0.0, x2=0.0, x3=0.0, x4=0.0):
        try:
            x0 = float(x0)
            x1 = float(x1)
            x2 = float(x2)
            x3 = float(x3)
            x4 = float(x4)
        except (OverflowError, TypeError, ValueError):  # 10**400, None, [1], 1j, "x"
            # the components before it are floats by now, so it fails again
            for k, val in enumerate((x0, x1, x2, x3, x4)):
                _scalar(val, f"component x{k}")
        # x*0.0 is 0.0 for finite x and NaN for NaN/inf: one test for all five
        if x0 * 0.0 + x1 * 0.0 + x2 * 0.0 + x3 * 0.0 + x4 * 0.0 != 0.0:
            for k, val in enumerate((x0, x1, x2, x3, x4)):
                if not math.isfinite(val):
                    raise ValueError(f"component x{k} is not finite: {val!r}")
        _set_components(self, (x0, x1, x2, x3, x4))
        _set_canon(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("PentaComplex is immutable")

    def __delattr__(self, name):
        raise AttributeError("PentaComplex is immutable")

    def __reduce__(self):
        return (PentaComplex, self.components)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_components(cls, comps: Iterable[float]) -> "PentaComplex":
        comps = tuple(comps)
        if len(comps) != DIM:
            raise ValueError(f"expected {DIM} components, got {len(comps)}")
        return cls(*comps)

    @classmethod
    def basis(cls, k: int) -> "PentaComplex":
        """Basis element h_k (h_0 is the ring unit)."""
        comps = [0.0] * DIM
        comps[_check_index("basis index", k, 0, DIM - 1)] = 1.0
        return cls(*comps)

    @classmethod
    def scalar(cls, value: float) -> "PentaComplex":
        return cls(value, 0.0, 0.0, 0.0, 0.0)

    # -- accessors ---------------------------------------------------------

    x0 = property(lambda self: self.components[0], doc="Coefficient of 1.")
    x1 = property(lambda self: self.components[1], doc="Coefficient of h1.")
    x2 = property(lambda self: self.components[2], doc="Coefficient of h2.")
    x3 = property(lambda self: self.components[3], doc="Coefficient of h3.")
    x4 = property(lambda self: self.components[4], doc="Coefficient of h4.")

    def __getitem__(self, k: int) -> float:
        return self.components[k]

    def __iter__(self):
        return iter(self.components)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        x0, x1, x2, x3, x4 = self.components
        if isinstance(other, PentaComplex):
            y0, y1, y2, y3, y4 = other.components
            return _result(x0 + y0, x1 + y1, x2 + y2, x3 + y3, x4 + y4)
        if type(other) is not float:
            if not isinstance(other, Real):
                return NotImplemented
            other = _scalar(other)
        return _result(x0 + other, x1, x2, x3, x4)

    __radd__ = __add__

    def __sub__(self, other):
        x0, x1, x2, x3, x4 = self.components
        if isinstance(other, PentaComplex):
            y0, y1, y2, y3, y4 = other.components
            return _result(x0 - y0, x1 - y1, x2 - y2, x3 - y3, x4 - y4)
        if type(other) is not float:
            if not isinstance(other, Real):
                return NotImplemented
            other = _scalar(other)
        return _result(x0 - other, x1, x2, x3, x4)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        x0, x1, x2, x3, x4 = self.components
        return _result(-x0, -x1, -x2, -x3, -x4)

    def __mul__(self, other):
        if type(other) is not float:
            if isinstance(other, PentaComplex):
                return multiply(self, other)
            if not isinstance(other, Real):
                return NotImplemented
            other = _scalar(other)
        x0, x1, x2, x3, x4 = self.components
        return _result(x0 * other, x1 * other, x2 * other, x3 * other, x4 * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PentaComplex):
            return multiply(self, inverse(other))
        if type(other) is not float:
            if not isinstance(other, Real):
                return NotImplemented
            other = _scalar(other)
        try:
            other = 1.0 / other
        except ZeroDivisionError:
            raise NonInvertible("division by a zero scalar, a divisor of zero") from None
        return self * other

    def __rtruediv__(self, other):
        if not isinstance(other, Real):
            return NotImplemented
        return inverse(self) * other

    def __abs__(self) -> float:
        # hypot scales internally, so no square under- or overflows
        return math.hypot(*self.components)

    def __eq__(self, other):
        if isinstance(other, PentaComplex):
            return self.components == other.components
        return NotImplemented

    def __hash__(self):
        return hash(self.components)

    # -- presentation ------------------------------------------------------

    def __repr__(self):
        return "PentaComplex({!r}, {!r}, {!r}, {!r}, {!r})".format(*self.components)

    def __str__(self):
        parts = [format(self.x0, ".17g")]
        for k, x in enumerate(self.components[1:], start=1):
            parts.append(f"{format(x, '.17g')} h{k}")
        return " + ".join(parts)

    # -- serialization -----------------------------------------------------

    def to_list(self) -> list[float]:
        return list(self.components)

    @classmethod
    def from_list(cls, data: Sequence[float]) -> "PentaComplex":
        return cls.from_components(data)


# the slots' setters, which bypass the immutability guard
_set_components = PentaComplex.__dict__["components"].__set__
_set_canon = PentaComplex.__dict__["_canon"].__set__
_new = object.__new__


def _result(*comps: float) -> PentaComplex:
    """The one trusted constructor: an element from computed float
    components, stored as they are; a non-finite one (a result beyond the
    floating-point range, or a non-finite scalar operand) is Overflow."""
    x0, x1, x2, x3, x4 = comps
    # a finite sum times 0.0 is 0.0; NaN (truthy) means a non-finite
    # component or a finite sum beyond the float range, which the
    # per-component test tells apart
    if ((x0 + x1 + x2 + x3 + x4) * 0.0
            and x0 * 0.0 + x1 * 0.0 + x2 * 0.0 + x3 * 0.0 + x4 * 0.0 != 0.0):
        raise Overflow("result exceeds the floating-point range")
    u = _new(PentaComplex)
    _set_components(u, comps)
    _set_canon(u, None)
    return u


Evaluator = Callable[[PentaComplex], PentaComplex]


def _call(f: Evaluator, u: PentaComplex) -> PentaComplex:
    """f(u); an evaluator that raises, or returns anything but a
    PentaComplex, raises EvaluationFailed."""
    try:
        value = f(u)
    except Exception as exc:
        raise EvaluationFailed(f"evaluator raised at {u!r}: {exc}") from exc
    if not isinstance(value, PentaComplex):
        raise EvaluationFailed(f"evaluator returned {type(value).__name__}, "
                               f"not PentaComplex, at {u!r}")
    return value


def _scalar(x: Real, what: str = "scalar operand") -> float:
    """A real scalar operand as float; an int beyond the float range is
    Overflow, and what float() refuses is a ValueError."""
    try:
        return float(x)
    except OverflowError as exc:
        raise Overflow(f"{what} exceeds the floating-point range") from exc
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a real number, got {x!r}") from None


def _number(x, what: str) -> float:
    """A JSON number as a finite float; anything else raises ValueError
    naming `what`."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ValueError(f"{what} must be a number, got {x!r}")
    try:
        x = float(x)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{what} is beyond the floating-point range") from None
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x!r}")
    return x


def _element(data, what: str) -> PentaComplex:
    """A JSON array of five numbers as an element; anything else raises
    ValueError naming `what` and, for a bad number, its component."""
    if not isinstance(data, list) or len(data) != DIM:
        raise ValueError(f"{what} must be a JSON array of 5 numbers, got {data!r}")
    return PentaComplex(*(_number(x, f"{what} component {i}") for i, x in enumerate(data)))


def _check_tol(tol: float) -> float:
    """The one rule for a tolerance given explicitly: >= 0, returned as
    given.  A nan or negative cutoff would silently switch its test off, so
    it raises ValueError."""
    if not tol >= 0.0:
        raise ValueError(f"tol must be None or >= 0, got {tol}")
    return tol


def _whole(n) -> bool:
    """Whether n is a whole number: an int, or a real (an integral float, a
    numpy integer) whose value is integral."""
    return isinstance(n, int) or isinstance(n, Real) and float(n).is_integer()


def _check_count(name: str, n, least: int) -> int:
    """The one rule for a count: a whole number >= least, returned as an int
    (an integral float acts as the int); anything else raises ValueError."""
    if not _whole(n):
        raise ValueError(f"{name} must be a whole number, got {n!r}")
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    return int(n)


def _check_index(name: str, k, lo: int, hi: int) -> int:
    """The one rule for an index: a whole number in lo..hi, returned as an
    int (an integral float acts as the int); anything else raises
    ValueError."""
    if type(k) is int and lo <= k <= hi:  # the common case, decided first
        return k
    if not (_whole(k) and lo <= k <= hi):
        span = f"{lo} or {hi}" if hi == lo + 1 else f"{lo}..{hi}"
        raise ValueError(f"{name} must be {span}, got {k!r}")
    return int(k)


ZERO = PentaComplex()
ONE = PentaComplex(1.0)
H1 = PentaComplex.basis(1)
H2 = PentaComplex.basis(2)
H3 = PentaComplex.basis(3)
H4 = PentaComplex.basis(4)


def basis_product(j: int, k: int) -> int:
    """Index of h_j * h_k: the cyclic rule h_j h_k = h_{(j+k) mod 5}."""
    return (_check_index("basis index", j, 0, DIM - 1)
            + _check_index("basis index", k, 0, DIM - 1)) % DIM


def add(u: PentaComplex, v: PentaComplex) -> PentaComplex:
    """Componentwise sum."""
    return u + v


def multiply(u: PentaComplex, v: PentaComplex) -> PentaComplex:
    """Ring product: convolution of the component vectors modulo 5.

    Terms are grouped into swap-symmetric pairs so that multiply(u, v) and
    multiply(v, u) are bit-identical, not merely equal to rounding.  A
    product outside the floating-point range raises Overflow.  A batch of
    elements (contour's nodes) holds no components and takes the product
    itself, with a batch or an element.
    """
    try:
        a0, a1, a2, a3, a4 = u.components
        b0, b1, b2, b3, b4 = v.components
    except AttributeError:
        if hasattr(u, "product"):
            return u.product(v)
        if hasattr(v, "product"):
            return v.product(u)
        raise
    return _result(
        a0 * b0 + (a1 * b4 + a4 * b1) + (a2 * b3 + a3 * b2),
        (a0 * b1 + a1 * b0) + (a2 * b4 + a4 * b2) + a3 * b3,
        (a0 * b2 + a2 * b0) + a1 * b1 + (a3 * b4 + a4 * b3),
        (a0 * b3 + a3 * b0) + (a1 * b2 + a2 * b1) + a4 * b4,
        (a0 * b4 + a4 * b0) + (a1 * b3 + a3 * b1) + a2 * b2,
    )


def to_matrix(u: PentaComplex) -> np.ndarray:
    """Circulant 5x5 matrix of u: entry (r, c) is x_{(c-r) mod 5}.

    Matrix multiplication of two such matrices represents the ring product.
    """
    import numpy as np

    c = u.components
    return np.array([[c[(col - row) % DIM] for col in range(DIM)] for row in range(DIM)])


def from_matrix(m: np.ndarray, tol: float | None = None) -> PentaComplex:
    """Read a circulant matrix back into its first row.

    Raises NotCirculant if any row deviates from the cyclically shifted first
    row by more than `tol` (absolute; default TAU_CIRC times the largest
    absolute entry).  A nan or negative tol raises ValueError.
    """
    import numpy as np

    m = np.asarray(m, dtype=float)
    if m.shape != (DIM, DIM):
        raise ValueError(f"expected a 5x5 matrix, got shape {m.shape}")
    tol = TAU_CIRC * np.abs(m).max() if tol is None else _check_tol(tol)
    first = m[0]
    for row in range(1, DIM):
        expected = np.array([first[(col - row) % DIM] for col in range(DIM)])
        dev = np.abs(m[row] - expected).max()
        if dev > tol:
            raise NotCirculant(f"row {row} deviates from shifted first row by {dev:.3e}")
    return PentaComplex.from_components(first)


# 1/x on the line
_recip = partial(truediv, 1.0)


def _recip_plane(z: complex) -> complex:
    """1/z on a plane.  1/z is 0 only where its denominator overflowed (a
    radius near the float ceiling); halving z first is exact and keeps it
    finite there."""
    w = 1.0 / z
    return w if w else 0.5 / (0.5 * z)


def inverse(u: PentaComplex, tol: float | None = None) -> PentaComplex:
    """Multiplicative inverse via the canonical decomposition.

    The inverse exists iff no canonical part is annihilated: the line
    component vplus and both plane radii must be nonzero.  At or below
    `tol` (default canonical.TAU_REL * |u|; nan or negative raises
    ValueError) the element is declared a divisor of zero.
    """
    return canonical._lift(u, _recip, _recip_plane, NonInvertible, tol)


# canonical builds its constants from PentaComplex, so it is imported last
from . import canonical  # noqa: E402
