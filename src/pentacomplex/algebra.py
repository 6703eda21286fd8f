"""Ring arithmetic for commutative 5-dimensional complex numbers.

An element is u = x0 + h1*x1 + h2*x2 + h3*x3 + h4*x4 with real components
and cyclic basis rule h_j * h_k = h_{(j+k) mod 5} (h0 = 1).  Multiplication
is the convolution of the component vectors modulo 5, so every element is
also a 5x5 circulant matrix acting on the components.
"""

from __future__ import annotations

import math
from functools import partial
from numbers import Real
from operator import truediv
from typing import Iterable, Sequence

import numpy as np

from .errors import NonInvertible, NotCirculant, Overflow

DIM = 5

# from_matrix accepts matrices this far (absolute) from exactly circulant
TAU_CIRC = 1e-12


class PentaComplex:
    """Immutable 5-component hypercomplex number.

    Components are validated to be finite at construction; NaN/infinity never
    enter the ring.  All arithmetic returns new instances, and a result
    beyond the floating-point range raises Overflow.  The components are
    stored as one tuple of floats.
    """

    __slots__ = ("components",)

    def __init__(self, x0=0.0, x1=0.0, x2=0.0, x3=0.0, x4=0.0):
        x0 = float(x0)
        x1 = float(x1)
        x2 = float(x2)
        x3 = float(x3)
        x4 = float(x4)
        # x*0.0 is 0.0 for finite x and NaN for NaN/inf: one test for all five
        if x0 * 0.0 + x1 * 0.0 + x2 * 0.0 + x3 * 0.0 + x4 * 0.0 != 0.0:
            for k, val in enumerate((x0, x1, x2, x3, x4)):
                if not math.isfinite(val):
                    raise ValueError(f"component x{k} is not finite: {val!r}")
        _set_components(self, (x0, x1, x2, x3, x4))

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
        if not 0 <= k < DIM:
            raise ValueError(f"basis index must be 0..4, got {k}")
        comps = [0.0] * DIM
        comps[k] = 1.0
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
        return self * (1.0 / other)

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


# the slot's setter, which bypasses the immutability guard
_set_components = PentaComplex.__dict__["components"].__set__
_new = object.__new__


def _result(*comps: float) -> PentaComplex:
    """The one trusted constructor: an element from computed float
    components, stored as they are; a non-finite one (a result beyond the
    floating-point range, or a non-finite scalar operand) is Overflow."""
    x0, x1, x2, x3, x4 = comps
    if x0 * 0.0 + x1 * 0.0 + x2 * 0.0 + x3 * 0.0 + x4 * 0.0 != 0.0:
        raise Overflow("result exceeds the floating-point range")
    u = _new(PentaComplex)
    _set_components(u, comps)
    return u


def _scalar(x: Real) -> float:
    """A real scalar operand as float; an int beyond the float range is
    Overflow."""
    try:
        return float(x)
    except OverflowError as exc:
        raise Overflow("scalar operand exceeds the floating-point range") from exc


ZERO = PentaComplex()
ONE = PentaComplex(1.0)
H1 = PentaComplex.basis(1)
H2 = PentaComplex.basis(2)
H3 = PentaComplex.basis(3)
H4 = PentaComplex.basis(4)


def basis_product(j: int, k: int) -> int:
    """Index of h_j * h_k: the cyclic rule h_j h_k = h_{(j+k) mod 5}."""
    if not (0 <= j < DIM and 0 <= k < DIM):
        raise ValueError(f"basis indices must be 0..4, got ({j}, {k})")
    return (j + k) % DIM


def add(u: PentaComplex, v: PentaComplex) -> PentaComplex:
    """Componentwise sum."""
    return u + v


def multiply(u: PentaComplex, v: PentaComplex) -> PentaComplex:
    """Ring product: convolution of the component vectors modulo 5.

    Terms are grouped into swap-symmetric pairs so that multiply(u, v) and
    multiply(v, u) are bit-identical, not merely equal to rounding.  A
    product outside the floating-point range raises Overflow.
    """
    a0, a1, a2, a3, a4 = u.components
    b0, b1, b2, b3, b4 = v.components
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
    c = u.components
    return np.array([[c[(col - row) % DIM] for col in range(DIM)] for row in range(DIM)])


def from_matrix(m: np.ndarray, tol: float = TAU_CIRC) -> PentaComplex:
    """Read a circulant matrix back into its first row.

    Raises NotCirculant if any row deviates from the cyclically shifted first
    row by more than `tol` (absolute).
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (DIM, DIM):
        raise ValueError(f"expected a 5x5 matrix, got shape {m.shape}")
    first = m[0]
    for row in range(1, DIM):
        expected = np.array([first[(col - row) % DIM] for col in range(DIM)])
        dev = np.abs(m[row] - expected).max()
        if dev > tol:
            raise NotCirculant(f"row {row} deviates from shifted first row by {dev:.3e}")
    return PentaComplex.from_components(first)


# 1/x on the line and 1/z on each plane
_recip = partial(truediv, 1.0)


def inverse(u: PentaComplex, tol: float | None = None) -> PentaComplex:
    """Multiplicative inverse via the canonical decomposition.

    The inverse exists iff no canonical part is annihilated: the line
    component vplus and both plane radii must be nonzero.  At or below
    `tol` (default canonical.TAU_REL * |u|) the element is declared a
    divisor of zero.
    """
    return canonical._lift(u, _recip, _recip, NonInvertible, tol)


# canonical builds its constants from PentaComplex, so it is imported last
from . import canonical  # noqa: E402
