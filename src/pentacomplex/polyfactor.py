"""Monic polynomials over the 5-complex ring: decomposition, roots, factors.

A monic polynomial splits into one real polynomial on the line part and one
complex polynomial per plane.  Ring roots are assembled by picking one root
from each component; any bijective pairing works, so a degree-m polynomial
with simple roots and real line roots has (m!)^2 distinct factorizations
into linear factors.  Complex-conjugate line-root pairs cannot be real ring
elements and are emitted as real quadratic factors instead.

The component polynomials are analytic's `ComponentPolynomials`, the one
canonical-coefficient kernel: decomposition transforms each coefficient
once, and expansion multiplies the three component polynomials by
convolution.  The component roots are the eigenvalues of each polynomial's
balanced companion matrix (`np.roots`), which is backward stable; one
backward-error gate checks every root.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import ONE, PentaComplex, _element, _result, inverse, multiply
from .analytic import ComponentPolynomials, PowerSeries, _component_polys, series_eval
# kept as a module global: perfbench's traced runs patch it here
from .analytic import coefficient_spectrum  # noqa: F401
from .canonical import _assemble
from .errors import (Degenerate, InvalidPairing, NoConvergence,
                     NonInvertible, NonInvertibleLeading)

# both tolerances are relative to the component's largest root modulus:
# line roots with |imag| at most TAU_REAL times that count as real, and two
# roots of one component closer than _TAU_SIMPLE times that coincide
TAU_REAL = 1e-8
_TAU_SIMPLE = 1e-6
# backward-error gate: each root z of a degree-m component polynomial p must
# meet |p(z)| <= GATE * m * eps * sum_j s_j |z|^(m-j), s_j the largest
# |coefficient j| over the three components; 2 * m * eps * sum_j s_j |z|^(m-j)
# bounds the rounding of Horner's rule itself
GATE = 64
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class PentaPolynomial:
    """Monic polynomial u^m + a1*u^(m-1) + ... + am (leading 1 implicit)."""

    coeffs: tuple[PentaComplex, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient (degree >= 1)")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def evaluate(self, u: PentaComplex) -> PentaComplex:
        """Ring Horner evaluation (analytic.series_eval)."""
        return series_eval(PowerSeries(self.coeffs[::-1] + (ONE,)), u)

    @classmethod
    def from_leading(cls, leading: PentaComplex,
                     coeffs: Sequence[PentaComplex]) -> "PentaPolynomial":
        """Normalize a non-monic polynomial by its leading coefficient."""
        try:
            inv = inverse(leading)
        except NonInvertible as exc:
            raise NonInvertibleLeading(
                "leading coefficient is a divisor of zero") from exc
        return cls(tuple(multiply(inv, a) for a in coeffs))

    @classmethod
    def from_scalar_roots(cls, roots: Sequence[float]) -> "PentaPolynomial":
        """Expand prod (u - r) for real scalar roots r.  The three component
        polynomials are the same real one, so one convolution chain gives
        them, and each coefficient is the scalar element it stands for."""
        poly = np.ones(1)
        for r in roots:
            poly = np.convolve(poly, (1.0, -PentaComplex.scalar(r).x0))
        return cls(tuple(_result(a, 0.0, 0.0, 0.0, 0.0) for a in poly[1:].tolist()))

    def to_dict(self) -> dict:
        return {"coeffs": [a.to_list() for a in self.coeffs]}

    @classmethod
    def from_dict(cls, data: dict) -> "PentaPolynomial":
        """The polynomial of `to_dict`'s data: `coeffs` an array of
        elements, else ValueError naming the coefficient."""
        coeffs = data.get("coeffs") if isinstance(data, dict) else None
        if not isinstance(coeffs, list):
            raise ValueError('polynomial payload must be {"coeffs": [[5 reals], ...]}')
        return cls(tuple(_element(a, f"coefficient {i}") for i, a in enumerate(coeffs)))


@dataclass(frozen=True)
class RootSet:
    """All roots of the three component polynomials, sorted by (re, im).

    Line roots come in complex-conjugate pairs; plane roots are arbitrary
    complex numbers (their real/imaginary parts are the two plane
    coordinates, so complex plane roots still assemble into real ring
    elements).
    """

    vplus_roots: tuple[complex, ...]
    plane1_roots: tuple[complex, ...]
    plane2_roots: tuple[complex, ...]


@dataclass(frozen=True)
class LinearFactor:
    """Factor (u - root)."""

    root: PentaComplex


@dataclass(frozen=True)
class QuadraticFactor:
    """Factor u^2 + b*u + c with real ring coefficients."""

    b: PentaComplex
    c: PentaComplex


Factor = LinearFactor | QuadraticFactor


def decompose(poly: PentaPolynomial) -> ComponentPolynomials:
    """Project each coefficient, after the implicit leading 1, onto the
    line and the two planes."""
    return _component_polys((ONE,) + poly.coeffs)


def _check_gate(p: np.ndarray, z: np.ndarray, scale: np.ndarray) -> None:
    """Raise NoConvergence unless every root z of p (descending coefficients)
    passes the backward-error gate.  Where |z| > 1 the reversed polynomial
    is evaluated at 1/z, so no power overflows; both sides are divided by
    the largest coefficient, so no sum overflows."""
    if not np.isfinite(z).all():
        raise NoConvergence("the companion matrix has a non-finite eigenvalue")
    top = scale.max()
    p, scale = p / top, scale / top
    outer = np.abs(z) > 1.0
    w = z.copy()
    w[outer] = 1.0 / z[outer]
    resid = np.where(outer, np.abs(np.polyval(p[::-1], w)), np.abs(np.polyval(p, w)))
    mag = np.where(outer, np.polyval(scale[::-1], np.abs(w)), np.polyval(scale, np.abs(w)))
    bound = GATE * (p.size - 1) * EPS * mag
    bad = np.flatnonzero(resid > bound)
    if bad.size:
        k = bad[0]
        raise NoConvergence(f"root {complex(z[k])} fails the backward-error gate: "
                            f"|p(z)| = {resid[k]:.3e} above {bound[k]:.3e}, "
                            f"relative to the largest coefficient")


def _sorted_roots(z: np.ndarray) -> tuple[complex, ...]:
    return tuple(sorted((complex(r) for r in z), key=lambda r: (r.real, r.imag)))


def component_roots(cp: ComponentPolynomials) -> RootSet:
    """Roots of all three component polynomials: the eigenvalues of each
    one's balanced companion matrix (`np.roots`).

    Every root passes the backward-error gate (see GATE) or NoConvergence
    is raised.  The line polynomial is real, so its companion matrix is real
    and complex line roots come in exact conjugate pairs.
    """
    polys = (np.array(cp.pplus, dtype=float), np.array(cp.p1, dtype=complex),
             np.array(cp.p2, dtype=complex))
    scale = np.abs(np.array(polys)).max(axis=0)
    roots = []
    for p in polys:
        try:
            z = np.roots(p).astype(complex)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"companion eigenvalues failed: {exc}") from exc
        _check_gate(p, z, scale)
        roots.append(_sorted_roots(z))
    return RootSet(*roots)


def _line_is_real(rs: RootSet) -> list[bool]:
    """The one classification of line roots: real where |imag| is at most
    TAU_REAL * max |line root|."""
    scale = max(abs(r) for r in rs.vplus_roots)
    return [abs(r.imag) <= TAU_REAL * scale for r in rs.vplus_roots]


def assemble_roots(rs: RootSet,
                   pairing: Sequence[tuple[int, int, int]]) -> list[PentaComplex]:
    """Ring roots from an explicit pairing.

    `pairing[p]` gives the indices (line, plane1, plane2) of the roots
    assigned to slot p; each component's indices must form a permutation.
    Every selected line root must be real: a complex line root has no real
    ring element and belongs in a quadratic factor (see `factor`).
    """
    m = len(rs.vplus_roots)
    if len(pairing) != m or len(rs.plane1_roots) != m or len(rs.plane2_roots) != m:
        raise InvalidPairing(f"pairing must assign all {m} slots")
    for pos, name, n in ((0, "line", m), (1, "plane1", m), (2, "plane2", m)):
        idx = sorted(tr[pos] for tr in pairing)
        if idx != list(range(n)):
            raise InvalidPairing(f"{name} indices are not a permutation of 0..{n - 1}")
    real = _line_is_real(rs)
    out = []
    for iv, i1, i2 in pairing:
        v = rs.vplus_roots[iv]
        if not real[iv]:
            raise InvalidPairing(
                f"line root {v} is complex; conjugate pairs form quadratic factors")
        # complex() keeps the components float for a RootSet of numpy scalars
        out.append(_assemble(complex(v).real, complex(rs.plane1_roots[i1]),
                             complex(rs.plane2_roots[i2])))
    return out


def _closest_modulus_pair(pool: list[complex]) -> tuple[int, int]:
    """Indices i < j of the two pool entries with the closest moduli.  In
    modulus order (stable, so ties keep index order) the closest pair is
    adjacent; among equal gaps the smallest (i, j) wins, as in a scan of
    all pairs."""
    mods = [abs(z) for z in pool]
    order = sorted(range(len(pool)), key=mods.__getitem__)
    _, i, j = min((abs(mods[a] - mods[b]), min(a, b), max(a, b))
                  for a, b in zip(order, order[1:]))
    return i, j


def factor(poly: PentaPolynomial) -> list[Factor]:
    """Deterministic default factorization.

    Component roots are sorted by (re, im) and paired index-wise.  Each
    complex line root in the upper half-plane and its exact conjugate become
    one quadratic factor; the two plane roots accompanying it are the
    closest-by-modulus unused pair in each plane.
    """
    rs = component_roots(decompose(poly))
    real = _line_is_real(rs)
    pending = [v for v, r in zip(rs.vplus_roots, real) if not r]
    if Counter(pending) != Counter(v.conjugate() for v in pending):
        raise NoConvergence("complex line roots are not in exact conjugate pairs")
    pool1 = list(rs.plane1_roots)
    pool2 = list(rs.plane2_roots)
    factors: list[Factor] = []
    for v, is_real in zip(rs.vplus_roots, real):
        if is_real:
            factors.append(LinearFactor(_assemble(v.real, pool1.pop(0), pool2.pop(0))))
            continue
        if v.imag < 0:
            continue    # its conjugate makes the quadratic factor
        i1, j1 = _closest_modulus_pair(pool1)
        z1a, z1b = pool1[i1], pool1[j1]
        del pool1[j1], pool1[i1]
        i2, j2 = _closest_modulus_pair(pool2)
        z2a, z2b = pool2[i2], pool2[j2]
        del pool2[j2], pool2[i2]
        # u^2 + b*u + c from the two conjugate line roots and the plane pairs
        bsum1 = -(z1a + z1b)
        bsum2 = -(z2a + z2b)
        cprod1 = z1a * z1b
        cprod2 = z2a * z2b
        factors.append(QuadraticFactor(b=_assemble(-2.0 * v.real, bsum1, bsum2),
                                       c=_assemble(abs(v) ** 2, cprod1, cprod2)))
    return factors


def expand_factors(factors: Sequence[Factor]) -> PentaPolynomial:
    """Expand a factor list back into a monic polynomial: the three
    component polynomials are multiplied by convolution, and each product
    coefficient is reassembled once."""
    prod = [np.ones(1), np.ones(1, dtype=complex), np.ones(1, dtype=complex)]
    for f in factors:
        if isinstance(f, LinearFactor):
            cp = _component_polys((ONE, -f.root))
        elif isinstance(f, QuadraticFactor):
            cp = _component_polys((ONE, f.b, f.c))
        else:
            raise TypeError(f"unknown factor type {type(f)!r}")
        prod = [np.convolve(p, q) for p, q in zip(prod, (cp.pplus, cp.p1, cp.p2))]
    return PentaPolynomial(tuple(_assemble(*w) for w in zip(*(p[1:].tolist() for p in prod))))


def count_factorizations(poly: PentaPolynomial) -> int:
    """Number of distinct unordered linear factorizations: (m!)^2.

    Defined only when every component root is simple and every line root is
    real; anything else raises Degenerate.
    """
    rs = component_roots(decompose(poly))
    m = poly.degree
    if m == 1:
        return 1
    for name, roots in (("line", rs.vplus_roots), ("plane1", rs.plane1_roots),
                        ("plane2", rs.plane2_roots)):
        scale = max(abs(r) for r in roots)
        for i in range(m):
            for j in range(i + 1, m):
                if abs(roots[i] - roots[j]) <= _TAU_SIMPLE * scale:
                    raise Degenerate(f"{name} roots {i} and {j} coincide")
    if not all(_line_is_real(rs)):
        raise Degenerate("complex line roots: linear factorization count undefined")
    return math.factorial(m) ** 2
