"""Monic polynomials over the 5-complex ring: decomposition, roots, factors.

A monic polynomial splits into one real polynomial on the line part and one
complex polynomial per plane.  Ring roots are assembled by picking one root
from each component; any bijective pairing works, so a degree-m polynomial
with simple roots and real line roots has (m!)^2 distinct factorizations
into linear factors.  Complex-conjugate line-root pairs cannot be real ring
elements and are emitted as real quadratic factors instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .algebra import PentaComplex, _result, inverse, multiply
from .analytic import coefficient_spectrum
from .canonical import _from_canon_comps
from .errors import (Degenerate, InvalidPairing, NoConvergence,
                     NonInvertible, NonInvertibleLeading)

MAX_ITER = 200
# residual gate: |p(root)| <= RESIDUAL_REL * ||coefficient vector||
RESIDUAL_REL = 1e-10
# line roots with |imag| below this (times scale) count as real
TAU_REAL = 1e-8
# conjugate partners must match within this (times scale); loose enough to
# survive the O(sqrt(eps)) cluster splitting of repeated real roots
TAU_CONJ = 1e-7


@dataclass(frozen=True)
class PentaPolynomial:
    """Monic polynomial u^m + a1*u^(m-1) + ... + am (leading 1 implicit)."""

    coeffs: tuple[PentaComplex, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        if not coeffs:
            raise ValueError("a polynomial needs degree >= 1")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def evaluate(self, u: PentaComplex) -> PentaComplex:
        """Ring Horner evaluation."""
        acc = PentaComplex.scalar(1.0)
        for a in self.coeffs:
            acc = multiply(acc, u) + a
        return acc

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
        """Expand prod (u - r) for real scalar roots r."""
        poly = [PentaComplex.scalar(1.0)]
        for r in roots:
            poly = _poly_mul(poly, [PentaComplex.scalar(1.0), PentaComplex.scalar(-r)])
        return cls(tuple(poly[1:]))

    def to_dict(self) -> dict:
        return {"coeffs": [a.to_list() for a in self.coeffs]}

    @classmethod
    def from_dict(cls, data: dict) -> "PentaPolynomial":
        return cls(tuple(PentaComplex.from_list(a) for a in data["coeffs"]))


@dataclass(frozen=True)
class ComponentPolynomials:
    """Scalar component polynomials, coefficients descending and monic:
    a real one on the line and a complex one per plane."""

    pplus: tuple[float, ...]
    p1: tuple[complex, ...]
    p2: tuple[complex, ...]

    def evaluate(self, u: PentaComplex) -> PentaComplex:
        """Evaluate all three on the canonical components of u and reassemble."""
        from .canonical import _to_canon_comps

        vp, v1, tv1, v2, tv2 = _to_canon_comps(u.components)
        wp = _horner(self.pplus, vp)
        z1 = _horner(self.p1, complex(v1, tv1))
        z2 = _horner(self.p2, complex(v2, tv2))
        return PentaComplex(*_from_canon_comps((wp, z1.real, z1.imag,
                                                z2.real, z2.imag)))


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


Factor = Union[LinearFactor, QuadraticFactor]


def _horner(coeffs, x):
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


def decompose(poly: PentaPolynomial) -> ComponentPolynomials:
    """Project each coefficient onto the line and the two planes."""
    pplus = [1.0]
    p1 = [complex(1.0)]
    p2 = [complex(1.0)]
    for a in poly.coeffs:
        sp = coefficient_spectrum(a)
        pplus.append(sp.aplus)
        p1.append(complex(sp.a1, sp.at1))
        p2.append(complex(sp.a2, sp.at2))
    return ComponentPolynomials(pplus=tuple(pplus), p1=tuple(p1), p2=tuple(p2))


def _aberth(coeffs: np.ndarray, max_iter: int = MAX_ITER) -> np.ndarray:
    """Simultaneous root iteration for a monic polynomial (descending
    complex coefficients), Newton-polished."""
    coeffs = np.asarray(coeffs, dtype=complex)
    m = coeffs.size - 1
    norm = float(np.linalg.norm(coeffs))
    if m == 1:
        return np.array([-coeffs[1]])
    dcoeffs = coeffs[:-1] * np.arange(m, 0, -1)
    radius = 1.0 + float(np.abs(coeffs[1:]).max())
    angles = 2.0 * np.pi * np.arange(m) / m + 0.4
    z = radius * np.exp(1j * angles)
    converged = False
    for _ in range(max_iter):
        pz = np.polyval(coeffs, z)
        if np.abs(pz).max() <= 1e-13 * norm:
            converged = True
            break
        dpz = np.polyval(dcoeffs, z)
        dpz = np.where(dpz == 0, 1e-300, dpz)
        w = pz / dpz
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = (1.0 / diff).sum(axis=1)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        delta = w / denom
        z = z - delta
        if np.abs(delta).max() <= 1e-14 * (1.0 + np.abs(z).max()):
            converged = True
            break
    if not converged:
        raise NoConvergence(f"no convergence after {max_iter} iterations")
    for _ in range(2):
        pz = np.polyval(coeffs, z)
        dpz = np.polyval(dcoeffs, z)
        step = np.where(dpz == 0, 0.0, pz / np.where(dpz == 0, 1.0, dpz))
        z = z - step
    resid = float(np.abs(np.polyval(coeffs, z)).max())
    if resid > RESIDUAL_REL * norm:
        raise NoConvergence(f"residual {resid:.3e} above {RESIDUAL_REL * norm:.3e}")
    return z


def _sorted_roots(z: np.ndarray) -> tuple[complex, ...]:
    return tuple(sorted((complex(r) for r in z), key=lambda r: (r.real, r.imag)))


def _check_conjugate_pairs(roots: Sequence[complex]) -> None:
    scale = 1.0 + max(abs(r) for r in roots)
    pending = [r for r in roots if abs(r.imag) > TAU_CONJ * scale]
    while pending:
        r = pending.pop()
        match = min(pending, key=lambda s: abs(s - r.conjugate()), default=None)
        if match is None or abs(match - r.conjugate()) > TAU_CONJ * scale:
            raise NoConvergence(
                f"line root {r} lacks a conjugate partner within tolerance")
        pending.remove(match)


def component_roots(cp: ComponentPolynomials, max_iter: int = MAX_ITER) -> RootSet:
    """Roots of all three component polynomials.

    Residuals are gated at 1e-10 of the coefficient norm; line roots are
    verified to pair up with their conjugates.
    """
    vroots = _sorted_roots(_aberth(np.array(cp.pplus), max_iter))
    r1 = _sorted_roots(_aberth(np.array(cp.p1), max_iter))
    r2 = _sorted_roots(_aberth(np.array(cp.p2), max_iter))
    _check_conjugate_pairs(vroots)
    return RootSet(vplus_roots=vroots, plane1_roots=r1, plane2_roots=r2)


def _assemble(vroot: complex, z1: complex, z2: complex) -> PentaComplex:
    return _result(*_from_canon_comps((vroot.real, z1.real, z1.imag, z2.real, z2.imag)))


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
    scale = 1.0 + max(abs(r) for r in rs.vplus_roots)
    out = []
    for iv, i1, i2 in pairing:
        v = rs.vplus_roots[iv]
        if abs(v.imag) > TAU_REAL * scale:
            raise InvalidPairing(
                f"line root {v} is complex; conjugate pairs form quadratic factors")
        # complex() keeps the components float for a RootSet of numpy scalars
        out.append(_assemble(complex(v), complex(rs.plane1_roots[i1]),
                             complex(rs.plane2_roots[i2])))
    return out


def _closest_modulus_pair(pool: list[complex]) -> tuple[int, int]:
    # indices of the two pool entries with the closest moduli
    best = None
    best_val = math.inf
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            gap = abs(abs(pool[i]) - abs(pool[j]))
            if gap < best_val:
                best_val = gap
                best = (i, j)
    return best


def factor(poly: PentaPolynomial, max_iter: int = MAX_ITER) -> list[Factor]:
    """Deterministic default factorization.

    Component roots are sorted by (re, im) and paired index-wise.  A
    complex-conjugate pair of line roots becomes one quadratic factor; the
    two plane roots accompanying it are the closest-by-modulus unused pair
    in each plane.
    """
    rs = component_roots(decompose(poly), max_iter)
    m = poly.degree
    scale = 1.0 + max(abs(r) for r in rs.vplus_roots)
    pool1 = list(rs.plane1_roots)
    pool2 = list(rs.plane2_roots)
    factors: list[Factor] = []
    skip = False
    for i, v in enumerate(rs.vplus_roots):
        if skip:
            skip = False
            continue
        if abs(v.imag) <= TAU_REAL * scale:
            factors.append(LinearFactor(_assemble(v, pool1.pop(0), pool2.pop(0))))
            continue
        # conjugate partner is adjacent after the (re, im) sort
        if i + 1 >= m or abs(rs.vplus_roots[i + 1] - v.conjugate()) > TAU_REAL * scale:
            raise NoConvergence(f"line root {v} lacks an adjacent conjugate partner")
        skip = True
        vpair = complex(0.5 * (v.real + rs.vplus_roots[i + 1].real),
                        abs(0.5 * (v.imag - rs.vplus_roots[i + 1].imag)))
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
        b = _result(*_from_canon_comps((-2.0 * vpair.real, bsum1.real, bsum1.imag,
                                        bsum2.real, bsum2.imag)))
        c = _result(*_from_canon_comps((abs(vpair) ** 2, cprod1.real, cprod1.imag,
                                        cprod2.real, cprod2.imag)))
        factors.append(QuadraticFactor(b=b, c=c))
    return factors


def _poly_mul(p: list[PentaComplex], q: list[PentaComplex]) -> list[PentaComplex]:
    out = [PentaComplex() for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + multiply(a, b)
    return out


def expand_factors(factors: Sequence[Factor]) -> PentaPolynomial:
    """Ring-expand a factor list back into a monic polynomial."""
    poly = [PentaComplex.scalar(1.0)]
    for f in factors:
        if isinstance(f, LinearFactor):
            poly = _poly_mul(poly, [PentaComplex.scalar(1.0), -f.root])
        elif isinstance(f, QuadraticFactor):
            poly = _poly_mul(poly, [PentaComplex.scalar(1.0), f.b, f.c])
        else:
            raise TypeError(f"unknown factor type {type(f)!r}")
    return PentaPolynomial(tuple(poly[1:]))


def count_factorizations(poly: PentaPolynomial, max_iter: int = MAX_ITER) -> int:
    """Number of distinct unordered linear factorizations: (m!)^2.

    Defined only when every component root is simple and every line root is
    real; anything else raises Degenerate.
    """
    rs = component_roots(decompose(poly), max_iter)
    m = poly.degree
    if m == 1:
        return 1
    for name, roots in (("line", rs.vplus_roots), ("plane1", rs.plane1_roots),
                        ("plane2", rs.plane2_roots)):
        scale = 1.0 + max(abs(r) for r in roots)
        for i in range(m):
            for j in range(i + 1, m):
                if abs(roots[i] - roots[j]) <= 1e-6 * scale:
                    raise Degenerate(f"{name} roots {i} and {j} coincide")
    scale = 1.0 + max(abs(r) for r in rs.vplus_roots)
    if any(abs(r.imag) > TAU_REAL * scale for r in rs.vplus_roots):
        raise Degenerate("complex line roots: linear factorization count undefined")
    return math.factorial(m) ** 2
