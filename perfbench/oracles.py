"""Independent checks for the benchmark, written without the package.

The ring is diagonalised by the length-5 DFT: with F = numpy.fft.fft(x),
vplus = F[0], v1 + i*tv1 = F[4] and v2 + i*tv2 = F[3].  Every function of
an element therefore acts on the three eigenvalues, and a product is a
dense circulant matrix times a vector.  Checks scale their inputs by a
power of two first, so nothing here overflows or underflows at 1e+-300.

Each check returns a relative error; `Oracles` counts how often each check
ran so the self-check can assert that every one of them was used.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

TWO_PI = 2.0 * math.pi
# a result further than this (relative) from its check is a failure
REL_TOL = 1e-6
# err_digits is capped here (log10 of the relative error floored at 1e-17)
ERR_FLOOR = 1e-17


def circulant(x) -> np.ndarray:
    """Dense matrix M with (M @ y) equal to the ring product x*y."""
    x = np.asarray(x, dtype=float)
    idx = (np.arange(5)[:, None] - np.arange(5)[None, :]) % 5
    return x[idx]


def prescale(x) -> tuple[np.ndarray, int]:
    """(x / 2**e, e) with the largest magnitude of x / 2**e in [0.5, 1)."""
    x = np.asarray(x, dtype=float)
    top = float(np.max(np.abs(x)))
    e = math.frexp(top)[1] if top > 0.0 else 0
    return np.ldexp(x, -e), e


def blocks(x) -> tuple[float, complex, complex]:
    """Eigenvalues (vplus, v1 + i*tv1, v2 + i*tv2) of a component vector."""
    f = np.fft.fft(np.asarray(x, dtype=float))
    return float(f[0].real), complex(f[4]), complex(f[3])


def from_blocks(vp: float, z1: complex, z2: complex) -> np.ndarray:
    """Component vector with the given eigenvalues."""
    f = np.array([vp, np.conj(z1), np.conj(z2), z2, z1], dtype=complex)
    return np.fft.ifft(f).real


def rel_err(got, want) -> float:
    """max|got - want| / max|want|, computed on vectors scaled by 2**-e."""
    want_s, e = prescale(want)
    got_s = np.ldexp(np.asarray(got, dtype=float), -e)
    if not np.all(np.isfinite(got_s)):
        return math.inf
    top = float(np.max(np.abs(want_s)))
    return float(np.max(np.abs(got_s - want_s))) / (top if top > 0.0 else 1.0)


def angle_err(got: float, want: float) -> float:
    """Angle difference on the circle, as a share of pi."""
    d = abs(got - want) % TWO_PI
    return min(d, TWO_PI - d) / math.pi


class Oracles:
    """The benchmark's checks, with a count of how often each one ran."""

    def __init__(self):
        self.runs = Counter()

    # -- elementwise -------------------------------------------------------

    def product(self, got, x, y) -> float:
        """Ring product by a dense circulant matrix."""
        self.runs["product"] += 1
        xs, e = prescale(x)
        return rel_err(np.ldexp(np.asarray(got, dtype=float), -e), circulant(xs) @ np.asarray(y))

    def canonical(self, got, x) -> float:
        """Canonical variables (vplus, v1, tv1, v2, tv2) from the DFT."""
        self.runs["canonical"] += 1
        xs, e = prescale(x)
        vp, z1, z2 = blocks(xs)
        want = np.array([vp, z1.real, z1.imag, z2.real, z2.imag])
        return rel_err(np.ldexp(np.asarray(got, dtype=float), -e), want)

    def rotated(self, got, x) -> float:
        """Orthonormal coordinates: canonical variables over sqrt(5), sqrt(5/2)."""
        self.runs["rotated"] += 1
        xs, e = prescale(x)
        vp, z1, z2 = blocks(xs)
        s1 = math.sqrt(5.0)
        s2 = math.sqrt(2.5)
        want = np.array([vp / s1, z1.real / s2, z1.imag / s2, z2.real / s2, z2.imag / s2])
        return rel_err(np.ldexp(np.asarray(got, dtype=float), -e), want)

    def inverse_round_trip(self, got_inv, x) -> float:
        """u * u^-1 = 1, with u scaled to unit size and u^-1 scaled back."""
        self.runs["inverse_round_trip"] += 1
        xs, e = prescale(x)
        inv = np.ldexp(np.asarray(got_inv, dtype=float), e)
        if not np.all(np.isfinite(inv)):
            return math.inf
        one = circulant(xs) @ inv
        return float(np.max(np.abs(one - np.array([1.0, 0.0, 0.0, 0.0, 0.0]))))

    def log(self, got, x) -> float:
        """Principal logarithm: log|.| + i*arg in [0, 2*pi) on each block."""
        self.runs["log"] += 1
        xs, e = prescale(x)
        vp, z1, z2 = blocks(xs)
        shift = e * math.log(2.0)
        want = from_blocks(math.log(vp) + shift,
                           complex(math.log(abs(z1)) + shift, math.atan2(z1.imag, z1.real) % TWO_PI),
                           complex(math.log(abs(z2)) + shift, math.atan2(z2.imag, z2.real) % TWO_PI))
        return rel_err(got, want)

    def exp_log_round_trip(self, got_exp, x) -> float:
        """exp(log u) = u, compared after scaling both sides by 2**-e."""
        self.runs["exp_log_round_trip"] += 1
        return rel_err(got_exp, x)

    def sqrt_round_trip(self, got_root, x) -> float:
        """pow_real(u, 0.5)**2 = u, squaring the root scaled by 2**-(e/2)."""
        self.runs["sqrt_round_trip"] += 1
        xs, e = prescale(x)
        half = e // 2
        r = np.ldexp(np.asarray(got_root, dtype=float), -half)
        if not np.all(np.isfinite(r)):
            return math.inf
        square = np.ldexp(circulant(r) @ r, 2 * half - e)
        return rel_err(square, xs)

    def blockwise(self, name: str, got, x, real_fn, complex_fn) -> float:
        """f(u) from f applied to each eigenvalue (sin, cos, exp, ...)."""
        self.runs[name] += 1
        vp, z1, z2 = blocks(x)
        want = from_blocks(real_fn(vp), complex_fn(z1), complex_fn(z2))
        return rel_err(got, want)

    def polar(self, got: dict, x) -> float:
        """Modulus, amplitude, radii (relative) and angles (share of pi)."""
        self.runs["polar"] += 1
        xs, e = prescale(x)
        vp, z1, z2 = blocks(xs)
        r1 = abs(z1)
        r2 = abs(z2)
        scale = math.ldexp(1.0, e)
        prod = vp * r1 * r1 * r2 * r2
        want_rho = math.copysign(abs(prod) ** 0.2, prod) * scale
        want = {"d": float(np.linalg.norm(xs)) * scale, "rho": want_rho,
                "rho1": r1 * scale, "rho2": r2 * scale}
        angles = {"phi1": math.atan2(z1.imag, z1.real) % TWO_PI,
                  "phi2": math.atan2(z2.imag, z2.real) % TWO_PI,
                  "psi1": math.atan2(r1, r2),
                  "thetaplus": math.atan2(math.sqrt(2.0) * r1, vp)}
        worst = 0.0
        for key, w in want.items():
            g = got[key]
            if g is None or not math.isfinite(g):
                return math.inf
            worst = max(worst, abs(g - w) / abs(w))
        for key, w in angles.items():
            g = got[key]
            if g is None or not math.isfinite(g):
                return math.inf
            worst = max(worst, angle_err(g, w))
        return worst

    # -- contour -----------------------------------------------------------

    def residue(self, lhs, f_at_pole, windings) -> float:
        """|lhs - 2*pi*f(u0)*(n1*~e1 + n2*~e2)| / |rhs|, windings from the loop."""
        self.runs["residue"] += 1
        n1, n2 = windings
        _, z1, z2 = blocks(f_at_pole)
        # ~e_k is i on plane k: its eigenvalue block is 1j there, 0 elsewhere
        rhs = TWO_PI * from_blocks(0.0, 1j * n1 * z1, 1j * n2 * z2)
        diff = np.asarray(lhs, dtype=float) - rhs
        return float(np.linalg.norm(diff) / np.linalg.norm(rhs))

    def windings(self, got, want) -> float:
        """Winding numbers of the plane projections, known from the loop."""
        self.runs["windings"] += 1
        return 0.0 if tuple(got) == tuple(want) else math.inf

    # -- factor ------------------------------------------------------------

    def reconstruction(self, coeffs, rebuilt, factor_blocks) -> float:
        """Coefficient residual of the expanded factors, on each block.

        Coefficient j is scaled by the largest, over the three blocks, of
        coefficient j of the product of the factors with their block
        coefficients replaced by absolute values: that bounds the
        coefficient's size and its rounding in component form, which mixes
        the blocks.
        """
        self.runs["reconstruction"] += 1
        if len(rebuilt) != len(coeffs):
            return math.inf
        got = np.fft.fft(np.asarray(rebuilt, dtype=float), axis=1)
        want = np.fft.fft(np.asarray(coeffs, dtype=float), axis=1)
        if not np.all(np.isfinite(got)):
            return math.inf
        scale = np.zeros(len(coeffs))
        for k in (0, 4, 3):
            mag = np.array([1.0])
            for fac in factor_blocks:
                mag = np.convolve(mag, np.abs(fac[k]))
            scale = np.maximum(scale, mag[1:])
        diff = np.abs(got - want)[:, (0, 4, 3)].max(axis=1)
        return float(np.max(diff / scale))

    def roots(self, found, coeffs, scale) -> float:
        """Largest backward error |p(z)| / sum_j scale_j |z|^(m-j) of the
        found roots of one block polynomial (descending coefficients).

        scale_j is the largest magnitude of coefficient j over the three
        blocks: the input is stored in component form, so each block
        coefficient carries rounding of that size.  With the reconstruction
        check this is the standard test of computed roots, and it holds
        however ill-conditioned the roots are.
        """
        self.runs["roots"] += 1
        coeffs = np.asarray(coeffs, dtype=complex)
        if len(found) != len(coeffs) - 1:
            return math.inf
        z = np.asarray(found, dtype=complex)
        mag = np.polyval(np.asarray(scale, dtype=float), np.abs(z))
        return float(np.max(np.abs(np.polyval(coeffs, z)) / mag))

    # -- cli ---------------------------------------------------------------

    def exact_text(self, got: str, want: str) -> float:
        """Bit-for-bit equality of CLI output with the in-process result."""
        self.runs["exact_text"] += 1
        return 0.0 if got == want else math.inf

    def cosexp_table(self, ys, g) -> float:
        """g_5k(y) as the mean of exp(y*w) * w**-k over the fifth roots w."""
        self.runs["cosexp_table"] += 1
        ys = np.asarray(ys, dtype=float)
        w = np.exp(2j * np.pi * np.arange(5) / 5.0)
        k = np.arange(5)
        want = (np.exp(ys[:, None, None] * w[None, None, :])
                * w[None, None, :] ** (-k[None, :, None])).mean(axis=2).real
        diff = np.max(np.abs(np.asarray(g) - want), axis=1)
        return float(np.max(diff / np.max(np.abs(want), axis=1)))
