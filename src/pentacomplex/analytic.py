"""Power series, convergence radii and derivative-relation checks.

A power series with 5-complex coefficients acts independently on the line
part and on each plane, so it can be evaluated either by ring Horner or by
three ordinary scalar series on the canonical components.  The second,
`ComponentPolynomials`, is the kernel of every polynomial path here and in
polyfactor; ring Horner (`series_eval`) is the cross-check.  Analytic
functions built this way tie the partial derivatives of their five real
components into five cyclic equality groups (and their second partials into
25 chains); the checkers here verify those groups by central differences.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .algebra import Evaluator, PentaComplex, _call, _result, multiply
from .canonical import SQRT5, _assemble, _canon, _check_count, _check_tol
from .errors import InsufficientTerms, ZeroTail

FD_STEP_FIRST = 1e-6
FD_TOL_FIRST = 1e-6
FD_STEP_SECOND = 3e-4
FD_TOL_SECOND = 1e-4
RATIO_WINDOW = 8


@dataclass(frozen=True)
class PowerSeries:
    """Finite list of coefficients a0, a1, ...; `series_eval` evaluates it
    by ring Horner, `series_eval_components` on the canonical components."""

    coeffs: tuple[PentaComplex, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    def __len__(self):
        return len(self.coeffs)

    @classmethod
    def from_scalars(cls, values: Sequence[float]) -> "PowerSeries":
        return cls(tuple(PentaComplex.scalar(v) for v in values))


@dataclass(frozen=True)
class CoefficientSpectrum:
    """Canonical projections of one coefficient: line sum plus the two
    plane pairs (cosine and sine weighted component sums)."""

    aplus: float
    a1: float
    at1: float
    a2: float
    at2: float


@dataclass(frozen=True)
class ComponentPolynomials:
    """Scalar component polynomials, coefficients descending: a real one on
    the line and a complex one per plane.  From polyfactor's `decompose`
    they are monic; from a series (`series_eval_components`) they are its
    coefficients reversed, with no implicit leading 1."""

    pplus: tuple[float, ...]
    p1: tuple[complex, ...]
    p2: tuple[complex, ...]

    def evaluate(self, u: PentaComplex) -> PentaComplex:
        """Horner on each canonical component of u, reassembled once; a
        value beyond the floating-point range raises Overflow.  A batch of
        elements (contour's nodes) holds no components: it runs Horner on
        its columns itself, through its `horner` method."""
        try:
            vp, v1, tv1, v2, tv2 = _canon(u)
        except AttributeError:
            if hasattr(u, "horner"):
                return u.horner(self.pplus, self.p1, self.p2)
            raise
        z1 = complex(v1, tv1)
        z2 = complex(v2, tv2)
        wp = 0.0
        w1 = w2 = 0j
        # float and complex arithmetic overflow to inf rather than raising
        for ap, a1, a2 in zip(self.pplus, self.p1, self.p2):
            wp = wp * vp + ap
            w1 = w1 * z1 + a1
            w2 = w2 * z2 + a2
        return _assemble(wp, w1, w2)


def _component_polys(coeffs: Iterable[PentaComplex]) -> ComponentPolynomials:
    """The component polynomials of ring coefficients, in their order: one
    canonical transform per coefficient."""
    spectra = [_canon(a) for a in coeffs]
    return ComponentPolynomials(tuple(sp[0] for sp in spectra),
                                tuple(complex(sp[1], sp[2]) for sp in spectra),
                                tuple(complex(sp[3], sp[4]) for sp in spectra))


@dataclass(frozen=True)
class ConvergenceReport:
    """Radius estimates from trailing coefficient ratios.

    c bounds |u|; cplus bounds |vplus| and c1, c2 bound the plane radii.
    Each estimate is the median of the last `window` consecutive ratios;
    `trend` flags whether those ratios were still increasing or decreasing
    (an increasing trend means the true radius exceeds the estimate, e.g.
    an entire function).
    """

    c: float
    cplus: float
    c1: float
    c2: float
    window: int
    method: str
    trend: dict[str, str]


def series_eval(s: PowerSeries, u: PentaComplex) -> PentaComplex:
    """Horner evaluation of the series over the ring."""
    acc = PentaComplex()
    for a in reversed(s.coeffs):
        acc = multiply(acc, u) + a
    return acc


def series_eval_components(s: PowerSeries, u: PentaComplex) -> PentaComplex:
    """Evaluate via the canonical split: one real series on vplus and one
    complex series per plane, reassembled at the end."""
    return _component_polys(reversed(s.coeffs)).evaluate(u)


def coefficient_spectrum(a: PentaComplex) -> CoefficientSpectrum:
    """The canonical transform of `a`: its line sum and the two plane
    pairs (component sums weighted by cos/sin of the fifth-circle angles)."""
    return CoefficientSpectrum(*_canon(a))


def _tail_ratios(values: list[float], window: int, label: str) -> list[float]:
    ratios = []
    for l in range(len(values) - 1 - window, len(values) - 1):
        denom = values[l + 1]
        if denom == 0.0:
            raise ZeroTail(f"{label}: coefficient {l + 1} vanishes; ratio undefined")
        ratios.append(values[l] / denom)
    return ratios


def _trend(ratios: list[float]) -> str:
    if all(b > a for a, b in zip(ratios, ratios[1:])):
        return "increasing"
    if all(b < a for a, b in zip(ratios, ratios[1:])):
        return "decreasing"
    return "steady"


def convergence_radii(s: PowerSeries, window: int = RATIO_WINDOW) -> ConvergenceReport:
    """Estimate the convergence radii from trailing coefficient ratios.  A
    window that is not a whole number >= 1 raises ValueError."""
    window = _check_count("window", window, 1)
    if len(s.coeffs) < window + 2:
        raise InsufficientTerms(
            f"need at least {window + 2} coefficients for window {window}, got {len(s.coeffs)}")
    cp = _component_polys(s.coeffs)
    ratios = {key: _tail_ratios([abs(a) for a in coeffs], window, label)
              for key, label, coeffs in (("c", "overall", s.coeffs), ("cplus", "line", cp.pplus),
                                         ("c1", "plane 1", cp.p1), ("c2", "plane 2", cp.p2))}
    ratios["c"] = [r / SQRT5 for r in ratios["c"]]
    return ConvergenceReport(**{k: statistics.median(r) for k, r in ratios.items()},
                             window=window, method=f"median of last {window} consecutive ratios",
                             trend={k: _trend(r) for k, r in ratios.items()})


def _taylor(p: Sequence, x, kmax: int) -> list:
    """Taylor coefficients 0..kmax at x of the scalar polynomial p
    (coefficients descending): the remainders of repeated synthetic
    division by (t - x), zero beyond the degree."""
    p = list(p)
    out = []
    for _ in range(kmax + 1):
        acc = 0.0
        for j, a in enumerate(p):
            acc = p[j] = acc * x + a
        out.append(p.pop() if p else 0.0)
    return out


def taylor_coefficients(s: PowerSeries, u0: PentaComplex, kmax: int) -> PowerSeries:
    """Recentre the series at u0: coefficient k is the k-th termwise
    derivative at u0 divided by k!, i.e. sum_l C(l, k) a_l u0^(l-k),
    computed on each component polynomial.  kmax is a whole number >= 0."""
    kmax = _check_count("kmax", kmax, 0)
    cp = _component_polys(reversed(s.coeffs))
    vp, v1, tv1, v2, tv2 = _canon(u0)
    parts = zip(_taylor(cp.pplus, vp, kmax), _taylor(cp.p1, complex(v1, tv1), kmax),
                _taylor(cp.p2, complex(v2, tv2), kmax))
    return PowerSeries(tuple(_assemble(*w) for w in parts))


# ---------------------------------------------------------------------------
# derivative relation checks

@dataclass(frozen=True)
class RelationGroup:
    """One cyclic equality group: dP_{(shift+j) mod 5}/dx_j for j = 0..4."""

    shift: int
    derivatives: tuple[float, ...]
    deviation: float
    passed: bool


@dataclass(frozen=True)
class FirstOrderReport:
    point: PentaComplex
    step: float
    tol: float
    groups: tuple[RelationGroup, ...]

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.groups)

    def to_dict(self) -> dict:
        return {
            "point": self.point.to_list(),
            "step": self.step,
            "tol": self.tol,
            "passed": self.passed,
            "groups": [{"shift": g.shift, "derivatives": list(g.derivatives),
                        "deviation": g.deviation, "passed": g.passed}
                       for g in self.groups],
        }


def _shifted(point: PentaComplex, axis: int, delta: float) -> PentaComplex:
    comps = list(point.components)
    comps[axis] += float(delta)
    return _result(*comps)


def check_cr_relations(f: Evaluator, point: PentaComplex,
                       step: float = FD_STEP_FIRST,
                       tol: float = FD_TOL_FIRST) -> FirstOrderReport:
    """Check the five first-order derivative groups by central differences.

    For analytic f the derivative of component (shift + j) mod 5 along axis j
    is the same for every j; each group reports its five values and the
    maximum pairwise deviation.  A zero or non-finite step, or a nan or
    negative tol, raises ValueError.
    """
    if not math.isfinite(step):
        raise ValueError(f"step {step!r} is not finite")
    if step == 0.0:
        raise ValueError(f"step {step!r} is zero: central differences divide by 2*step")
    _check_tol(tol)
    jac = [[0.0] * 5 for _ in range(5)]
    for j in range(5):
        fp = _call(f, _shifted(point, j, step))
        fm = _call(f, _shifted(point, j, -step))
        for i in range(5):
            jac[i][j] = (fp[i] - fm[i]) / (2.0 * step)
    groups = []
    for shift in range(5):
        vals = tuple(jac[(shift + j) % 5][j] for j in range(5))
        dev = max(vals) - min(vals)
        groups.append(RelationGroup(shift=shift, derivatives=vals,
                                    deviation=dev, passed=dev <= tol))
    return FirstOrderReport(point=point, step=step, tol=tol, groups=tuple(groups))


@dataclass(frozen=True)
class MixedPartialChain:
    """All mixed second partials of one component over index pairs with a
    fixed residue i + j mod 5."""

    component: int
    index_sum: int
    pairs: tuple[tuple[int, int], ...]
    values: tuple[float, ...]
    deviation: float
    passed: bool


@dataclass(frozen=True)
class SecondOrderReport:
    point: PentaComplex
    step: float
    tol: float
    chains: tuple[MixedPartialChain, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.chains)

    def to_dict(self) -> dict:
        return {
            "point": self.point.to_list(),
            "step": self.step,
            "tol": self.tol,
            "passed": self.passed,
            "chains": [{"component": c.component, "index_sum": c.index_sum,
                        "pairs": [list(p) for p in c.pairs],
                        "values": list(c.values),
                        "deviation": c.deviation, "passed": c.passed}
                       for c in self.chains],
        }


def _chain_pairs(index_sum: int) -> tuple[tuple[int, int], ...]:
    # explicit enumeration: exactly the unordered pairs (i, j) with
    # i + j = index_sum mod 5
    return tuple((i, j) for i in range(5) for j in range(i, 5)
                 if (i + j) % 5 == index_sum)


def _second_partials(f: Evaluator, point: PentaComplex, step: float) -> dict:
    """{(i, j): the second partials of the five components} for i <= j, by
    central differences shifting i, then j; f is evaluated once at each of
    the 51 stencil points."""
    center = _call(f, point)
    table = {}
    for i in range(5):
        for j in range(i, 5):
            if i == j:
                fp, fm = (_call(f, _shifted(point, i, s)) for s in (step, -step))
                table[i, j] = [(a - 2.0 * b + c) / (step * step)
                               for a, b, c in zip(fp, center, fm)]
            else:
                fpp, fpm, fmp, fmm = (_call(f, _shifted(_shifted(point, i, si), j, sj))
                                      for si in (step, -step) for sj in (step, -step))
                table[i, j] = [(a - b - c + d) / (4.0 * step * step)
                               for a, b, c, d in zip(fpp, fpm, fmp, fmm)]
    return table


def check_second_order(f: Evaluator, point: PentaComplex,
                       step: float = FD_STEP_SECOND,
                       tol: float = FD_TOL_SECOND) -> SecondOrderReport:
    """Check the 25 second-order chains: for each component and each residue
    class of index sums, all mixed second partials agree.  A non-finite
    step, a step whose square underflows to 0, or a nan or negative tol,
    raises ValueError."""
    if not math.isfinite(step):
        raise ValueError(f"step {step!r} is not finite")
    if step * step == 0.0:
        raise ValueError(f"step {step!r} is too small: its square underflows to 0")
    _check_tol(tol)
    partials = _second_partials(f, point, step)
    chains = []
    for component in range(5):
        for index_sum in range(5):
            pairs = _chain_pairs(index_sum)
            vals = tuple(partials[pair][component] for pair in pairs)
            dev = max(vals) - min(vals)
            chains.append(MixedPartialChain(component=component, index_sum=index_sum,
                                            pairs=pairs, values=vals,
                                            deviation=dev, passed=dev <= tol))
    return SecondOrderReport(point=point, step=step, tol=tol, chains=tuple(chains))
