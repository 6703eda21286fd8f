"""Power series, convergence radii and derivative-relation checks.

A power series with 5-complex coefficients acts independently on the line
part and on each plane, so it can be evaluated either by ring Horner or by
three ordinary scalar series on the canonical components.  Analytic
functions built this way tie the partial derivatives of their five real
components into five cyclic equality groups (and their second partials into
25 chains); the checkers here verify those groups by central differences.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Sequence

from .algebra import PentaComplex, _result, multiply
from .canonical import SQRT5, _from_canon_comps, _to_canon_comps
from .errors import EvaluationFailed, InsufficientTerms, ZeroTail

FD_STEP_FIRST = 1e-6
FD_TOL_FIRST = 1e-6
FD_STEP_SECOND = 3e-4
FD_TOL_SECOND = 1e-4
RATIO_WINDOW = 8


@dataclass(frozen=True)
class PowerSeries:
    """Finite list of coefficients a0, a1, ...; evaluation is Horner."""

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
    vp, v1, tv1, v2, tv2 = _to_canon_comps(u.components)
    z1 = complex(v1, tv1)
    z2 = complex(v2, tv2)
    accp = 0.0
    acc1 = 0j
    acc2 = 0j
    for a in reversed(s.coeffs):
        ap, a1, at1, a2, at2 = _to_canon_comps(a.components)
        accp = accp * vp + ap
        acc1 = acc1 * z1 + complex(a1, at1)
        acc2 = acc2 * z2 + complex(a2, at2)
    # float and complex arithmetic overflow to inf rather than raising
    return _result(*_from_canon_comps((accp, acc1.real, acc1.imag,
                                       acc2.real, acc2.imag)))


def coefficient_spectrum(a: PentaComplex) -> CoefficientSpectrum:
    """The canonical transform of `a`: its line sum and the two plane
    pairs (component sums weighted by cos/sin of the fifth-circle angles)."""
    return CoefficientSpectrum(*_to_canon_comps(a.components))


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
    """Estimate the convergence radii from trailing coefficient ratios."""
    if len(s.coeffs) < window + 2:
        raise InsufficientTerms(
            f"need at least {window + 2} coefficients for window {window}, got {len(s.coeffs)}")
    mods = [abs(a) for a in s.coeffs]
    spectra = [_to_canon_comps(a.components) for a in s.coeffs]
    pmods = [abs(ap) for ap, _, _, _, _ in spectra]
    m1 = [math.hypot(a1, at1) for _, a1, at1, _, _ in spectra]
    m2 = [math.hypot(a2, at2) for _, _, _, a2, at2 in spectra]

    overall = [r / SQRT5 for r in _tail_ratios(mods, window, "overall")]
    plus = _tail_ratios(pmods, window, "line")
    plane1 = _tail_ratios(m1, window, "plane 1")
    plane2 = _tail_ratios(m2, window, "plane 2")
    return ConvergenceReport(
        c=statistics.median(overall),
        cplus=statistics.median(plus),
        c1=statistics.median(plane1),
        c2=statistics.median(plane2),
        window=window,
        method=f"median of last {window} consecutive ratios",
        trend={"c": _trend(overall), "cplus": _trend(plus),
               "c1": _trend(plane1), "c2": _trend(plane2)},
    )


def taylor_coefficients(s: PowerSeries, u0: PentaComplex, kmax: int) -> PowerSeries:
    """Recentre the series at u0: coefficient k is the k-th termwise
    derivative at u0 divided by k!, i.e. sum_l C(l, k) a_l u0^(l-k)."""
    n = len(s.coeffs)
    powers = [PentaComplex.scalar(1.0)]
    for _ in range(max(0, n - 1)):
        powers.append(multiply(powers[-1], u0))
    out = []
    for k in range(kmax + 1):
        acc = PentaComplex()
        for l in range(k, n):
            acc = acc + math.comb(l, k) * multiply(s.coeffs[l], powers[l - k])
        out.append(acc)
    return PowerSeries(tuple(out))


# ---------------------------------------------------------------------------
# derivative relation checks

Evaluator = Callable[[PentaComplex], PentaComplex]


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


def _call(f: Evaluator, u: PentaComplex) -> PentaComplex:
    try:
        return f(u)
    except Exception as exc:
        raise EvaluationFailed(f"evaluator raised at {u!r}: {exc}") from exc


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
    maximum pairwise deviation.
    """
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


def _second_partial(f: Evaluator, point: PentaComplex, component: int,
                    i: int, j: int, step: float) -> float:
    if i == j:
        fp = _call(f, _shifted(point, i, step))[component]
        f0 = _call(f, point)[component]
        fm = _call(f, _shifted(point, i, -step))[component]
        return (fp - 2.0 * f0 + fm) / (step * step)
    fpp = _call(f, _shifted(_shifted(point, i, step), j, step))[component]
    fpm = _call(f, _shifted(_shifted(point, i, step), j, -step))[component]
    fmp = _call(f, _shifted(_shifted(point, i, -step), j, step))[component]
    fmm = _call(f, _shifted(_shifted(point, i, -step), j, -step))[component]
    return (fpp - fpm - fmp + fmm) / (4.0 * step * step)


def check_second_order(f: Evaluator, point: PentaComplex,
                       step: float = FD_STEP_SECOND,
                       tol: float = FD_TOL_SECOND) -> SecondOrderReport:
    """Check the 25 second-order chains: for each component and each residue
    class of index sums, all mixed second partials agree."""
    chains = []
    for component in range(5):
        for index_sum in range(5):
            pairs = _chain_pairs(index_sum)
            vals = tuple(_second_partial(f, point, component, i, j, step)
                         for (i, j) in pairs)
            dev = max(vals) - min(vals)
            chains.append(MixedPartialChain(component=component, index_sum=index_sum,
                                            pairs=pairs, values=vals,
                                            deviation=dev, passed=dev <= tol))
    return SecondOrderReport(point=point, step=step, tol=tol, chains=tuple(chains))
