"""Path integration of 5-complex functions and the pole/residue identity.

Paths are polylines in 5-space.  Integrals use composite Gauss-Legendre
quadrature: each segment's share of the node budget is split into panels of
at most PANEL nodes.  The sum runs in canonical coordinates, where the ring
product f(u) du splits into one real integral on the line and one ordinary
complex integral on each plane.  A closed loop around a pole u0 picks up
2*pi*f(u0)*(~e1*n1 + ~e2*n2) where n_k is the winding number of the loop's
projection onto canonical plane k around the projected pole — the azimuthal
angles are the only cyclic coordinates, so only the ~e_k directions survive.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .algebra import DIM, PentaComplex, _result
from .analytic import Evaluator, _call
from .canonical import (_CANON, _ROT, E1, E1_TILDE, E2, E2_TILDE, E_PLUS,
                        TAU_REL, TWO_PI, _from_canon_comps, rotated_coords)
from .elementary import ARRAY_LIFT, LIFT_RANGE
from .errors import NonInvertibleOnPath, OnBoundary, PoleOnPath

# projected pole/point must stay this far from every projected edge
TAU_EDGE = 1e-9

# most Gauss-Legendre nodes in one panel; a segment with n nodes is cut into
# ceil(n / PANEL) panels of equal width
PANEL = 8


@dataclass(frozen=True)
class Path:
    """Ordered polyline; a closed path implicitly joins the last vertex
    back to the first (do not repeat the first vertex)."""

    vertices: tuple[PentaComplex, ...]
    closed: bool = False

    def __post_init__(self):
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 2:
            raise ValueError(f"a path needs at least 2 vertices, got {len(verts)}")
        pairs = list(zip(verts, verts[1:]))
        if self.closed:
            pairs.append((verts[-1], verts[0]))
        for a, b in pairs:
            if a.components == b.components:
                raise ValueError("consecutive path vertices must be distinct")

    def segments(self) -> list[tuple[PentaComplex, PentaComplex]]:
        segs = list(zip(self.vertices, self.vertices[1:]))
        if self.closed:
            segs.append((self.vertices[-1], self.vertices[0]))
        return segs

    def to_dict(self) -> dict:
        return {"vertices": [v.to_list() for v in self.vertices], "closed": self.closed}

    @classmethod
    def from_dict(cls, data: dict) -> "Path":
        return cls(tuple(PentaComplex.from_list(v) for v in data["vertices"]),
                   bool(data.get("closed", False)))


@dataclass(frozen=True)
class PlaneProjection:
    """2D shadow of a path on one canonical plane (unit-length axes)."""

    points: tuple[tuple[float, float], ...]
    plane: int
    closed: bool = False


def _vertex_array(path: Path) -> np.ndarray:
    verts = path.vertices
    flat = chain.from_iterable(v.components for v in verts)
    return np.fromiter(flat, float, DIM * len(verts)).reshape(-1, DIM)


def project(path: Path, k: int) -> PlaneProjection:
    """Project every vertex onto canonical plane k (k = 1 or 2)."""
    if k not in (1, 2):
        raise ValueError(f"plane index must be 1 or 2, got {k}")
    xy = _vertex_array(path) @ _ROT[2 * k - 1:2 * k + 1].T
    return PlaneProjection(points=tuple(map(tuple, xy.tolist())), plane=k,
                           closed=path.closed)


def project_point(u: PentaComplex, k: int) -> tuple[float, float]:
    """Plane-k coordinates of a single element."""
    xi = rotated_coords(u)
    return (xi.xi1, xi.eta1) if k == 1 else (xi.xi2, xi.eta2)


def winding(point: tuple[float, float], polygon: PlaneProjection,
            tol: float = TAU_EDGE) -> int:
    """Signed winding number of the closed projected polygon around `point`.

    Computed as the summed subtended angles over 2*pi.  For a simple
    positively oriented loop this is 1 inside and 0 outside; self-crossing
    loops get the full signed count.  Raises OnBoundary if the point is
    within `tol` of an edge.
    """
    if not polygon.closed:
        raise ValueError("winding number needs a closed polygon")
    a = np.array(polygon.points, dtype=float) - np.array(point, dtype=float)
    b = np.roll(a, -1, axis=0)
    d = b - a
    seg_sq = (d * d).sum(axis=1)
    # nearest point of each edge to the origin (the point); a zero-length
    # edge is its own nearest point
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(seg_sq == 0.0, 0.0, np.clip(-(a * d).sum(axis=1) / seg_sq, 0.0, 1.0))
    near = a + t[:, None] * d
    close = np.hypot(near[:, 0], near[:, 1]) <= tol
    if close.any():
        raise OnBoundary(f"point {point} is within {tol} of edge {int(close.argmax())}")
    angles = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0],
                        a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1])
    return round(float(angles.sum()) / TWO_PI)


@functools.lru_cache(maxsize=PANEL)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes (ascending) and weights on [0, 1].

    The nodes are the roots of P_n, found by Newton's method on the
    three-term recurrence from the guesses cos(pi*(k - 1/4)/(n + 1/2));
    for n <= PANEL five steps reach roundoff, so the last steps only
    re-evaluate P_n' at the converged nodes for the weights.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(8):
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    nodes = (x + 1.0) / 2.0
    weights = 1.0 / ((1.0 - x * x) * dp * dp)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _segment_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule on [0, 1] with n nodes: ceil(n / PANEL) equal panels
    whose orders differ by at most one."""
    panels = -(-n // PANEL)
    base, extra = divmod(n, panels)
    nodes, weights = [], []
    for first, count, order in ((0, extra, base + 1), (extra, panels - extra, base)):
        if count:
            x, w = _gauss_legendre(order)
            left = np.arange(first, first + count)[:, None]
            nodes.append(((left + x) / panels).ravel())
            weights.append(np.tile(w / panels, count))
    return np.concatenate(nodes), np.concatenate(weights)


def _planes(a: np.ndarray) -> np.ndarray:
    """Columns 1-4 of rows of five as two complex columns, a view: (z1, z2)
    of canonical rows, (x1 + i*x2, x3 + i*x4) of component rows."""
    return a[:, 1:].view(np.complex128)


def _evaluate(f: Evaluator, nodes: np.ndarray, canon: np.ndarray) -> np.ndarray:
    """Canonical components of f at every node (rows of `nodes`, whose
    canonical coordinates are `canon`)."""
    ufunc = ARRAY_LIFT.get(id(f))
    if ufunc is not None and np.abs(canon).max() <= LIFT_RANGE:
        out = np.empty_like(canon)
        out[:, 0] = ufunc(canon[:, 0])
        _planes(out)[:] = ufunc(_planes(canon))
        return out
    values = [_call(f, _result(*c)).components for c in nodes.tolist()]
    return np.array(values) @ _CANON.T


def _divide(du: np.ndarray, rel: np.ndarray, rel_c: np.ndarray) -> np.ndarray:
    """du * (u - u0)^-1 in canonical coordinates; rel holds u - u0 per node
    and rel_c its canonical coordinates.  Every node gets inverse's
    divisor-of-zero test."""
    # moduli by hypot (a complex abs is one), so no square under- or
    # overflows; pairs holds hypot(x1, x2) and hypot(x3, x4)
    pairs = np.abs(_planes(rel))
    tol = TAU_REL * np.hypot(rel[:, 0], np.hypot(pairs[:, 0], pairs[:, 1]))
    radii = np.abs(_planes(rel_c))
    bad = (np.abs(rel_c[:, 0]) <= tol) | (radii <= tol[:, None]).any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        raise NonInvertibleOnPath(f"u - u0 = {PentaComplex(*rel[i])!r} is a divisor "
                                  f"of zero at quadrature node {i}")
    out = np.empty_like(du)
    out[:, 0] = du[:, 0] / rel_c[:, 0]
    _planes(out)[:] = _planes(du) / _planes(rel_c)
    return out


@dataclass(frozen=True)
class _PoleIntegrand:
    """The integrand f(u) * (u - pole)^-1 of the pole identity; integrate
    applies the kernel to all nodes at once in canonical coordinates."""

    f: Evaluator
    pole: PentaComplex


def integrate(f: Evaluator, path: Path, samples_per_segment: int = 64) -> PentaComplex:
    """Integral of f(u) du along the polyline by composite Gauss-Legendre
    quadrature with samples_per_segment nodes on every segment.

    The nodes of a segment are split into panels of at most PANEL nodes;
    du is the segment vector scaled by each node's weight.
    """
    if samples_per_segment < 1:
        raise ValueError(f"samples_per_segment must be >= 1, got {samples_per_segment}")
    pole = None
    if isinstance(f, _PoleIntegrand):
        f, pole = f.f, f.pole
    verts = _vertex_array(path)
    ends = np.roll(verts, -1, axis=0) if path.closed else verts[1:]
    starts = verts[:len(ends)]
    steps = ends - starts
    t, w = _segment_rule(samples_per_segment)
    nodes = (starts[:, None, :] + t[:, None] * steps[:, None, :]).reshape(-1, DIM)
    du = (w[:, None] * steps[:, None, :]).reshape(-1, DIM)
    origin = np.zeros(DIM) if pole is None else np.array(pole.components)
    rel = nodes - origin
    canon = np.concatenate((rel, du)) @ _CANON.T
    rel_c, kernel = canon[:len(nodes)], canon[len(nodes):]
    if pole is not None:
        kernel = _divide(kernel, rel, rel_c)
    values = _evaluate(f, nodes, rel_c + _CANON @ origin)
    line = float((values[:, 0] * kernel[:, 0]).sum())
    z1, z2 = (_planes(values) * _planes(kernel)).sum(axis=0).tolist()
    return _result(*_from_canon_comps((line, z1.real, z1.imag, z2.real, z2.imag)))


def residue_formula(f: Evaluator, path: Path, u0: PentaComplex,
                    samples: int = 4096,
                    tol_edge: float = TAU_EDGE) -> tuple[PentaComplex, PentaComplex]:
    """Both sides of the pole identity for a closed loop around u0.

    lhs is the composite Gauss-Legendre quadrature of f(u) * (u - u0)^-1 du
    over the loop, with `samples` the total node budget spread evenly over
    the segments; rhs is 2*pi*f(u0)*(~e1*n1 + ~e2*n2) with n_k the winding
    number of the loop's plane-k projection around the projected pole.  The
    loop must avoid the divisor-of-zero sets of u - u0 (vplus = 0 or either
    plane radius 0); a node on them raises NonInvertibleOnPath.
    """
    if not path.closed:
        raise ValueError("the pole identity needs a closed path")
    windings = []
    for k in (1, 2):
        try:
            windings.append(winding(project_point(u0, k), project(path, k), tol=tol_edge))
        except OnBoundary as exc:
            raise PoleOnPath(f"projected pole touches the plane-{k} projection") from exc
    n1, n2 = windings
    per_segment = max(1, round(samples / len(path.segments())))
    lhs = integrate(_PoleIntegrand(f, u0), path, per_segment)
    rhs = TWO_PI * (_call(f, u0) * (n1 * E1_TILDE + n2 * E2_TILDE))
    return lhs, rhs


def plane_circle(center: PentaComplex, plane: int, radius: float,
                 line_offset: float | None = None,
                 other_offset: float | None = None,
                 vertices: int = 256) -> Path:
    """Closed polygonal loop winding once around `center` in one canonical
    plane.

    The loop is a regular `vertices`-gon of the given radius in plane `plane`
    centred on the projection of `center`.  Nonzero `line_offset` (along e+)
    and `other_offset` (along the other plane's idempotent) displace the loop
    off the divisor-of-zero sets relative to `center`, which the pole
    identity requires; both default to 0.75 * radius.
    """
    if plane not in (1, 2):
        raise ValueError(f"plane index must be 1 or 2, got {plane}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if vertices < 3:
        raise ValueError(f"need at least 3 vertices, got {vertices}")
    if line_offset is None:
        line_offset = 0.75 * radius
    if other_offset is None:
        other_offset = 0.75 * radius
    ek, tek = (E1, E1_TILDE) if plane == 1 else (E2, E2_TILDE)
    other = E2 if plane == 1 else E1
    base = center + line_offset * E_PLUS + other_offset * other
    verts = []
    for i in range(vertices):
        t = TWO_PI * i / vertices
        verts.append(base + radius * math.cos(t) * ek + radius * math.sin(t) * tek)
    return Path(tuple(verts), closed=True)
