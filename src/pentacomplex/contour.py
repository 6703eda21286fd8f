"""Path integration of 5-complex functions and the pole/residue identity.

Paths are polylines in 5-space.  Integrals use composite Gauss-Legendre
quadrature: each segment's share of the node budget is split into panels of
at most PANEL nodes.  The sum runs in canonical coordinates, where the ring
product f(u) du splits into one real integral on the line and one ordinary
complex integral on each plane.  A closed loop around a pole u0 picks up
2*pi*f(u0)*(~e1*n1 + ~e2*n2) where n_k is the winding number of the loop's
projection onto canonical plane k around the projected pole — the azimuthal
angles are the only cyclic coordinates, so only the ~e_k directions survive.
Around a pole the singularity is subtracted: the pole term f(u0)/(u - u0)
integrates around the loop to exactly that winding sum, and the nodes carry
only the remainder (f(u) - f(u0))/(u - u0), which is analytic where f is,
so the error falls geometrically with the nodes per segment.  f itself sees
all nodes at once: it is called with one batch of elements whose ring
arithmetic runs elementwise on their canonical coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import FrozenInstanceError, dataclass
from itertools import chain
from numbers import Real

import numpy as np

from .algebra import (DIM, Evaluator, PentaComplex, _call, _check_count, _check_index,
                      _check_tol, _element, _result)
from .canonical import (E1, E1_TILDE, E2, E2_TILDE, E_PLUS, TAU_REL, TWO_PI,
                        _CANON_ROWS, _assemble, _canon, _to_canon_comps, rotated_coords,
                        rotation_matrix)
from .errors import NonInvertibleOnPath, OnBoundary, Overflow, PoleOnPath

# projected pole/point must stay this far from every projected edge
TAU_EDGE = 1e-9

# most Gauss-Legendre nodes in one panel; a segment with n nodes is cut into
# ceil(n / PANEL) panels of equal width
PANEL = 8

# canonical._to_canon_comps as a matrix, for arrays of elements (one per row)
_CANON = np.array(_CANON_ROWS)
# rows are the rotated orthonormal axes
_ROT = rotation_matrix()

# canonical._from_canon_comps as a matrix: rows of canonical coordinates
# times it are rows of components
_FROM_CANON = np.array([e.components for e in (E_PLUS, E1, E1_TILDE, E2, E2_TILDE)])
# the ring's 1 in canonical coordinates
_ONE = np.array(_to_canon_comps((1.0, 0.0, 0.0, 0.0, 0.0)))
# winding works at a quarter scale where a vertex is this far from the
# point: below it every coordinate of a difference or an edge, and every
# distance, is finite
_CEILING = 2.0 ** 1022
# winding skips its exact edge test only where the largest distance lies
# above _FLOOR, so that every rounding error is relative to it, and every
# edge's bound clears twice the cutoff by _EDGE_ROUNDING times it
_FLOOR = 2.0 ** -1000
_EDGE_ROUNDING = 16 * np.finfo(float).eps
# 1/sqrt2 rounded down
_SQRT_HALF = 0.7071067811865475
# |canonical rows| times it: |vplus|, |v1| + |tv1|, |v2| + |tv2| and their sum
_SCREEN_SUMS = np.array([[1, 0, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 1, 1]],
                        dtype=float)


@dataclass(frozen=True)
class Path:
    """Ordered polyline; a closed path implicitly joins the last vertex
    back to the first (do not repeat the first vertex)."""

    vertices: tuple[PentaComplex, ...]
    closed: bool = False

    def __post_init__(self):
        _check_closed(self.closed)
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 2:
            raise ValueError(f"a path needs at least 2 vertices, got {len(verts)}")
        # the vertex components as rows, built once for project and
        # integrate; not a field, so equality, hash and repr see only vertices
        arr = np.fromiter(chain.from_iterable(v.components for v in verts), float,
                          DIM * len(verts)).reshape(-1, DIM)
        arr.flags.writeable = False
        object.__setattr__(self, "_array", arr)
        ends = _ends(arr, self.closed)
        if (arr[:len(ends)] == ends).all(axis=1).any():
            raise ValueError("consecutive path vertices must be distinct")

    def __getstate__(self):
        return {"vertices": self.vertices, "closed": self.closed}

    def __setstate__(self, state):
        # pickle and copy store only the fields and rebuild the array
        self.__init__(state["vertices"], state["closed"])

    def segments(self) -> list[tuple[PentaComplex, PentaComplex]]:
        segs = list(zip(self.vertices, self.vertices[1:]))
        if self.closed:
            segs.append((self.vertices[-1], self.vertices[0]))
        return segs

    def to_dict(self) -> dict:
        return {"vertices": [v.to_list() for v in self.vertices], "closed": self.closed}

    @classmethod
    def from_dict(cls, data: dict) -> "Path":
        """The path of `to_dict`'s data, open where `closed` is missing;
        anything else raises ValueError naming the field."""
        verts = data.get("vertices") if isinstance(data, dict) else None
        if not isinstance(verts, list):
            raise ValueError('path file must be {"vertices": [[5 reals], ...], '
                             '"closed": true or false}')
        return cls(tuple(_element(v, f"vertex {i}") for i, v in enumerate(verts)),
                   data.get("closed", False))


class PlaneProjection:
    """2D shadow of a path on one canonical plane (unit-length axes).

    The vertices are held as one read-only complex array x + i*y; `points`
    gives them as (x, y) float tuples, built when read.  Equality, hash and
    repr are those of the fields (points, plane, closed), and instances are
    immutable.
    """

    __slots__ = ("_z", "plane", "closed")

    def __init__(self, points, plane: int, closed: bool = False):
        try:
            xy = np.array(points, dtype=float)
            if xy.shape == (0,):  # no points
                xy = xy.reshape(0, 2)
            if xy.ndim != 2 or xy.shape[1] != 2 or not np.isfinite(xy).all():
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError("every projected point needs two finite real coordinates") from None
        _check_closed(closed)
        self._set(xy.view(np.complex128).ravel(), plane, closed)

    def _set(self, z: np.ndarray, plane: int, closed: bool) -> None:
        z.flags.writeable = False
        object.__setattr__(self, "_z", z)
        object.__setattr__(self, "plane", plane)
        object.__setattr__(self, "closed", closed)

    @classmethod
    def _wrap(cls, z: np.ndarray, plane: int, closed: bool) -> "PlaneProjection":
        """A projection on the complex vertex array z, which it keeps."""
        self = object.__new__(cls)
        self._set(z, plane, closed)
        return self

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(map(tuple, self._z.view(float).reshape(-1, 2).tolist()))

    def _fields(self) -> tuple:
        return (self.points, self.plane, self.closed)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (f"{type(self).__name__}(points={self.points!r}, plane={self.plane!r}, "
                f"closed={self.closed!r})")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), self._fields())


def _check_closed(closed) -> None:
    """The one rule for `closed`: a bool; anything else raises ValueError."""
    if not isinstance(closed, bool):
        raise ValueError(f"closed must be true or false, got {closed!r}")


def _ends(rows: np.ndarray, closed: bool) -> np.ndarray:
    """The end of each segment of a polyline with these vertex rows."""
    return np.concatenate((rows[1:], rows[:1])) if closed else rows[1:]


def project(path: Path, k: int) -> PlaneProjection:
    """Project every vertex onto canonical plane k (k = 1 or 2)."""
    k = _check_index("plane index", k, 1, 2)
    xy = path._array @ _ROT[2 * k - 1:2 * k + 1].T
    return PlaneProjection._wrap(xy.view(np.complex128).ravel(), k, path.closed)


def project_point(u: PentaComplex, k: int) -> tuple[float, float]:
    """Plane-k coordinates of a single element (k = 1 or 2)."""
    k = _check_index("plane index", k, 1, 2)
    xi = rotated_coords(u)
    return (xi.xi1, xi.eta1) if k == 1 else (xi.xi2, xi.eta2)


def winding(point: tuple[float, float], polygon: PlaneProjection,
            tol: float | None = None) -> int:
    """Signed winding number of the closed projected polygon around `point`.

    Computed as the summed subtended angles over 2*pi.  For a simple
    positively oriented loop this is 1 inside and 0 outside; self-crossing
    loops get the full signed count.  Raises OnBoundary if the point is
    within `tol` of an edge; the default tolerance, None, is TAU_EDGE times
    the largest distance from the point to a vertex, so it scales with the
    polygon; the message quotes the cutoff applied.  The edge parameters and
    the angles are quotients of the vertices relative to the point (complex
    numbers), so they stay in range at scales where products of
    coordinates under- or overflow (beyond about 1e+-154).  Where a vertex
    is 2**1022 or more from the point, the work runs at a quarter of the
    scale, so no difference or distance overflows up to the float ceiling.

    The edge test is screened first.  With a the vertices relative to the
    point and d the edges, no point of edge i is nearer the point than
    |a_i| - |d_i| (the triangle inequality).  Where the largest distance
    `far` lies between 2**-1000 and 2**1022 and every edge's bound exceeds
    twice the cutoff by 16*eps*far, the test is skipped: between those
    scales every rounding error is relative to `far`, the computed bounds
    lie at most 4*eps*far above the true ones and the distances the test
    computes at most 3*eps*far below, so none of them could reach the
    cutoff and the result is the one the test would give.  Otherwise (a
    point near an edge, edges longer than the point's distance from them,
    far = 0 or far outside that range) the test runs.

    A point that is not finite, or a tol that is nan or negative, raises
    ValueError.
    """
    if not polygon.closed:
        raise ValueError("winding number needs a closed polygon")
    x, y = point
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point must be finite, got {point}")
    if tol is not None:
        _check_tol(tol)
    scale = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = polygon._z - complex(x, y)
        dist = np.abs(a)
        far = dist.max(initial=0.0)
        screen = _FLOOR < far < _CEILING
        if not far < _CEILING:
            # a difference, an edge or a distance may be beyond the float
            # range: everything at a quarter (exact at this size), the
            # distances scaled back where they are compared
            scale = 4.0
            a = 0.25 * polygon._z - complex(0.25 * x, 0.25 * y)
            far = np.abs(a).max(initial=0.0)
        b = _ends(a, True)
        d = b - a
        cutoff = TAU_EDGE * far * scale if tol is None else tol
        if not (screen and (dist - np.abs(d)).min() > 2.0 * cutoff + _EDGE_ROUNDING * far):
            # nearest point of each edge to the origin (the point) at
            # a + t*d, with t = -(a . d)/|d|^2 = -Re(a/d), clipped (a
            # quotient beyond the float range clips to an end); a
            # zero-length edge is its own nearest point
            t = np.minimum(np.maximum(-(a / d).real, 0.0), 1.0)
            t[d == 0.0] = 0.0
            close = np.abs(a + t * d) * scale <= cutoff
            if close.any():
                raise OnBoundary(f"point {point} is within {cutoff:.3g} of edge "
                                 f"{int(close.argmax())}")
        # halved first (exactly): numpy's quotient of two near the float
        # ceiling overflows inside and comes back nan
        q = (0.5 * b) / (0.5 * a)
        turns = float(np.arctan2(q.imag, q.real).sum()) / TWO_PI
    return round(turns)


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
    return nodes, weights


@functools.lru_cache(maxsize=32)
def _segment_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule on [0, 1] with n nodes: ceil(n / PANEL) equal panels
    whose orders differ by at most one; the arrays are read-only."""
    panels = -(-n // PANEL)
    base, extra = divmod(n, panels)
    nodes, weights = [], []
    for first, count, order in ((0, extra, base + 1), (extra, panels - extra, base)):
        if count:
            x, w = _gauss_legendre(order)
            left = np.arange(first, first + count)[:, None]
            nodes.append(((left + x) / panels).ravel())
            weights.append(np.tile(w / panels, count))
    nodes, weights = np.concatenate(nodes), np.concatenate(weights)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _planes(a: np.ndarray) -> np.ndarray:
    """Columns 1-4 of rows of five as two complex columns, a view: (z1, z2)
    of canonical rows, (x1 + i*x2, x3 + i*x4) of component rows."""
    return a[:, 1:].view(np.complex128)


def _parts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The line column and the two plane columns of rows of five, as 1-D
    views.  numpy never gets the (n, 2) plane view: its rows are 40 bytes
    apart, so there numpy's inner loop would cover only a row's two entries."""
    z = _planes(a)
    return a[:, 0], z[:, 0], z[:, 1]


def _by_part(fns, a: np.ndarray, *others: np.ndarray) -> np.ndarray:
    """New rows like a: fns[k] gets part k of a, of each of others (which
    broadcast against a) and last, as a ufunc's out, of the new rows."""
    out = np.empty_like(a)
    for fn, cols in zip(fns, zip(*map(_parts, (a, *others, out)))):
        fn(*cols)
    return out


def _rows(x, unit: np.ndarray | None = None) -> np.ndarray:
    """Canonical coordinates of an operand of a batch, as rows to broadcast
    against it: a batch's own, an element's as one row and, given `unit`, a
    real scalar's as x * unit."""
    if isinstance(x, _Batch):
        return x.canon
    if isinstance(x, PentaComplex):
        return np.array([_canon(x)])
    if unit is not None and isinstance(x, Real):
        return float(x) * unit
    raise TypeError(f"unsupported operand for a batch of elements: {type(x).__name__}")


class _Batch:
    """Ring elements at many nodes, held as one (n, 5) array of canonical
    coordinates.  There the ring is R x C x C, so its arithmetic is
    elementwise: a real product on the line and a complex product on each
    plane.  The operators are those of PentaComplex: +, -, unary - and *
    with a batch, a PentaComplex or a real scalar, and / by a real scalar;
    multiply, elementary's builtins and analytic's component polynomials
    reach `product`, `lift` and `horner`.  A batch has no components, so an
    evaluator that reads them raises.  Nothing is checked on the way: a
    value beyond the float range becomes inf or nan, which _evaluate tests
    once, on the result."""

    __slots__ = ("canon",)
    __array_ufunc__ = None  # a numpy operand defers to these operators
    __hash__ = None

    def __init__(self, canon: np.ndarray):
        self.canon = canon

    def __add__(self, other):
        return _Batch(self.canon + _rows(other, _ONE))

    __radd__ = __add__

    def __sub__(self, other):
        return _Batch(self.canon - _rows(other, _ONE))

    def __rsub__(self, other):
        return _Batch(_rows(other, _ONE) - self.canon)

    def __neg__(self):
        return _Batch(-self.canon)

    def __mul__(self, other):
        if isinstance(other, Real):
            return _Batch(self.canon * float(other))
        return self.product(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Real):
            raise TypeError(f"a batch of elements divides only by a real scalar, "
                            f"not {type(other).__name__}")
        # as PentaComplex: times the reciprocal, and a zero raises
        return _Batch(self.canon * (1.0 / float(other)))

    def __eq__(self, other):
        # the nodes' values differ, so no single truth value is right
        raise TypeError("a batch of elements cannot be compared")

    def product(self, other) -> "_Batch":
        """The ring product with a batch or an element (multiply)."""
        return _Batch(_by_part((np.multiply,) * 3, self.canon, _rows(other)))

    def lift(self, line_fn, plane_fn) -> "_Batch":
        """line_fn on the line and plane_fn on each plane, each applied to
        the columns as the numpy ufunc of the same name (elementary's
        builtins)."""
        plane = getattr(np, plane_fn.__name__)
        return _Batch(_by_part((getattr(np, line_fn.__name__), plane, plane), self.canon))

    def horner(self, pplus, p1, p2) -> "_Batch":
        """The real polynomial pplus on the line and the complex p1, p2 on
        the planes, coefficients descending, by np.polyval on each part
        (ComponentPolynomials.evaluate): its y = y*x + c runs out of place,
        and numpy's in-place complex product may differ in the last bit."""
        return _Batch(_by_part([lambda x, out, c=c: np.copyto(out, np.polyval(c, x))
                                for c in (pplus, p1, p2)], self.canon))


def _evaluate(f: Evaluator, nodes: np.ndarray, canon: np.ndarray) -> np.ndarray:
    """Canonical components of f at every node (rows of `nodes`, whose
    canonical coordinates are `canon`), under integrate's np.errstate.

    f is called once with the batch of all nodes.  Its value is used when it
    is a batch of the same shape whose entries reassemble to components that
    are all finite; a non-finite entry gives a non-finite component (inf
    times 0 is nan), so that one test covers both.  Otherwise (f raised,
    returned anything else, or a value is not finite) f is called at each
    node, where a failure raises the typed error of the scalar route.
    """
    try:
        out = f(_Batch(canon))
    except Exception:  # whatever went wrong, the per-node calls report it
        out = None
    if (isinstance(out, _Batch) and out.canon.shape == canon.shape
            and np.isfinite(out.canon @ _FROM_CANON).all()):
        return out.canon
    values = chain.from_iterable(_call(f, _result(*c)).components for c in nodes.tolist())
    return np.fromiter(values, float, nodes.size).reshape(-1, DIM) @ _CANON.T


def _invertible(rel: np.ndarray, rel_c: np.ndarray, nodes: int) -> None:
    """inverse's divisor-of-zero test on every row: rel holds u - u0 at
    the quadrature nodes and then at the path's vertices (from row `nodes`
    on), rel_c its canonical coordinates.  A row beyond the float range
    raises Overflow."""
    # a screen without hypot first.  With s_k = |v_k| + |tv_k|, rho_k is
    # at least s_k/sqrt2, and |u|^2 = (vplus^2 + 2*rho1^2 + 2*rho2^2)/5 puts
    # |u| below |vplus| + s1 + s2; the factor 2 covers the rounding.  A
    # row that passes passes the test below; inf and nan rows fail it
    s = np.abs(rel_c) @ _SCREEN_SUMS
    least = np.minimum(s[:, 0], np.minimum(s[:, 1], s[:, 2]) * _SQRT_HALF)
    if (least > (2.0 * TAU_REL) * s[:, 3]).all():
        return

    def at(i: int) -> str:
        return f"quadrature node {i}" if i < nodes else f"vertex {i - nodes}"

    # u - u0 or its transform overflowed (a non-finite row of rel gives a
    # non-finite row of rel_c)
    finite = np.isfinite(rel_c).all(axis=1)
    if not finite.all():
        raise Overflow(f"u - u0 exceeds the floating-point range at {at(int(finite.argmin()))}")
    # moduli by hypot (a complex abs is one), so no square under- or
    # overflows; |p1| is hypot(x1, x2) and |p2| hypot(x3, x4).  fmin skips a
    # NaN as `or` would
    x0, p1, p2 = _parts(rel)
    tol = TAU_REL * np.hypot(x0, np.hypot(np.abs(p1), np.abs(p2)))
    line, z1, z2 = _parts(rel_c)
    bad = np.fmin(np.abs(line), np.fmin(np.abs(z1), np.abs(z2))) <= tol
    if bad.any():
        i = int(bad.argmax())
        raise NonInvertibleOnPath(f"u - u0 = {PentaComplex(*rel[i])!r} is a divisor "
                                  f"of zero at {at(i)}")


@dataclass(frozen=True)
class _PoleIntegrand:
    """The integrand f(u) * (u - pole)^-1 of the pole identity, of which
    integrate returns the smooth remainder's part, applying the kernel to
    all nodes at once in canonical coordinates.  f_pole is f(pole), which
    the caller has already evaluated."""

    f: Evaluator
    pole: PentaComplex
    f_pole: PentaComplex


def integrate(f: Evaluator, path: Path, samples_per_segment: int = 64) -> PentaComplex:
    """Integral of f(u) du along the polyline by composite Gauss-Legendre
    quadrature with samples_per_segment nodes on every segment.

    The nodes of a segment are split into panels of at most PANEL nodes;
    du is the segment vector scaled by each node's weight.  For the pole
    integrand f(u) * (u - u0)^-1 the value is that of the smooth remainder
    (f(u) - f(u0)) * (u - u0)^-1 alone, on which the rule converges
    geometrically for analytic f; the caller adds the pole term.  f is
    called once, with the batch of all nodes, and at each node only where
    that call gives no finite batch of values (see _evaluate).  A count
    that is not a whole number >= 1 raises ValueError.
    """
    samples_per_segment = _check_count("samples_per_segment", samples_per_segment, 1)
    pole = None
    if isinstance(f, _PoleIntegrand):
        f, pole, f_pole = f.f, f.pole, f.f_pole
    verts = path._array
    ends = _ends(verts, path.closed)
    starts = verts[:len(ends)]
    t, w = _segment_rule(samples_per_segment)
    origin = np.zeros(DIM) if pole is None else np.array(pole.components)
    # a value beyond the float range becomes inf or nan without a warning;
    # the divisor-of-zero guard, _evaluate and _assemble raise typed errors
    # for it
    with np.errstate(all="ignore"):
        steps = ends - starts
        nodes = (starts[:, None, :] + t[:, None] * steps[:, None, :]).reshape(-1, DIM)
        du = (w[:, None] * steps[:, None, :]).reshape(-1, DIM)
        # around a pole the vertices follow the nodes: one transform and one
        # divisor-of-zero guard for both
        rel = nodes if pole is None else np.concatenate((nodes, verts)) - origin
        canon = np.concatenate((rel, du)) @ _CANON.T
        rel_c, kernel = canon[:len(nodes)], canon[len(rel):]
        if pole is not None:
            _invertible(rel, canon[:len(rel)], len(nodes))
            kernel = _by_part((np.divide,) * 3, kernel, rel_c)
        values = _evaluate(f, nodes, rel_c + _CANON @ origin)
        if pole is not None:
            values -= _CANON @ np.array(f_pole.components)  # the smooth remainder
        (lv, v1, v2), (lk, k1, k2) = _parts(values), _parts(kernel)
        line = float((lv * lk).sum())
        # each plane's products are summed in row order, the order of a sum
        # along the rows of their (n, 2) array
        z1, z2 = (complex(np.add.accumulate(v * k)[-1]) for v, k in ((v1, k1), (v2, k2)))
    return _assemble(line, z1, z2)


def _nodes_per_segment(samples: float, path: Path) -> int:
    """Nodes per segment for a budget of `samples` nodes in all: at least 1."""
    return max(1, round(samples / (len(path.vertices) - (not path.closed))))


def residue_formula(f: Evaluator, path: Path, u0: PentaComplex,
                    samples: int = 4096,
                    tol_edge: float | None = None) -> tuple[PentaComplex, PentaComplex]:
    """Both sides of the pole identity for a closed loop around u0.

    rhs is 2*pi*f(u0)*(~e1*n1 + ~e2*n2) with n_k the winding number of the
    loop's plane-k projection around the projected pole, whose edge
    tolerance is `tol_edge` (see winding).  lhs is the integral of
    f(u) * (u - u0)^-1 du over the loop: the pole term f(u0) * (u - u0)^-1,
    whose integral is rhs exactly, plus the composite Gauss-Legendre
    quadrature of the smooth remainder (f(u) - f(u0)) * (u - u0)^-1, with
    `samples` the total node budget spread evenly over the segments.  f is
    called at u0 and once with the batch of all nodes; only where that call
    raises, returns anything but a batch or gives a value that is not
    finite is f called at each node instead.  The loop must avoid the
    divisor-of-zero sets of u - u0 (vplus = 0 or either plane radius 0); a
    vertex or node on them raises NonInvertibleOnPath, and one where u - u0
    or its canonical coordinates leave the float range raises Overflow.
    `samples` below 1 or not finite raises ValueError, as in integrate.
    """
    return _pole_identity(f, path, u0, samples, tol_edge)[:2]


def _pole_identity(f: Evaluator, path: Path, u0: PentaComplex, samples: int,
                   tol_edge: float | None) -> tuple[PentaComplex, PentaComplex, tuple[int, int]]:
    """residue_formula's (lhs, rhs), and the windings (n1, n2) it took."""
    if not path.closed:
        raise ValueError("the pole identity needs a closed path")
    if not 1 <= samples < math.inf:
        raise ValueError(f"samples must be finite and >= 1, got {samples}")
    xi = rotated_coords(u0)
    windings = []
    for k, point in ((1, (xi.xi1, xi.eta1)), (2, (xi.xi2, xi.eta2))):
        try:
            windings.append(winding(point, project(path, k), tol=tol_edge))
        except OnBoundary as exc:
            raise PoleOnPath(f"projected pole touches the plane-{k} projection") from exc
    n1, n2 = windings
    f_u0 = _call(f, u0)
    # only the azimuths are cyclic: around the loop the pole term
    # f(u0) * (u - u0)^-1 du integrates to 2*pi*i*n_k on plane k and to 0
    # on the line
    lhs = (integrate(_PoleIntegrand(f, u0, f_u0), path, _nodes_per_segment(samples, path))
           + f_u0 * _assemble(0.0, complex(0.0, TWO_PI * n1), complex(0.0, TWO_PI * n2)))
    rhs = TWO_PI * (f_u0 * (n1 * E1_TILDE + n2 * E2_TILDE))
    return lhs, rhs, (n1, n2)


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
    identity requires; both default to 0.75 * radius.  A radius or offset
    that is not finite, a radius <= 0 or a vertex count that is not a whole
    number >= 3 raises ValueError.
    """
    plane = _check_index("plane index", plane, 1, 2)
    line_offset, other_offset = (0.75 * radius if x is None else x
                                 for x in (line_offset, other_offset))
    for name, x in (("radius", radius), ("line_offset", line_offset),
                    ("other_offset", other_offset)):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    vertices = _check_count("vertices", vertices, 3)
    ek, tek = (E1, E1_TILDE) if plane == 1 else (E2, E2_TILDE)
    other = E2 if plane == 1 else E1
    base = center + line_offset * E_PLUS + other_offset * other
    angles = (TWO_PI * i / vertices for i in range(vertices))
    return Path(tuple(base + radius * math.cos(t) * ek + radius * math.sin(t) * tek
                      for t in angles), closed=True)
