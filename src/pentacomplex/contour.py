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
import sys
from dataclasses import dataclass
from itertools import chain
from numbers import Real

import numpy as np

from .algebra import (DIM, Evaluator, PentaComplex, _call, _check_count, _check_index,
                      _check_tol, _element, _result)
from .canonical import (E1, E1_TILDE, E2, E2_TILDE, E_PLUS, TAU_REL, TWO_PI,
                        _CANON_ROWS, _assemble, _canon, rotated_coords, rotation_matrix)
from .errors import NonInvertibleOnPath, OnBoundary, Overflow, PoleOnPath

# projected pole/point must stay this far from every projected edge
TAU_EDGE = 1e-9

# most Gauss-Legendre nodes in one panel; a segment with n nodes is cut into
# ceil(n / PANEL) panels of equal width
PANEL = 8

# canonical._to_canon_comps as a matrix, for arrays of elements (one per row)
_CANON = np.array(_CANON_ROWS)
# its transpose, contiguous: rows of components times it are rows of
# canonical coordinates (numpy's product takes twice as long on _CANON.T)
_CANON_T = np.ascontiguousarray(_CANON.T)
# rows are the rotated orthonormal axes
_ROT = rotation_matrix()

# canonical._from_canon_comps as a matrix: rows of canonical coordinates
# times it are rows of components
_FROM_CANON = np.array([e.components for e in (E_PLUS, E1, E1_TILDE, E2, E2_TILDE)])
# winding works on the vertices as given where the largest distance from
# the point to a vertex lies between _FLOOR and _CEILING, and otherwise
# scales everything by a power of two; its edge screen runs only in that
# range, where every rounding error is relative to the largest distance, and
# every edge's bound must clear twice the cutoff by _EDGE_ROUNDING times it
_CEILING = 2.0 ** 1022
_FLOOR = 2.0 ** -1000
_EDGE_ROUNDING = 16 * sys.float_info.epsilon
# a batch whose line values and planes' real and imaginary parts are all
# at most this in magnitude has finite components: none exceeds
# (0.2 + 0.8*sqrt2) * _PART_MAX < 1.4 * 2**1020
_PART_MAX = 2.0 ** 1020


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
        # built once, for project and integrate, and not fields, so
        # equality, hash and repr see only vertices: the vertex components
        # as rows and (5, v) columns, the edge vectors as component rows
        # and canonical parts, and the two plane projections
        arr = np.fromiter(chain.from_iterable(v.components for v in verts), float,
                          DIM * len(verts)).reshape(-1, DIM)
        cols = np.ascontiguousarray(arr.T)
        ends = _ends(arr, self.closed)
        if (arr[:len(ends)] == ends).all(axis=1).any():
            raise ValueError("consecutive path vertices must be distinct")
        # a value beyond the float range becomes inf or nan, which integrate
        # and winding report
        with np.errstate(all="ignore"):
            steps = ends - arr[:len(ends)]
            edges = (steps, *_split(steps @ _CANON_T))
            projections = tuple(PlaneProjection._wrap(
                (arr @ _ROT[2 * k - 1:2 * k + 1].T).view(np.complex128).ravel(), k, self.closed)
                for k in (1, 2))
        for a in (arr, cols, *edges):
            a.flags.writeable = False
        object.__setattr__(self, "_array", arr)
        object.__setattr__(self, "_columns", cols)
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_projections", projections)

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


@dataclass(frozen=True)
class PlaneProjection:
    """2D shadow of a path on one canonical plane (unit-length axes).

    The vertices are also held as one read-only complex array x + i*y, and
    the edge lengths as another, which `winding` reads; a Path builds its
    two projections once, and their `points` when first read.
    """

    points: tuple[tuple[float, float], ...]
    plane: int
    closed: bool = False

    def __post_init__(self):
        try:
            xy = np.array(self.points, dtype=float)
            if xy.shape == (0,):  # no points
                xy = xy.reshape(0, 2)
            if xy.ndim != 2 or xy.shape[1] != 2 or not np.isfinite(xy).all():
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError("every projected point needs two finite real coordinates") from None
        _check_closed(self.closed)
        plane = _check_index("plane index", self.plane, 1, 2)
        with np.errstate(over="ignore"):  # an edge beyond the float range is inf long
            built = self._wrap(xy.view(np.complex128).ravel(), plane, self.closed)
        self.__dict__.update(vars(built), points=tuple(map(tuple, xy.tolist())))

    @classmethod
    def _wrap(cls, z: np.ndarray, plane: int, closed: bool) -> "PlaneProjection":
        """The projection on the complex vertex array z, which it keeps, with
        its edge lengths |_ends(z) - z|, both made read-only, under the
        caller's np.errstate; its points are built when first read."""
        ends = _ends(z, closed)
        lengths = np.abs(ends - z[:len(ends)])
        z.flags.writeable = lengths.flags.writeable = False
        self = object.__new__(cls)
        self.__dict__.update(_z=z, _lengths=lengths, plane=plane, closed=closed)
        return self

    def __getattr__(self, name):
        # reached only for a missing attribute: the points of a _wrap, or
        # Python's usual AttributeError
        if name != "points":
            return object.__getattribute__(self, name)
        xy = self._z.view(float).reshape(-1, 2).tolist()
        points = self.__dict__["points"] = tuple(map(tuple, xy))
        return points

    def __reduce__(self):
        return (type(self), (self.points, self.plane, self.closed))


def _check_closed(closed) -> None:
    """The one rule for `closed`: a bool; anything else raises ValueError."""
    if not isinstance(closed, bool):
        raise ValueError(f"closed must be true or false, got {closed!r}")


def _ends(rows: np.ndarray, closed: bool) -> np.ndarray:
    """The end of each segment of a polyline with these vertex rows."""
    return np.concatenate((rows[1:], rows[:1])) if closed else rows[1:]


def project(path: Path, k: int) -> PlaneProjection:
    """The path's projection onto canonical plane k (k = 1 or 2), built
    with the path."""
    return path._projections[_check_index("plane index", k, 1, 2) - 1]


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
    the largest distance `far` from the point to a vertex, so it scales with
    the polygon; the message quotes the cutoff applied.  The edge parameters
    and the angles are quotients of the vertices relative to the point
    (complex numbers), so they stay in range at scales where products of
    coordinates under- or overflow (beyond about 1e+-154).

    One rescale rule covers both ends of the float range.  Where `far` lies
    outside (2**-1000, 2**1022), the point, the vertices and the cutoff are
    scaled by the power of two 2**-e that brings the largest coordinate
    into [0.5, 1) (np.ldexp, exact but for parts that fall below 2**-1074
    there), so no difference, distance or edge overflows and no quotient
    divides by a subnormal number; the message quotes the cutoff scaled
    back.  Inside that range nothing is scaled.

    The edge test is screened there first.  With a the vertices relative
    to the point, no point of edge i is nearer the point than |a_i| minus
    the edge's length (the triangle inequality); the lengths are the ones
    the polygon carries, built once with it from its own vertices.  Where
    every edge's bound exceeds twice the cutoff by 16*eps*far, the test is
    skipped: in that range every rounding error is relative to `far` or to
    an edge, and no edge is longer than 2*far.  A distance |a_i| lies at
    most eps*far above the true one, a stored length (the rounded modulus
    of the rounded difference of two vertices) at most 2*eps*far below,
    and their difference rounds by at most eps*far, so the computed bounds
    lie at most 4*eps*far above the true ones; the distances the test
    computes lie at most 3*eps*far below, so none of them could reach the
    cutoff and the result is the one the test would give.  A length taken
    from a longer vector, such as the 5-D edge whose shadow the projected
    edge is, would round relative to that vector and could fall below the
    true one by more than the margin.  Otherwise (a point near an edge,
    edges longer than the point's distance from them, or a rescaled
    polygon) the test runs, on the edge vectors d formed there.

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
    z = polygon._z
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a = z - complex(x, y)
        dist = np.abs(a)
        far = float(np.maximum.reduce(dist, initial=0.0))
        screen = _FLOOR < far < _CEILING
        e = 0
        if not screen:
            largest = np.maximum.reduce(np.abs(z.view(float)), initial=max(abs(x), abs(y)))
            e = math.frexp(largest)[1]
            a = np.ldexp(z.view(float), -e).view(np.complex128) - complex(math.ldexp(x, -e),
                                                                            math.ldexp(y, -e))
            far = float(np.maximum.reduce(np.abs(a), initial=0.0))
        b = _ends(a, True)
        cutoff = TAU_EDGE * far if tol is None else float(np.ldexp(tol, -e))
        if not (screen and np.minimum.reduce(dist - polygon._lengths)
                > 2.0 * cutoff + _EDGE_ROUNDING * far):
            # nearest point of each edge to the origin (the point) at
            # a + t*d, with t = -(a . d)/|d|^2 = -Re(a/d), clipped (a
            # quotient beyond the float range clips to an end); a
            # zero-length edge is its own nearest point
            d = b - a
            t = np.minimum(np.maximum(-(a / d).real, 0.0), 1.0)
            t[d == 0.0] = 0.0
            close = np.abs(a + t * d) <= cutoff
            if close.any():
                shown = math.ldexp(cutoff, e) if tol is None else tol
                raise OnBoundary(f"point {point} is within {shown:.3g} of edge "
                                 f"{int(close.argmax())}")
        q = b / a
        turns = float(np.add.reduce(np.arctan2(q.imag, q.real))) / TWO_PI
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


def _split(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of canonical coordinates (one per node or edge) as a batch's
    parts: the line column and the planes v_k + i*tv_k as (2, n), contiguous copies."""
    return rows[:, 0].copy(), rows[:, 1:].view(np.complex128).T.copy()


def _join(line: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """A batch's parts as rows of canonical coordinates, one per node."""
    rows = np.empty((line.size, DIM))
    rows[:, 0] = line
    rows[:, 1:].view(np.complex128)[:] = planes.T
    return rows


def _column(canon) -> tuple[np.ndarray, np.ndarray]:
    """One element's canonical coordinates as parts that broadcast against
    a batch's: a line of one value and planes of shape (2, 1)."""
    c = np.asarray(canon, dtype=float)
    return c[:1], c[1:].view(np.complex128).reshape(2, 1)


def _operand(x, scalars: bool = False) -> tuple:
    """The parts of an operand of a batch, to broadcast against its own: a
    batch's, an element's and, given `scalars`, a real scalar's as x times
    the ring's 1 (1 on the line and 1 + 0i on each plane)."""
    if isinstance(x, _Batch):
        return x.line, x.planes
    if isinstance(x, PentaComplex):
        return _column(_canon(x))
    if scalars and isinstance(x, Real):
        x = float(x)
        return x, complex(x, x * 0.0)
    raise TypeError(f"unsupported operand for a batch of elements: {type(x).__name__}")


class _Batch:
    """Ring elements at many nodes, held in canonical coordinates as two
    contiguous parts: `line`, a float64 array of the n line values, and
    `planes`, a complex128 array of shape (2, n) whose rows are the two
    planes.  There the ring is R x C x C, so its arithmetic is elementwise,
    and each operation is one numpy call on the line and one on the
    stacked planes.  The operators are those of PentaComplex: +, -, unary -
    and * with a batch, a PentaComplex or a real scalar, and / by a real
    scalar; multiply, elementary's builtins and analytic's component
    polynomials reach `product`, `lift` and `horner`.  A batch has no
    components, so an evaluator that reads them raises.  Nothing is checked
    on the way: a value beyond the float range becomes inf or nan, which
    _evaluate tests once, on the result."""

    __slots__ = ("line", "planes")
    __array_ufunc__ = None  # a numpy operand defers to these operators
    __hash__ = None

    def __init__(self, line: np.ndarray, planes: np.ndarray):
        self.line = line
        self.planes = planes

    def __add__(self, other):
        line, planes = _operand(other, True)
        return _Batch(self.line + line, self.planes + planes)

    __radd__ = __add__

    def __sub__(self, other):
        line, planes = _operand(other, True)
        return _Batch(self.line - line, self.planes - planes)

    def __rsub__(self, other):
        line, planes = _operand(other, True)
        return _Batch(line - self.line, planes - self.planes)

    def __neg__(self):
        return _Batch(-self.line, -self.planes)

    def __mul__(self, other):
        if isinstance(other, Real):
            return self._scaled(float(other))
        return self.product(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Real):
            raise TypeError(f"a batch of elements divides only by a real scalar, "
                            f"not {type(other).__name__}")
        # as PentaComplex: times the reciprocal, and a zero raises
        return self._scaled(1.0 / float(other))

    def __eq__(self, other):
        # the nodes' values differ, so no single truth value is right
        raise TypeError("a batch of elements cannot be compared")

    def _scaled(self, x: float) -> "_Batch":
        # the planes' real and imaginary parts each times x: a complex
        # product with x + 0i would add 0 * the other part (nan beside an inf)
        return _Batch(self.line * x, (self.planes.view(np.float64) * x).view(np.complex128))

    def product(self, other) -> "_Batch":
        """The ring product with a batch or an element (multiply)."""
        line, planes = _operand(other)
        return _Batch(self.line * line, self.planes * planes)

    def lift(self, line_fn, plane_fn) -> "_Batch":
        """line_fn on the line and plane_fn on the planes, each applied as
        the numpy ufunc of the same name (elementary's builtins)."""
        return _Batch(getattr(np, line_fn.__name__)(self.line),
                      getattr(np, plane_fn.__name__)(self.planes))

    def horner(self, pplus, p1, p2) -> "_Batch":
        """The real polynomial pplus on the line and the complex p1, p2 on
        the planes, coefficients descending (ComponentPolynomials.evaluate):
        one loop on the line, and one on the stacked planes against the
        coefficient columns (p1[j], p2[j]), converted once.  Each step is
        np.polyval's y = y*x + c from y = 0, the product out of place (an
        in-place complex product may take another numpy loop) and the sum,
        exactly rounded either way, in place; so the bits are np.polyval's
        on each part."""
        x, z = self.line, self.planes
        wp = np.zeros_like(x)
        for a in np.array(pplus, dtype=float):
            wp = wp * x
            wp += a
        w = np.zeros_like(z)
        for col in np.array((p1, p2), dtype=complex).T[:, :, None]:
            w = w * z
            w += col
        return _Batch(wp, w)

    def _finite(self) -> bool:
        """Whether every component is finite.  A batch whose line values and
        planes' real and imaginary parts are all at most _PART_MAX in
        magnitude passes at once; otherwise the components are assembled
        and tested."""
        if (np.abs(self.line).max() <= _PART_MAX
                and np.abs(self.planes.view(np.float64)).max() <= _PART_MAX):
            return True
        return bool(np.isfinite(_join(self.line, self.planes) @ _FROM_CANON).all())


def _evaluate(f: Evaluator, nodes: _Batch, rows) -> _Batch:
    """f's values at every node of the batch `nodes`, as a batch, under
    integrate's np.errstate; rows() gives the nodes' component rows.

    f is called once with the batch.  Its value is used when it is a batch
    of the same shape whose components are all finite (see
    _Batch._finite).  Otherwise (f raised, returned anything else, or a
    component is not finite) f is called at each node of rows(), where a
    failure raises the typed error of the scalar route.
    """
    try:
        out = f(nodes)
    except Exception:  # whatever went wrong, the per-node calls report it
        out = None
    if (isinstance(out, _Batch) and out.line.shape == nodes.line.shape
            and out.planes.shape == nodes.planes.shape and out._finite()):
        return out
    values = chain.from_iterable(_call(f, _result(*c)).components for c in rows().tolist())
    return _Batch(*_split(np.fromiter(values, float, nodes.line.size * DIM).reshape(-1, DIM)
                          @ _CANON_T))


def _invertible(line: np.ndarray, planes: np.ndarray, rows, nodes: int) -> None:
    """inverse's divisor-of-zero test on u - u0 at the quadrature nodes and
    then at the path's vertices (from entry `nodes` on), given as canonical
    parts (line and (2, n) planes); rows() gives u - u0's component rows,
    built only where the screen leaves the verdict open.  A value beyond
    the float range raises Overflow.  This array guard keeps its own test:
    canonical._guard is the scalar route's, and a change to the one does
    not carry over to the other."""
    # the screen, on the parts alone.  |u|^2 = (vplus^2 + 2*rho1^2 +
    # 2*rho2^2)/5 puts |u| below 0.64*(|vplus| + rho1 + rho2); the factor 2
    # covers the rounding.  A value that passes passes the test below; inf
    # and nan fail it
    a, r = np.abs(line), np.abs(planes)
    least = np.minimum(a, np.minimum(r[0], r[1]))
    if (least > (2.0 * TAU_REL) * (a + r[0] + r[1])).all():
        return

    def at(i: int) -> str:
        return f"quadrature node {i}" if i < nodes else f"vertex {i - nodes}"

    rel = rows()
    finite = np.isfinite(rel).all(axis=1) & np.isfinite(line) & np.isfinite(planes).all(axis=0)
    if not finite.all():
        raise Overflow(f"u - u0 exceeds the floating-point range at {at(int(finite.argmin()))}")
    # moduli by hypot (a complex abs is one), so no square under- or
    # overflows; |p1| is hypot(x1, x2) and |p2| hypot(x3, x4).  fmin skips a
    # NaN as `or` would
    p = np.abs(rel[:, 1:].view(np.complex128))
    tol = TAU_REL * np.hypot(rel[:, 0], np.hypot(p[:, 0], p[:, 1]))
    bad = np.fmin(a, np.fmin(r[0], r[1])) <= tol
    if bad.any():
        i = int(bad.argmax())
        raise NonInvertibleOnPath(f"u - u0 = {PentaComplex(*rel[i])!r} is a divisor "
                                  f"of zero at {at(i)}")


class _PoleIntegrand:
    """The integrand f(u) * (u - pole)^-1 of the pole identity, of which
    integrate returns the smooth remainder's part, applying the kernel to
    all nodes at once in canonical coordinates.  f_pole is f(pole), which
    the caller has already evaluated."""

    __slots__ = ("f", "pole", "f_pole")

    def __init__(self, f: Evaluator, pole: PentaComplex, f_pole: PentaComplex):
        self.f, self.pole, self.f_pole = f, pole, f_pole


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

    The work runs on the canonical parts.  u - u0 is formed in components
    on the path's (5, v) vertex columns and transformed; the edge vectors
    were formed and transformed once, with the path.  The nodes (relative
    to u0) and du follow on each part by broadcasting, start + step*t and
    step*w, as a contiguous line array and (2, n) planes, and the kernel,
    the shift by u0, f(u0)'s subtraction and the sums run on them.
    Component rows of the nodes are built only for the per-node route and
    the exact divisor-of-zero test.
    """
    samples_per_segment = _check_count("samples_per_segment", samples_per_segment, 1)
    pole = None
    if isinstance(f, _PoleIntegrand):
        f, pole, f_pole = f.f, f.pole, f.f_pole
    verts = path._array
    steps, step_line, step_planes = path._edges
    s = len(steps)
    t, w = _segment_rule(samples_per_segment)
    origin = np.zeros(DIM) if pole is None else np.array(pole.components)

    def node_rows() -> np.ndarray:
        return (verts[:s, None, :] + t[:, None] * steps[:, None, :]).reshape(-1, DIM)

    # a value beyond the float range becomes inf or nan without a warning;
    # the divisor-of-zero guard, _evaluate and _assemble raise typed errors
    # for it
    with np.errstate(all="ignore"):
        # u - u0 at the vertices, formed in components and transformed:
        # row 0 is the line, rows 1-4 the planes' real and imaginary parts
        rel = _CANON @ (path._columns if pole is None else path._columns - origin[:, None])
        rel_line, rel_planes = rel[0], np.empty((2, rel.shape[1]), np.complex128)
        rel_planes.real, rel_planes.imag = rel[1::2], rel[2::2]
        # the nodes (relative to u0) and du, segment by segment on each part
        node_line = step_line[:, None] * t
        node_line += rel_line[:s, None]
        node_planes = step_planes[..., None] * t
        node_planes += rel_planes[:, :s, None]
        node_line, node_planes = node_line.ravel(), node_planes.reshape(2, -1)
        # du, which around a pole becomes the kernel du / (u - u0)
        du_line = (step_line[:, None] * w).ravel()
        du_planes = (step_planes[..., None] * w).reshape(2, -1)
        if pole is not None:
            # one guard for the nodes and the vertices
            _invertible(np.concatenate((node_line, rel_line)),
                        np.concatenate((node_planes, rel_planes), axis=1),
                        lambda: np.concatenate((node_rows(), verts)) - origin, node_line.size)
            du_line /= node_line
            du_planes /= node_planes
            o_line, o_planes = _column(origin @ _CANON_T)
            node_line += o_line
            node_planes += o_planes
        values = _evaluate(f, _Batch(node_line, node_planes), node_rows)
        line, planes = values.line, values.planes
        if pole is not None:
            # the smooth remainder
            f_line, f_planes = _column(np.array(f_pole.components) @ _CANON_T)
            line, planes = line - f_line, planes - f_planes
        z1, z2 = np.add.reduce(planes * du_planes, axis=1).tolist()
        line = float(line @ du_line)
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


@functools.lru_cache(maxsize=16)
def _pole_direction(n1: int, n2: int) -> PentaComplex:
    """~e1*n1 + ~e2*n2, the pole term's direction for the windings (n1, n2)."""
    return n1 * E1_TILDE + n2 * E2_TILDE


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
    # on the line, which is rhs
    rhs = TWO_PI * (f_u0 * _pole_direction(n1, n2))
    lhs = integrate(_PoleIntegrand(f, u0, f_u0), path, _nodes_per_segment(samples, path)) + rhs
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
