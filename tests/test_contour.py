import cmath
import copy
import math
import os
import pickle
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentacomplex import (ONE, ZERO, EvaluationFailed, NonInvertible,
                          NonInvertibleOnPath, OnBoundary, Overflow, Path,
                          PentaComplex, PoleOnPath, PowerSeries, contour, cos,
                          cosh, elementary, exp, integrate, inverse, multiply,
                          plane_circle, pow_real, project, project_point,
                          residue_formula, series_eval, sin, sinh, winding)
from pentacomplex.algebra import _result
from pentacomplex.analytic import series_eval_components
from pentacomplex.canonical import (E1, E1_TILDE, E2, E2_TILDE, E_PLUS, _canon,
                                    _from_canon_comps, _to_canon_comps)
from pentacomplex.contour import PlaneProjection

TWO_PI = 2 * math.pi


def dev(u, v):
    return max(abs(a - b) for a, b in zip(u, v))


def scalar(x):
    return PentaComplex.scalar(x)


def test_path_validation():
    with pytest.raises(ValueError):
        Path((ONE,), closed=False)
    with pytest.raises(ValueError):
        Path((ONE, ONE), closed=False)
    with pytest.raises(ValueError):
        # closed wrap would create a zero-length segment
        Path((ONE, 2.0 * ONE, ONE), closed=True)
    p = Path((ZERO, ONE), closed=False)
    assert len(p.segments()) == 1
    p = Path((ZERO, ONE, ONE + E1), closed=True)
    assert len(p.segments()) == 3


def test_path_serialization_roundtrip():
    p = Path((ZERO, ONE, 2.0 * ONE + E1), closed=True)
    assert Path.from_dict(p.to_dict()) == p


def test_path_from_dict_takes_only_a_bool_for_closed():
    verts = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]
    assert Path.from_dict({"vertices": verts}).closed is False
    assert Path.from_dict({"vertices": verts, "closed": True}).closed is True
    # bool("false") is True: a JSON string once built a closed loop
    for closed in ("false", "true", 0, 1, None, [True]):
        with pytest.raises(ValueError, match="closed must be true or false"):
            Path.from_dict({"vertices": verts, "closed": closed})


def test_path_and_plane_projection_take_only_a_bool_for_closed():
    verts = (ZERO, ONE, ONE + E1)
    pts = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0))
    # bool("false") is True, so a truthiness test would build a closed loop
    # whose to_dict() from_dict refuses
    for closed in ("false", "no", 0, 1, None, np.True_):
        with pytest.raises(ValueError, match="^closed must be true or false, got "):
            Path(verts, closed)
        with pytest.raises(ValueError, match="^closed must be true or false, got "):
            PlaneProjection(pts, 1, closed)
    for closed in (False, True):
        p = Path(verts, closed)
        assert Path.from_dict(p.to_dict()) == p
        assert PlaneProjection(pts, 1, closed).closed is closed


def test_plane_projection_takes_only_plane_1_or_2():
    # by project's rule; a plane of 7 or "x" once built a projection
    pts = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0))
    for plane in (7, 0, 3, -1, 1.5, "x", "1", None):
        with pytest.raises(ValueError, match="^plane index must be 1 or 2, got "):
            PlaneProjection(pts, plane, True)
    assert PlaneProjection(pts, 2.0, True).plane == 2
    assert PlaneProjection(pts, np.int64(1), True) == PlaneProjection(pts, 1, True)


def pair_loop_rejects(verts, closed):
    """The per-pair Python check that Path's array comparison replaced, kept
    as its reference."""
    pairs = list(zip(verts, verts[1:]))
    if closed:
        pairs.append((verts[-1], verts[0]))
    return any(a.components == b.components for a, b in pairs)


def path_rejects(verts, closed):
    try:
        Path(tuple(verts), closed)
    except ValueError as exc:
        assert str(exc) == "consecutive path vertices must be distinct"
        return True
    return False


def test_path_validation_matches_the_pair_loop():
    a, b, c = PentaComplex(0.0, 1.0, 0.0, 0.0, 0.0), ONE, ONE + E1
    neg = PentaComplex(-0.0, 1.0, 0.0, -0.0, 0.0)  # equal to a: -0.0 == 0.0
    cases = [[a, b], [a, a], [a, neg], [a, b, c], [a, b, a], [a, b, neg],
             [a, b, b, c], [a, b, c, a], [neg, b, c, a], [a, c, c]]
    rng = np.random.default_rng(71)
    for _ in range(200):  # short paths over three values, so repeats are common
        n = int(rng.integers(2, 7))
        cases.append([(a, b, neg)[i] for i in rng.integers(0, 3, n)])
    for verts in cases:
        for closed in (False, True):
            assert path_rejects(verts, closed) == pair_loop_rejects(verts, closed), \
                (verts, closed)


def test_path_equality_hash_repr_and_pickle_see_only_the_fields():
    verts = (ZERO, ONE, 2.0 * ONE + E1)
    p = Path(verts, closed=True)
    assert p == Path(list(verts), closed=True) and p != Path(verts, closed=False)
    assert hash(p) == hash((verts, True))
    assert repr(p) == f"Path(vertices={verts!r}, closed=True)"
    # the pickled state is the two fields, as before the arrays existed;
    # pickle, copy and from_dict rebuild the rows and the columns
    assert p.__reduce_ex__(4)[2] == {"vertices": verts, "closed": True}
    for q in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p),
              Path.from_dict(p.to_dict())):
        assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
        for name in ("_array", "_columns"):
            got, want = getattr(q, name), getattr(p, name)
            assert got is not want and not got.flags.writeable
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_project_constant_and_circle():
    u0 = PentaComplex(0.5, -0.2, 0.1, 0.3, -0.4)
    loop = plane_circle(u0, 1, 1.0, 0.5, 0.5, vertices=64)
    proj1 = project(loop, 1)
    proj2 = project(loop, 2)
    cx, cy = project_point(u0, 1)
    # plane-1 shadow: circle of radius sqrt(2/5) around the projected centre
    radii = [math.hypot(x - cx, y - cy) for x, y in proj1.points]
    want = math.sqrt(2 / 5)
    assert max(abs(r - want) for r in radii) <= 1e-12
    # plane-2 shadow: a single repeated point
    xs = {round(x, 12) for x, _ in proj2.points}
    ys = {round(y, 12) for _, y in proj2.points}
    assert len(xs) == 1 and len(ys) == 1


def test_projection_is_linear():
    rng = np.random.default_rng(60)
    for _ in range(20):
        u = PentaComplex(*rng.uniform(-2, 2, 5))
        x1, y1 = project_point(u, 1)
        x2, y2 = project_point(3.0 * u, 1)
        assert abs(x2 - 3 * x1) <= 1e-13 and abs(y2 - 3 * y1) <= 1e-13


def square_projection(closed=True):
    pts = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))
    return PlaneProjection(points=pts, plane=1, closed=closed)


def test_winding_square():
    assert winding((0.0, 0.0), square_projection()) == 1
    assert winding((3.0, 0.0), square_projection()) == 0
    assert winding((0.0, 0.0), square_projection()) == 1
    with pytest.raises(ValueError):
        winding((0.0, 0.0), square_projection(closed=False))
    with pytest.raises(OnBoundary):
        winding((1.0, 0.0), square_projection())


def test_winding_double_loop():
    pts = []
    for i in range(128):
        t = 2 * TWO_PI * i / 128  # two full turns
        pts.append((math.cos(t), math.sin(t)))
    poly = PlaneProjection(points=tuple(pts), plane=1, closed=True)
    assert winding((0.0, 0.0), poly) == 2
    reversed_poly = PlaneProjection(points=tuple(reversed(pts)), plane=1, closed=True)
    assert winding((0.0, 0.0), reversed_poly) == -2


UNIT_SQUARE = PlaneProjection(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)), 1, True)


@pytest.mark.parametrize("point, tol, message", [
    ((math.nan, 0.5), None, "point must be finite"),
    ((0.5, math.inf), None, "point must be finite"),
    ((-math.inf, math.nan), 1e-3, "point must be finite"),
    ((0.0, 0.0), -1.0, "tol must be None or >= 0"),
    ((0.5, 0.0), math.nan, "tol must be None or >= 0"),
])
def test_winding_rejects_a_non_finite_point_and_a_nan_or_negative_tol(point, tol, message):
    # these raised "cannot convert float NaN to integer", and a nan tol
    # returned 0 for the point on edge 0, which the default tol rejects
    with pytest.raises(ValueError, match=message):
        winding(point, UNIT_SQUARE, tol)
    with pytest.raises(OnBoundary):
        winding((0.5, 0.0), UNIT_SQUARE)
    assert winding((0.5, 0.5), UNIT_SQUARE, 0.0) == 1


def test_residue_formula_rejects_a_nan_or_negative_edge_tolerance():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = plane_circle(u0, 1, 1.0, vertices=16)
    for tol in (math.nan, -1e-9):
        with pytest.raises(ValueError, match="tol must be None or >= 0"):
            residue_formula(exp, loop, u0, samples=64, tol_edge=tol)


@pytest.mark.parametrize("samples", [math.nan, math.inf, 0, -64, 0.5])
def test_residue_formula_rejects_a_node_budget_below_one(samples):
    # nan raised a raw ValueError from round, inf an OverflowError, and a
    # budget below 1 silently took 1 node per segment
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = plane_circle(u0, 1, 1.0, vertices=16)
    with pytest.raises(ValueError, match="samples must be finite and >= 1"):
        residue_formula(exp, loop, u0, samples=samples)


def test_plane_projection_fields_equality_hash_repr_and_pickle():
    pts = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0))
    proj = PlaneProjection(points=pts, plane=1, closed=True)
    same = (PlaneProjection([list(pt) for pt in pts], 1, True),
            PlaneProjection(pts, 1, closed=True),
            PlaneProjection(((1, 1), (-1, 1), (-1, -1)), 1, True),
            pickle.loads(pickle.dumps(proj)), copy.copy(proj), copy.deepcopy(proj))
    for other in same:
        assert other == proj and hash(other) == hash(proj) and repr(other) == repr(proj)
        assert all(type(x) is float for pt in other.points for x in pt)
    assert (proj.points, proj.plane, proj.closed) == (pts, 1, True)
    assert repr(proj) == f"PlaneProjection(points={pts!r}, plane=1, closed=True)"
    assert PlaneProjection(pts, 1).closed is False
    assert proj != PlaneProjection(pts, 2, True) and proj != PlaneProjection(pts, 1)
    assert proj != PlaneProjection(pts[:2], 1, True) and proj != pts
    assert PlaneProjection((), 1, True).points == ()
    for name in ("points", "plane", "closed", "other"):
        with pytest.raises(FrozenInstanceError):
            setattr(proj, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(proj, name)
    for bad in ([(1.0, 2.0, 3.0)], [(1.0,)], [(1.0, 2.0), (3.0,)], [[]], [1.0, 2.0],
                [("x", 1.0)], [(1, 0), (math.nan, 1), (-1, 0)], [(1, 0), (math.inf, 1), (-1, 0)],
                [(1, 0), (0, -math.inf), (-1, 0)]):
        with pytest.raises(ValueError):
            PlaneProjection(bad, 1)


def test_project_points_are_the_rotated_rows():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    open_path = Path((u0, u0 + E1, u0 + E2_TILDE), closed=False)
    for path in (plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=64), both_planes_loop(u0),
                 open_path):
        for k in (1, 2):
            proj = project(path, k)
            want = tuple(project_point(u, k) for u in path.vertices)
            assert proj.points == want
            assert proj == PlaneProjection(want, k, path.closed)
            assert (proj.plane, proj.closed) == (k, path.closed)


def winding_outcome(point, polygon, tol):
    """winding, or the edge an OnBoundary names (its message also quotes
    the point and the tolerance, which scale)."""
    try:
        return winding(point, polygon, tol)
    except OnBoundary as exc:
        return str(exc).rsplit(" of ", 1)[1]


def test_winding_is_scale_free():
    rng = np.random.default_rng(62)
    polygons = [rng.uniform(-1, 1, (int(rng.integers(3, 24)), 2)) for _ in range(30)]
    polygons.append(np.array([(math.cos(TWO_PI * 3 * i / 7), math.sin(TWO_PI * 3 * i / 7))
                              for i in range(7)]))
    tol = 1e-3  # large enough for some queries to touch an edge
    for pts in polygons:
        queries = np.concatenate((rng.uniform(-1.2, 1.2, (20, 2)), pts[:1],
                                  (pts[:1] + pts[1:2]) / 2 + 1e-4))
        want = [winding_outcome(tuple(q), PlaneProjection(pts, 1, True), tol)
                for q in queries.tolist()]
        # powers of two scale every coordinate exactly, from about 1e-300 to 1e300
        for k in (-996, -700, -300, -60, 60, 300, 700, 996):
            scale = 2.0 ** k
            poly = PlaneProjection(pts * scale, 1, True)
            got = [winding_outcome(tuple(q), poly, tol * scale)
                   for q in (queries * scale).tolist()]
            assert got == want, (pts, k)


def test_winding_near_the_float_ceiling():
    # numpy's quotient of two such vertices relative to the point overflows
    # inside and came back nan
    loop = plane_circle(PentaComplex(0.3, 0.1, -0.2, 0.05, 0.15), 1, 1.0, vertices=8)
    assert winding((1e308, 1e308), project(loop, 1)) == 0
    # around the origin, the vertex at 45 degrees has both coordinates at
    # 0.92e308
    octagon = PlaneProjection(np.array([(1.3e308 * math.cos(TWO_PI * i / 8),
                                         1.3e308 * math.sin(TWO_PI * i / 8))
                                        for i in range(8)]), 1, True)
    assert winding((0.0, 0.0), octagon) == 1
    # the point 1.41e308 from the origin, outside the octagon: a vertex
    # relative to it, and an edge, are beyond the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert winding((-1e308, 1e308), octagon) == 0
        # on an edge whose length is beyond the float range
        square = PlaneProjection([(1.2e308, -1e308), (1.2e308, 1e308),
                                  (-1.2e308, 1e308), (-1.2e308, -1e308)], 1, True)
        assert winding((0.0, 0.0), square) == 1
        for point, edge in (((0.0, -1e308), 3), ((1.2e308, 0.0), 0)):
            with pytest.raises(OnBoundary, match=f"within [0-9.e+]+ of edge {edge}$"):
                winding(point, square)


@pytest.mark.parametrize("r", [1e-200, 1e160])
def test_residue_formula_at_extreme_loop_radius(r):
    # windings from products of coordinates under- or overflow at this scale
    u0 = r * PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = plane_circle(u0, 1, r, vertices=64)
    for f in (lambda u: u, lambda u: ONE):
        lhs, rhs = residue_formula(f, loop, u0, samples=512, tol_edge=1e-9 * r)
        want = TWO_PI * (f(u0) * E1_TILDE)
        assert rhs == want
        assert dev(lhs, want) <= 1e-12 * abs(want)


def test_integrate_constant():
    loop = plane_circle(ZERO, 1, 1.0, 0.5, 0.5, vertices=64)
    val = integrate(lambda u: ONE, loop, 8)
    assert abs(val) <= 1e-12
    open_path = Path((ZERO, ONE, ONE + E1 + E2_TILDE), closed=False)
    val = integrate(lambda u: ONE, open_path, 16)
    want = (ONE + E1 + E2_TILDE) - ZERO
    assert dev(val, want) <= 1e-14


def test_integrate_polynomial_closed_loop_vanishes():
    loop = plane_circle(PentaComplex(0.2, 0.1, -0.3, 0.4, 0.0), 2, 1.0, 0.6, 0.6,
                        vertices=256)
    val = integrate(lambda u: u, loop, 16)
    assert abs(val) <= 1e-8
    val = integrate(lambda u: multiply(u, u), loop, 16)
    assert abs(val) <= 1e-7


def test_path_independence_for_entire_functions():
    a = ZERO
    b = ONE + 0.5 * E1_TILDE - 0.25 * E2
    mid1 = 0.3 * ONE + 0.8 * E1
    mid2 = 0.9 * ONE - 0.6 * E2_TILDE + 0.2 * E_PLUS
    path1 = Path((a, mid1, b), closed=False)
    path2 = Path((a, mid2, b), closed=False)
    for f in (exp, sin, lambda u: multiply(u, u)):
        v1 = integrate(f, path1, 4096)
        v2 = integrate(f, path2, 4096)
        assert dev(v1, v2) <= 1e-7


def test_residue_formula_plane1_constant():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = plane_circle(u0, 1, 1.0, 0.8, 0.7)
    lhs, rhs = residue_formula(lambda u: ONE, loop, u0, samples=4096)
    want = TWO_PI * E1_TILDE
    assert dev(rhs, want) <= 1e-12
    assert dev(lhs, rhs) <= 1e-6


def test_residue_formula_far_pole_vanishes():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = plane_circle(u0, 1, 1.0, 0.8, 0.7)
    far = u0 + scalar(5.0)
    lhs, rhs = residue_formula(lambda u: ONE, loop, far, samples=4096)
    assert abs(rhs) == 0.0
    assert abs(lhs) <= 1e-6


def test_residue_formula_plane2_exp():
    u0 = PentaComplex(0.1, 0.05, -0.2, 0.15, 0.0)
    loop = plane_circle(u0, 2, 1.0, 0.8, 0.7)
    lhs, rhs = residue_formula(exp, loop, u0, samples=4096)
    want = TWO_PI * multiply(exp(u0), E2_TILDE)
    assert dev(rhs, want) <= 1e-12
    assert dev(lhs, rhs) <= 1e-5


def test_residue_quadrature_gauss_legendre_order():
    # with the pole term integrated exactly, each added node per segment
    # cuts the remainder's error for exp(4u) on an 8-gon by the ratios 11,
    # 112 and 435, down to roundoff at 8 nodes, in either plane
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    for plane in (1, 2):
        loop = plane_circle(u0, plane, 1.0, 0.8, 0.7, vertices=8)
        errors = []
        for sps in (1, 2, 3, 4, 8):
            lhs, rhs = residue_formula(lambda u: exp(4.0 * u), loop, u0, samples=sps * 8)
            errors.append(dev(lhs, rhs) / max(1.0, abs(rhs)))
        assert errors[0] >= 5.0 * errors[1], (plane, errors)
        assert errors[1] >= 50.0 * errors[2], (plane, errors)
        assert errors[2] >= 200.0 * errors[3], (plane, errors)
        assert errors[4] <= 1e-12, (plane, errors)
        loop = plane_circle(u0, plane, 1.0, 0.8, 0.7, vertices=16)
        lhs, rhs = residue_formula(exp, loop, u0, samples=8 * 16)
        assert dev(lhs, rhs) <= 1e-13, plane


def test_gauss_legendre_nodes_match_golub_welsch():
    from numpy.polynomial.legendre import leggauss

    for n in range(1, contour.PANEL + 1):
        x, w = contour._gauss_legendre(n)
        want_x, want_w = leggauss(n)
        assert np.abs(x - (want_x + 1) / 2).max() <= 1e-15
        assert np.abs(w - want_w / 2).max() <= 1e-15


def test_segment_rule_keeps_the_node_budget():
    for n in (1, 5, 8, 9, 20, 4096):
        t, w = contour._segment_rule(n)
        assert len(t) == len(w) == n
        assert np.all(np.diff(t) > 0) and 0 < t[0] and t[-1] < 1
        # panels of at least n // ceil(n / PANEL) nodes are exact to this degree
        order = n // -(-n // contour.PANEL)
        for k in range(2 * order):
            assert abs(w @ t ** k - 1 / (k + 1)) <= 1e-13, (n, k)


def test_residue_pole_on_path():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = plane_circle(u0, 1, 1.0, 0.8, 0.7)
    # a pole whose plane-1 projection lies exactly on the projected circle
    on_curve = u0 + 1.0 * E1
    with pytest.raises(PoleOnPath):
        residue_formula(lambda u: ONE, loop, on_curve, samples=256)


def test_residue_non_invertible_on_path():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    # zero line offset leaves u - u0 with vplus = 0 along the whole loop
    loop = plane_circle(u0, 1, 1.0, line_offset=0.0, other_offset=0.7)
    with pytest.raises(NonInvertibleOnPath):
        residue_formula(lambda u: ONE, loop, u0, samples=256)


def test_residue_requires_closed_path():
    with pytest.raises(ValueError):
        residue_formula(lambda u: ONE, Path((ZERO, ONE), closed=False), ZERO)


def test_plane_circle_validation():
    with pytest.raises(ValueError):
        plane_circle(ZERO, 3, 1.0)
    loop = plane_circle(ZERO, 1, 1.0, vertices=8)
    with pytest.raises(ValueError, match="plane index must be 1 or 2, got 3"):
        project(loop, 3)
    with pytest.raises(ValueError, match="samples_per_segment must be >= 1, got 0"):
        integrate(exp, loop, 0)
    with pytest.raises(ValueError):
        plane_circle(ZERO, 1, -1.0)
    with pytest.raises(ValueError):
        plane_circle(ZERO, 1, 1.0, vertices=2)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda n: integrate(exp, plane_circle(ZERO, 1, 1.0, vertices=8), n),
                 "samples_per_segment", id="integrate"),
    pytest.param(lambda n: plane_circle(ZERO, 1, 1.0, vertices=n), "vertices",
                 id="plane_circle"),
])
@pytest.mark.parametrize("n", [2.5, -0.5, math.nan, math.inf, -math.inf, "8"])
def test_a_count_that_is_not_a_whole_number_raises(call, name, n):
    # 2.5 raised a raw TypeError, nan and inf numpy's arange error
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        call(n)


def test_an_integral_float_count_acts_as_the_int():
    loop = plane_circle(ZERO, 1, 1.0, vertices=8.0)
    assert loop == plane_circle(ZERO, 1, 1.0, vertices=8)
    assert integrate(exp, loop, 3.0) == integrate(exp, loop, 3)


@pytest.mark.parametrize("name", ["radius", "line_offset", "other_offset"])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_plane_circle_rejects_a_non_finite_radius_or_offset(name, x):
    # all of these raised Overflow building the vertices
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        plane_circle(ZERO, 1, **{"radius": 1.0, name: x})


@pytest.mark.parametrize("samples", [1, 7, 64, 100, 1000, 4096, 2.6])
def test_one_node_budget_rule_for_open_and_closed_paths(samples):
    # the total budget spread over the segments, at least one node each;
    # the CLI's integrate and the pole identity both take it from here
    loop = plane_circle(ZERO, 1, 1.0, vertices=16)
    for path in (loop, Path(loop.vertices[:5]), Path(loop.vertices[:2])):
        want = max(1, round(samples / len(path.segments())))
        assert contour._nodes_per_segment(samples, path) == want


def both_planes_loop(u0, radius=1.0, offset=0.7, vertices=64):
    """Loop winding once around u0 in both canonical planes."""
    base = u0 + offset * E_PLUS
    return Path(tuple(base + radius * math.cos(t) * (E1 + E2)
                      + radius * math.sin(t) * (E1_TILDE + E2_TILDE)
                      for t in (TWO_PI * i / vertices for i in range(vertices))),
                closed=True)


def test_builtin_array_path_matches_scalar_callable_path():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loops = {
        "plane-1": plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=64),
        "plane-2": plane_circle(u0, 2, 1.0, 0.8, 0.7, vertices=64),
        "both": both_planes_loop(u0),
    }
    for f in (exp, cos, sin, cosh, sinh):
        scalar_f = lambda u, f=f: f(u)  # noqa: E731 -- declares no lift
        for name, loop in loops.items():
            lhs, rhs = residue_formula(f, loop, u0, samples=512)
            want, _ = residue_formula(scalar_f, loop, u0, samples=512)
            assert dev(lhs, want) <= 1e-13, (f.__name__, name)
            assert dev(lhs, rhs) <= 1e-12, (f.__name__, name)
            assert dev(integrate(f, loop, 4), integrate(scalar_f, loop, 4)) <= 1e-13


def test_builtins_take_the_array_route(monkeypatch):
    # a builtin, and a lambda around one, is called at u0 and once with the
    # batch of all 256 nodes: _lift runs at u0 and on the batch (where it
    # finds no components and hands over to the batch), and the batch's
    # lift applies the ufuncs to its columns once; nothing runs per node
    calls = []
    lift, batch_lift = elementary._lift, contour._Batch.lift

    def counted(*args, **kwargs):
        calls.append("_lift")
        return lift(*args, **kwargs)

    def batch_counted(*args):
        calls.append("batch")
        return batch_lift(*args)

    monkeypatch.setattr(elementary, "_lift", counted)
    monkeypatch.setattr(contour._Batch, "lift", batch_counted)
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=64)
    for f in (*elementary._LIFTED, lambda u: exp(u)):
        calls.clear()
        residue_formula(f, loop, u0, samples=256)
        assert calls == ["_lift", "_lift", "batch"], f.__name__


def scalar_winding(point, polygon, tol=None):
    """The per-edge Python loop that winding() vectorizes, kept as its reference."""

    def point_segment_distance(p, a, b):
        ax, ay = a
        bx, by = b
        px, py = p
        dx = bx - ax
        dy = by - ay
        seg_sq = dx * dx + dy * dy
        if seg_sq == 0.0:
            return math.hypot(px - ax, py - ay)
        t = ((px - ax) * dx + (py - ay) * dy) / seg_sq
        t = min(1.0, max(0.0, t))
        return math.hypot(px - (ax + t * dx), py - (ay + t * dy))

    pts = polygon.points
    n = len(pts)
    px, py = point
    if tol is None:
        tol = contour.TAU_EDGE * max(math.hypot(x - px, y - py) for x, y in pts)
    for i in range(n):
        if point_segment_distance(point, pts[i], pts[(i + 1) % n]) <= tol:
            raise OnBoundary(f"point {point} is within {tol:.3g} of edge {i}")
    total = 0.0
    for i in range(n):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % n]
        ax -= px
        ay -= py
        bx -= px
        by -= py
        total += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return round(total / TWO_PI)


def outcome(fn, *args):
    try:
        return fn(*args)
    except OnBoundary as exc:
        return str(exc)


def test_vectorized_winding_matches_scalar_loop():
    rng = np.random.default_rng(61)
    polygons = []
    for _ in range(40):  # random vertices: mostly self-crossing
        n = int(rng.integers(3, 24))
        polygons.append(tuple(map(tuple, rng.uniform(-1, 1, (n, 2)).tolist())))
    for step in (2, 3):  # star polygons {7/2}, {7/3}
        polygons.append(tuple((math.cos(TWO_PI * step * i / 7), math.sin(TWO_PI * step * i / 7))
                              for i in range(7)))
    polygons.append(((0.25, -0.5),) * 4)  # every edge has zero length
    for pts in polygons:
        poly = PlaneProjection(points=pts, plane=1, closed=True)
        queries = [tuple(q) for q in rng.uniform(-1.2, 1.2, (25, 2)).tolist()]
        queries += [(0.0, 0.0), pts[0],
                    ((pts[0][0] + pts[1][0]) / 2, (pts[0][1] + pts[1][1]) / 2)]
        as_lists = PlaneProjection(points=[list(pt) for pt in pts], plane=1, closed=True)
        for q in queries:
            assert outcome(winding, q, poly) == outcome(scalar_winding, q, poly), (pts, q)
            assert (outcome(winding, q, poly, 0.05)
                    == outcome(scalar_winding, q, poly, 0.05)), (pts, q)
            assert outcome(winding, q, as_lists) == outcome(winding, q, poly), (pts, q)


def test_on_boundary_message_quotes_the_cutoff_applied():
    # a unit square scaled by 1e-12 with the point on edge 0: the default
    # cutoff is TAU_EDGE times the farthest vertex, sqrt(1.25)*1e-12 away
    square = PlaneProjection(points=[(0.0, 0.0), (1e-12, 0.0), (1e-12, 1e-12), (0.0, 1e-12)],
                             plane=1, closed=True)
    with pytest.raises(OnBoundary, match=r"within 1\.12e-21 of edge 0"):
        winding((0.5e-12, 0.0), square)
    with pytest.raises(OnBoundary, match=r"within 1e-09 of edge 0"):
        winding((0.5e-12, 0.0), square, tol=1e-9)


def test_residue_non_invertible_on_path_for_every_evaluator():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    # zero line offset: vplus of u - u0 vanishes at every node; the guard
    # runs after the single call at u0 and before any call at a node
    loop = plane_circle(u0, 2, 1.0, line_offset=0.0, other_offset=0.7)
    for f in (exp, lambda u: ONE):
        with pytest.raises(NonInvertibleOnPath):
            residue_formula(f, loop, u0, samples=256)


def test_evaluator_errors_become_evaluation_failed():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=16)

    def broken(u):
        raise ZeroDivisionError("boom")

    with pytest.raises(EvaluationFailed) as info:
        residue_formula(broken, loop, u0, samples=64)
    assert isinstance(info.value.__cause__, ZeroDivisionError)
    with pytest.raises(EvaluationFailed):
        integrate(broken, loop, 2)


def test_evaluator_of_another_type_is_evaluation_failed():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=16)
    for f in (lambda u: 1.0, lambda u: None, lambda u: (1.0, 0.0, 0.0, 0.0, 0.0)):
        with pytest.raises(EvaluationFailed, match="not PentaComplex"):
            residue_formula(f, loop, u0, samples=64)
        with pytest.raises(EvaluationFailed, match="not PentaComplex"):
            integrate(f, loop, 2)


def test_array_path_overflow_raises_like_scalar_path():
    # vplus around 800: e^vplus overflows on the line, at u0 first
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15) + 800.0 * E_PLUS
    loop = plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=16)
    errors = []
    for f in (exp, lambda u: exp(u)):
        with pytest.raises(EvaluationFailed) as info:
            residue_formula(f, loop, u0, samples=64)
        assert isinstance(info.value.__cause__, Overflow)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def test_overflow_on_the_path_is_typed():
    # u - u0 is beyond the float range on a loop near 1.5e308 around a pole
    # at -1e308; pyproject makes a RuntimeWarning an error, so no numpy
    # warning escapes either
    loop = plane_circle(PentaComplex(1.5e308, 0, 0, 0, 0), 1, 1.0, vertices=8)
    u0 = PentaComplex(-1e308, 0, 0, 0, 0)
    for f in (lambda u: u, exp):
        with pytest.raises(Overflow, match="^u - u0 exceeds the floating-point range "
                                           "at quadrature node 0$"):
            residue_formula(f, loop, u0, samples=8)
    # without a pole: the nodes' canonical coordinates overflow (vplus
    # sums the components), the batch value is not finite and the per-node
    # values overflow in the transform
    top = PentaComplex(1.7e308, 1.7e308, 1.7e308, 1.7e308, 1.7e308)
    segment = Path((top, top - 1e307 * PentaComplex(0, 0, 0, 0, 1)))
    with pytest.raises(Overflow):
        integrate(lambda u: u, segment, 2)
    # a constant never sees the nodes: the integral is the segment vector
    step = integrate(lambda u: ONE, segment, 2)
    assert dev(step, (0, 0, 0, 0, -1e307)) <= 1e-15 * 1e307


def test_overflow_at_the_nodes_raises_the_per_node_error():
    # vplus is 709.3 at u0, where e^vplus is finite, and 710.1 on the loop,
    # where it is not: the batch's value is inf, so f runs per node and
    # raises at the first node, as the scalar route does
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15) + 709.0 * E_PLUS
    loop = plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=16)
    a, b = loop._array[:2]
    first = PentaComplex(*(a + contour._segment_rule(4)[0][0] * (b - a)))
    errors = []
    for f in (exp, lambda u: exp(u), lambda u: multiply(exp(u), ONE) - u):
        with pytest.raises(EvaluationFailed) as info:
            residue_formula(f, loop, u0, samples=64)
        assert isinstance(info.value.__cause__, Overflow)
        errors.append(str(info.value))
    assert errors[0] == errors[1] == errors[2]
    assert errors[0].startswith(f"evaluator raised at {first!r}: ")


def plane_view(a):
    """Columns 1-4 of rows of five as two complex columns, a view: (z1, z2)
    of canonical rows, (x1 + i*x2, x3 + i*x4) of component rows.  The
    references in this file hold one canonical row per node and read the
    planes through it."""
    return a[:, 1:].view(np.complex128)


def canon_rows(rows):
    """Component rows as canonical rows, one per row: the scalar transform's
    expressions (canonical._to_canon_comps) on the columns.  Like a matrix
    product, it lets a value beyond the float range become inf or nan."""
    with np.errstate(all="ignore"):
        return np.column_stack(_to_canon_comps(rows.T))


def component_rows(canon):
    """Canonical rows as component rows (canonical._from_canon_comps on the
    columns)."""
    with np.errstate(all="ignore"):
        return np.column_stack(_from_canon_comps(canon.T))


def split_rows(canon):
    """Canonical rows as a batch's parts: the line column and the planes
    v_k + i*tv_k as (2, n), contiguous copies."""
    return canon[:, 0].copy(), plane_view(canon).T.copy()


def join_rows(line, planes):
    """A batch's parts as canonical rows, one per node."""
    rows = np.empty((line.size, 5))
    rows[:, 0] = line
    plane_view(rows)[:] = planes.T
    return rows


def batch_of(canon):
    """The batch of nodes whose canonical coordinates are the rows of canon."""
    return contour._Batch(*split_rows(canon))


def rows_of(batch):
    """A batch's canonical coordinates as rows, one per node."""
    return join_rows(batch.line, batch.planes)


def evaluate_rows(f, nodes, canon):
    """contour._evaluate on rows: nodes are the component rows, canon their
    canonical coordinates; the values come back as canonical rows."""
    return rows_of(contour._evaluate(f, batch_of(canon), lambda: nodes))


def loop_evaluate(f, nodes):
    """The per-row loop the callable path replaced, kept as its reference."""
    out = np.empty_like(nodes)
    for i, comps in enumerate(nodes.tolist()):
        out[i] = f(PentaComplex(*comps)).components
    return canon_rows(out)


def test_callable_path_is_bit_identical_to_the_per_row_loop():
    # evaluators that fall back to the per-node route: one reads a
    # component, one branches on a value, one calls a function that takes
    # no batch
    rng = np.random.default_rng(67)
    nodes = rng.uniform(-2.0, 2.0, (257, 5))
    nodes[:8] = rng.choice([0.0, -0.0, 1.0, -1.0], (8, 5))
    for f in (lambda u: multiply(u, u) + u.x0 * u,
              lambda u: exp(u) if u.x1 >= 0.0 else -u,
              lambda u: pow_real(u, 2) + 3.0 * u):
        got = evaluate_rows(f, nodes, canon_rows(nodes))
        assert got.tobytes() == loop_evaluate(f, nodes).tobytes()
        want = canon_rows(np.array([f(PentaComplex(*c)).components for c in nodes.tolist()]))
        assert got.tobytes() == want.tobytes()


def test_column_ops_match_the_plane_view():
    # a batch's product, its lift and integrate's kernel (the parts of du
    # over those of u - u0) run on the line array and the stacked (2, n)
    # planes; the bits are those of one numpy call on the (n, 2) plane view
    # of canonical rows
    rng = np.random.default_rng(305)
    a, b = rng.standard_normal((2, 300, 5)) * 10.0 ** rng.integers(-2, 2, (2, 300, 5))
    a[0, 1:] = -0.0
    batch = batch_of(a)
    for op in (np.multiply, np.divide):
        for other in (b, b[:1]):
            want = np.empty_like(a)
            want[:, 0] = op(a[:, 0], other[:, 0])
            plane_view(want)[:] = op(plane_view(a), plane_view(other))
            # b[:1] as integrate's pole: a one-node column that broadcasts
            line, planes = contour._column(other[0]) if len(other) == 1 else split_rows(other)
            got = join_rows(op(batch.line, line), op(batch.planes, planes))
            assert got.tobytes() == want.tobytes()
            if op is np.multiply:
                got = rows_of(batch.product(contour._Batch(line, planes)))
                assert got.tobytes() == want.tobytes()
    for name in ("exp", "sin", "cos", "sinh", "cosh"):
        want = np.empty_like(a)
        want[:, 0] = getattr(np, name)(a[:, 0])
        plane_view(want)[:] = getattr(np, name)(plane_view(a))
        assert rows_of(getattr(elementary, name)(batch)).tobytes() == want.tobytes()


def plane_view_horner(canon, pplus, p1, p2):
    """_Batch.horner as it ran on the (n, 2) plane view, whose numpy inner
    loop covers a row's two entries: the reference for its bits."""
    line = canon[:, 0]
    z = plane_view(canon)
    wp = np.zeros_like(line)
    w = np.zeros_like(z)
    for ap, a1, a2 in zip(pplus, p1, p2):
        wp = wp * line + ap
        w = w * z + (a1, a2)
    out = np.empty_like(canon)
    out[:, 0] = wp
    plane_view(out)[:] = w
    return out


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.integers(1, 20), st.integers(1, 1100), st.integers(0, 2 ** 32 - 1))
def test_batch_horner_is_bit_identical_to_the_plane_view(degree, rows, seed):
    rng = np.random.default_rng(seed)
    canon = rng.standard_normal((rows, 5)) * 2.0 ** rng.integers(-40, 40, (rows, 5))
    canon[rng.random((rows, 5)) < 0.02] = -0.0
    canon[rng.random((rows, 5)) < 0.01] = np.inf
    c = rng.standard_normal((degree, 5)) * 2.0 ** rng.integers(-20, 20, (degree, 5))
    pplus = tuple(c[:, 0].tolist())
    p1, p2 = (tuple(complex(a, b) for a, b in c[:, cols].tolist()) for cols in ([1, 2], [3, 4]))
    with np.errstate(all="ignore"):
        batch = batch_of(canon)
        got = batch.horner(pplus, p1, p2)
        want = plane_view_horner(canon, pplus, p1, p2)
        # each part is np.polyval's on that column
        assert got.line.tobytes() == np.polyval(pplus, batch.line).tobytes()
        for k, p in enumerate((p1, p2)):
            assert got.planes[k].tobytes() == np.polyval(p, batch.planes[k]).tobytes()
    assert rows_of(got).tobytes() == want.tobytes()


def test_evaluators_that_fail_on_a_batch_run_per_node():
    # f raising on the batch and f returning a PentaComplex are called once
    # with the batch and then at every node, bit-identical to the per-row loop
    rng = np.random.default_rng(68)
    nodes = rng.uniform(-2.0, 2.0, (64, 5))
    calls = []

    def raises_on_a_batch(u):
        calls.append(u)
        if not isinstance(u, PentaComplex):
            raise TypeError("nodes one at a time")
        return multiply(u, u)

    def constant(u):
        calls.append(u)
        return PentaComplex(0.5, -1.0, 0.0, 2.0, 0.25)

    for f in (raises_on_a_batch, constant):
        calls.clear()
        got = evaluate_rows(f, nodes, canon_rows(nodes))
        assert isinstance(calls[0], contour._Batch), f.__name__
        assert len(calls) == 1 + len(nodes), f.__name__
        assert got.tobytes() == loop_evaluate(f, nodes).tobytes(), f.__name__


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batch_values_match_the_per_node_values_on_the_contour_pools(seed, monkeypatch):
    # every item of the benchmark's contour pool, builtin and callable: the
    # batch route's canonical values at the integral's nodes are within 8
    # ulp of max |f| of f called at each node (at most 6.3 measured on
    # seeds 1-6); the batch computes in canonical coordinates, from the
    # nodes' coordinates relative to the pole, so the two round differently
    monkeypatch.syspath_prepend(PERFBENCH)
    import gen
    import workloads
    captured = []
    evaluate = contour._evaluate

    def capture(f, nodes, rows):
        captured.append((rows(), nodes))
        return evaluate(f, nodes, rows)

    monkeypatch.setattr(contour, "_evaluate", capture)
    items = gen.contour_pool(seed)
    assert len(items) == 12
    for item in items:
        f = workloads.Contour._evaluator(item)
        captured.clear()
        residue_formula(f, workloads.build_loop(item.loop), PentaComplex(*item.loop.pole),
                        samples=1024)
        (nodes, batch), = captured
        values = f(batch)
        assert isinstance(values, contour._Batch) and rows_of(values).shape == nodes.shape
        want = canon_rows(np.array([f(PentaComplex(*c)).components for c in nodes.tolist()]))
        err = np.abs(rows_of(values) - want).max(axis=1)
        assert (err <= 8 * np.finfo(float).eps * np.abs(want).max()).all(), item


def test_series_and_ring_arithmetic_take_the_batch_route():
    # what a batch supports, as PentaComplex does: +, -, unary -, * and / by
    # a real scalar, multiply and the builtins; series_eval is ring Horner
    rng = np.random.default_rng(69)
    nodes = rng.uniform(-1.0, 1.0, (32, 5))
    a = PentaComplex(0.5, -0.25, 0.125, 0.0, 1.0)
    series = PowerSeries((a, ONE, -0.5 * a, 0.25 * ONE))
    for f in (lambda u: series_eval(series, u),
              lambda u: (2 - u) * a - (a + u) / 4 + 1.5 * (-u) - multiply(a, u),
              lambda u: sinh(u) * cos(u) - multiply(u + 1, cosh(u)) + 3):
        batch = f(batch_of(canon_rows(nodes)))
        assert isinstance(batch, contour._Batch)
        want = loop_evaluate(f, nodes)
        assert np.abs(rows_of(batch) - want).max() <= 8 * np.finfo(float).eps * np.abs(want).max()
        assert evaluate_rows(f, nodes, canon_rows(nodes)).tobytes() == rows_of(batch).tobytes()
    # operations a PentaComplex lacks, or whose value differs from node to
    # node, raise on a batch
    batch = batch_of(canon_rows(nodes))
    for g in (lambda u: u.x0, lambda u: 1 / u, lambda u: u / a, lambda u: u == ZERO,
              lambda u: multiply(u, 2.0), lambda u: u + "1", lambda u: abs(u)):
        with pytest.raises((AttributeError, TypeError)):
            g(batch)


def test_component_polynomials_take_the_batch_route():
    # series_eval_components runs Horner on the canonical components; on a
    # batch it runs on its columns, so residue_formula calls f once with it
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    a = PentaComplex(0.5, -0.25, 0.125, 0.0, 1.0)
    series = PowerSeries((a, ONE, -0.5 * a, 0.25 * ONE))
    seen = []

    def f(u):
        seen.append(u)
        return series_eval_components(series, u)

    loop = both_planes_loop(u0, vertices=64)
    residue_formula(f, loop, u0, samples=256)
    batches = [u for u in seen if isinstance(u, contour._Batch)]
    assert len(seen) == 2 and len(batches) == 1
    nodes = component_rows(rows_of(batches[0]))
    want = loop_evaluate(lambda u: series_eval_components(series, u), nodes)
    got = rows_of(series_eval_components(series, batches[0]))
    assert np.abs(got - want).max() <= 8 * np.finfo(float).eps * np.abs(want).max()


def test_vertex_array_is_the_row_list():
    # and the vertex columns are its transpose, contiguous
    path = plane_circle(PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15), 2, 1.0, vertices=97)
    rows = np.array([v.components for v in path.vertices])
    for got, want in ((path._array, rows), (path._columns, np.ascontiguousarray(rows.T))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous and not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 1.0


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.integers(2, 40), st.booleans(), st.integers(-1000, 1000), st.integers(0, 2 ** 32 - 1))
def test_path_parts_and_per_node_values_are_the_scalar_transform(v, closed, k, seed):
    # one transform for elements and arrays: on a random path scaled by
    # 2**k, the path's canonical parts are each vertex's _canon, each
    # projection's points are project_point's (the pole's route), and the
    # per-node route's values are transformed as _canon transforms each
    # value, all bit for bit
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-1.0, 1.0, (v, 5)) * 2.0 ** k
    verts = tuple(PentaComplex(*row) for row in rows.tolist())
    path = Path(verts, closed)
    assert join_rows(*path._parts).tobytes() == np.array([_canon(u) for u in verts]).tobytes()
    for plane in (1, 2):
        want = np.array([complex(*project_point(u, plane)) for u in verts])
        assert project(path, plane)._z.tobytes() == want.tobytes()
    a = PentaComplex(0.5, -0.25, 0.125, 0.0, 1.0)

    def per_node(u):
        return multiply(u, a) + 0.0 * u.x0

    values = contour._evaluate(per_node, contour._Batch(*path._parts), lambda: path._array)
    want = np.array([_canon(per_node(u)) for u in verts])
    assert rows_of(values).tobytes() == want.tobytes()


def test_callable_nodes_and_results_have_float_components():
    # f is called at u0 and once with the batch of each integral's nodes,
    # whose line is float64 and planes complex128; an evaluator that reads
    # a component falls back and is then called at every node with float
    # components
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    seen = []

    def f(u):
        seen.append(u)
        return multiply(u, u)

    def per_node(u):
        seen.append(u)
        return multiply(u, u) + 0.0 * u.x0

    for g, calls in ((f, 1 + 1 + 1), (per_node, 1 + (1 + 64) + (1 + 8))):
        seen.clear()
        lhs, rhs = residue_formula(g, plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=16), u0,
                                   samples=64)
        val = integrate(g, Path((ZERO, ONE + E1), closed=False), 8)
        assert len(seen) == calls, g.__name__
        batches = [u for u in seen if isinstance(u, contour._Batch)]
        assert len(batches) == 2
        assert all(b.line.dtype == np.float64 and b.planes.dtype == np.complex128
                   for b in batches)
        for u in [u for u in seen if not isinstance(u, contour._Batch)] + [lhs, rhs, val]:
            assert type(u) is PentaComplex
            assert all(type(x) is float for x in u.components), u


def test_batches_hold_contiguous_parts():
    # the batch integrate hands the evaluator, every batch its operations
    # make and the per-node route's values hold C-contiguous arrays: a
    # line of n floats and (2, n) complex planes
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    a = PentaComplex(0.5, -0.25, 0.125, 0.0, 1.0)
    series = PowerSeries((a, ONE, -0.5 * a))
    seen = []

    def f(u):
        made = [u, u + 1, 1 - u, u - a, -u, 2.0 * u, u / 4, multiply(u, u), multiply(a, u),
                exp(u), sinh(u), series_eval_components(series, u)]
        seen.extend(made)
        return made[-1]

    def per_node(u):
        return multiply(u, u) + 0.0 * u.x0

    residue_formula(f, plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=16), u0, samples=64)
    integrate(f, Path((ZERO, ONE + E1, E2), closed=False), 9)
    rows = np.random.default_rng(70).uniform(-1.0, 1.0, (16, 5))
    seen.append(contour._evaluate(per_node, batch_of(canon_rows(rows)), lambda: rows))
    batches = [u for u in seen if isinstance(u, contour._Batch)]
    assert len(batches) == 2 * 12 + 1
    for batch in batches:
        n = batch.line.shape[0]
        assert batch.line.shape == (n,) and batch.planes.shape == (2, n)
        assert batch.line.flags.c_contiguous and batch.planes.flags.c_contiguous


@pytest.mark.parametrize("closed", [False, True])
def test_node_batch_is_the_transformed_node_rows(closed):
    # integrate broadcasts a segment's start and step against the rule's t
    # on each canonical part; at every node count up to two panels and one
    # more, with and without a pole, the batch f sees is the component node
    # rows start + t*step transformed, to 4 eps of the scale
    rng = np.random.default_rng(71)
    path = Path(tuple(PentaComplex(*rng.uniform(-2.0, 2.0, 5)) for _ in range(7)), closed)
    u0 = PentaComplex(*rng.uniform(-0.5, 0.5, 5))
    verts = path._array
    steps = contour._ends(verts, closed) - verts[:len(verts) - (not closed)]
    seen = []

    def f(u):
        seen.append(u)
        return u

    for n in range(1, 2 * contour.PANEL + 2):
        t = contour._segment_rule(n)[0]
        rows = (verts[:len(steps), None, :] + t[:, None] * steps[:, None, :]).reshape(-1, 5)
        line, planes = split_rows(canon_rows(rows))
        scale = max(np.abs(line).max(), np.abs(planes.view(float)).max())
        for integrand in (f, contour._PoleIntegrand(f, u0, u0)):
            seen.clear()
            integrate(integrand, path, n)
            (batch,) = seen
            assert batch.line.shape == line.shape and batch.planes.shape == planes.shape
            err = max(np.abs(batch.line - line).max(),
                      np.abs((batch.planes - planes).view(float)).max())
            assert err <= 4 * np.finfo(float).eps * scale, (n, integrand)


@pytest.mark.parametrize("s", [1e160, 1e-170])
def test_pole_divisor_test_is_scale_safe(s):
    # along u = t*a, t from s to 2s, f = ONE leaves a remainder of exactly 0
    a = PentaComplex(1.0, 0.3, 0.0, 0.1, 0.0)
    path = Path((s * a, (2.0 * s) * a), closed=False)
    pole_integral = contour._PoleIntegrand(lambda u: ONE, ZERO, ONE)
    assert integrate(pole_integral, path, 16).components == ZERO.components
    # the divisor-of-zero set is still found at that scale (vplus = 0 on E1)
    with pytest.raises(NonInvertibleOnPath):
        integrate(pole_integral, Path((s * E1, (2.0 * s) * E1), closed=False), 16)


def test_pole_term_is_exact_for_a_constant():
    # f = ONE leaves no remainder: the 16-gon at one node per segment is exact
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=16)
    lhs, rhs = residue_formula(lambda u: ONE, loop, u0, samples=16)
    assert dev(lhs, rhs) <= 1e-14


def jittered_loop(u0, n, rng):
    """Irregular n-gon winding once around u0 in plane 1: each vertex's
    radius and angle perturbed."""
    base = u0 + 0.8 * E_PLUS + 0.7 * E2
    turns = TWO_PI * (np.arange(n) + rng.uniform(-0.25, 0.25, n)) / n
    radii = rng.uniform(0.85, 1.15, n)
    return Path(tuple(base + r * math.cos(t) * E1 + r * math.sin(t) * E1_TILDE
                      for r, t in zip(radii.tolist(), turns.tolist())), closed=True)


def test_residue_on_irregular_loops_at_four_nodes_per_segment():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    rng = np.random.default_rng(90)
    for n in (16, 64, 256):
        loop = jittered_loop(u0, n, rng)
        for f in (exp, sin, lambda u: multiply(u, u)):
            lhs, rhs = residue_formula(f, loop, u0, samples=4 * n)
            assert dev(lhs, rhs) <= 1e-12, n


def test_residue_when_the_line_part_crosses_the_pole_on_every_segment():
    # a square in plane 1 whose line offset alternates in sign: every edge's
    # line coordinate passes vplus(u0), where the pole term is a principal value
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    verts = tuple(u0 + (0.7 if i % 2 == 0 else -0.5) * E_PLUS + 0.7 * E2
                  + math.cos(TWO_PI * i / 4 + 0.3) * E1
                  + math.sin(TWO_PI * i / 4 + 0.3) * E1_TILDE for i in range(4))
    loop = Path(verts, closed=True)
    for f in (exp, sin, lambda u: multiply(u, u)):
        lhs, rhs = residue_formula(f, loop, u0, samples=64)
        assert dev(lhs, rhs) <= 1e-12


def test_vertex_on_the_divisor_set_is_non_invertible():
    # vertex 0 has vplus(u - u0) = 0; the nodes beside it do not
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    verts = tuple(u0 + (0.0 if i == 0 else 0.7) * E_PLUS + 0.7 * E2
                  + math.cos(TWO_PI * i / 4) * E1 + math.sin(TWO_PI * i / 4) * E1_TILDE
                  for i in range(4))
    loop = Path(verts, closed=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonInvertibleOnPath, match="vertex 0"):
            residue_formula(exp, loop, u0, samples=64)
        with pytest.raises(NonInvertibleOnPath, match="vertex 0"):
            integrate(contour._PoleIntegrand(exp, u0, exp(u0)), Path(verts[:2], closed=False), 4)
        # the last vertex is guarded too, on a closed and on an open path
        with pytest.raises(NonInvertibleOnPath, match="vertex 3"):
            residue_formula(exp, Path(verts[1:] + verts[:1], closed=True), u0, samples=64)
        with pytest.raises(NonInvertibleOnPath, match="vertex 1"):
            integrate(contour._PoleIntegrand(exp, u0, exp(u0)),
                      Path(verts[1::-1], closed=False), 4)


def test_non_analytic_evaluator_breaks_the_identity():
    # with the pole off the loop's centre the remainder of a non-analytic
    # function integrates to far more than the quadrature error
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=64)
    pole = u0 + 0.3 * E1
    for f in (lambda u: scalar(u.components[1]), lambda u: scalar(abs(u))):
        lhs, rhs = residue_formula(f, loop, pole, samples=256)
        assert dev(lhs, rhs) >= 1e-2


def test_pole_free_quadrature_gauss_legendre_order():
    # half a 16-gon as an open path: the integral of exp is exp(b) - exp(a)
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    path = Path(plane_circle(u0, 2, 1.0, vertices=16).vertices[:9], closed=False)
    want = exp(path.vertices[-1]) - exp(path.vertices[0])
    errors = [dev(integrate(exp, path, n), want) for n in (1, 2, 3, 4, 8)]
    for e0, e1 in zip(errors[:3], errors[1:4]):
        assert e0 / max(e1, 1e-300) >= 50.0, errors
    assert errors[-1] <= 1e-14, errors


@pytest.mark.parametrize("r", [1e-12, 1e12])
def test_default_winding_tolerance_scales_with_the_loop(r):
    u0 = r * PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = plane_circle(u0, 1, r)
    for f in (lambda u: u, lambda u: ONE):
        lhs, rhs = residue_formula(f, loop, u0)
        want = TWO_PI * (f(u0) * E1_TILDE)
        assert rhs == want
        assert dev(lhs, want) <= 1e-12 * abs(want)
    # an explicit tolerance stays absolute
    if r < 1:
        with pytest.raises(PoleOnPath):
            residue_formula(lambda u: ONE, loop, u0, tol_edge=1e-9)


# -- the trimmed numpy passes: results bit-identical to the code before -----

def reference_winding(point, polygon, tol=None):
    """winding() before the slice concatenation and the trimmed clip, kept
    as its bit-level reference."""
    x, y = point
    a = polygon._z - complex(x, y)
    b = np.roll(a, -1)
    d = b - a
    cutoff = contour.TAU_EDGE * np.abs(a).max(initial=0.0) if tol is None else tol
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.where(d == 0.0, 0.0, np.clip(-(a / d).real, 0.0, 1.0))
    close = np.abs(a + t * d) <= cutoff
    if close.any():
        raise OnBoundary(f"point {point} is within {cutoff:.3g} of edge {int(close.argmax())}")
    return round(float(np.angle(b / a).sum()) / TWO_PI)


def plane_divide(a, b):
    """Rows a / b on the line column and on each plane, as complex numbers."""
    out = np.empty_like(a)
    out[:, 0] = a[:, 0] / b[:, 0]
    plane_view(out)[:] = plane_view(a) / plane_view(b)
    return out


def reference_invertible(rel, rel_c, nodes):
    """_invertible without its screen: a row beyond the float range raises
    Overflow first, then the divisor-of-zero test runs on every row."""
    def at(i):
        return f"quadrature node {i}" if i < nodes else f"vertex {i - nodes}"

    overflow = ~np.isfinite(rel_c).all(axis=1)
    if overflow.any():
        raise Overflow(f"u - u0 exceeds the floating-point range at {at(int(overflow.argmax()))}")
    pairs = np.abs(plane_view(rel))
    tol = contour.TAU_REL * np.hypot(rel[:, 0], np.hypot(pairs[:, 0], pairs[:, 1]))
    radii = np.abs(plane_view(rel_c))
    bad = (np.abs(rel_c[:, 0]) <= tol) | (radii <= tol[:, None]).any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        raise NonInvertibleOnPath(f"u - u0 = {PentaComplex(*rel[i])!r} is a divisor "
                                  f"of zero at {at(i)}")


@st.composite
def guard_rows(draw):
    """Rows u - u0 for _invertible, with the index of the first vertex row:
    canonical parts at scales 2**-1000 to 2**1000, in some rows one part
    scaled to about TAU_REL of the others, in some an inf or a nan."""
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(n):
        canon = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5)))
        part = draw(st.sampled_from((None,) * 9 + (0, 1, 2)))
        if part is not None:
            cols = [0] if part == 0 else [2 * part - 1, 2 * part]
            canon[cols] *= draw(st.floats(0.25, 4.0)) * contour.TAU_REL
        scale = 2.0 ** draw(st.integers(-1000, 1000))
        row = np.array(_from_canon_comps((canon * scale).tolist()))
        special = draw(st.sampled_from((None,) * 27 + (math.inf, -math.inf, math.nan)))
        if special is not None:
            row[draw(st.integers(0, 4))] = special
        rows.append(row)
    return np.array(rows), draw(st.integers(0, n))


def parts_invertible(rel, rel_c, nodes):
    """contour._invertible on rows: rel are the component rows, rel_c their
    canonical coordinates."""
    contour._invertible(*split_rows(rel_c), lambda: rel, nodes)


def guard_outcome(fn, rel, nodes):
    try:
        with np.errstate(all="ignore"):
            fn(rel, canon_rows(rel), nodes)
    except (NonInvertibleOnPath, Overflow) as exc:
        return type(exc), str(exc)
    return None


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(guard_rows())
def test_invertible_screen_raises_exactly_when_the_reference_does(rows):
    rel, nodes = rows
    assert guard_outcome(parts_invertible, rel, nodes) == guard_outcome(
        reference_invertible, rel, nodes)


def scalar_verdict(u):
    """Whether inverse finds u a divisor of zero; an Overflow of its result
    means u passed the guard."""
    try:
        inverse(u)
    except NonInvertible:
        return True
    except Overflow:
        pass
    return False


def path_verdict(row):
    """Whether _invertible finds the component row u a divisor of zero, on
    the parts integrate's component route gives it (contour._parts)."""
    rows = row[None]
    try:
        contour._invertible(*contour._parts(rows.T), lambda: rows, 0)
    except NonInvertibleOnPath:
        return True
    return False


def test_inverse_and_the_path_guard_give_one_verdict_near_the_divisor_set():
    # the scalar guard (canonical._guard, through inverse) and the array
    # guard (_invertible) each hold u's canonical parts against TAU_REL*|u|:
    # the smallest part, on the line and then on each plane, at 1e-3 to
    # 1e-15 times |u| and at 0.25 to 4 cutoffs, at scales 1e-290 to 1e290.
    # Both take the parts of one transform, so they agree on every row,
    # those at the cutoff (here 1e-13 = TAU_REL times |u|) included
    rng = np.random.default_rng(31)
    factors = [10.0 ** -k for k in range(3, 16)]
    factors += [c * contour.TAU_REL for c in (0.25, 0.5, 2.0, 4.0)]
    verdicts = []
    for _ in range(3):
        base = np.array([rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0),
                         *(rng.uniform(0.5, 2.0, 2) * np.exp(1j * rng.uniform(0, TWO_PI, 2)))])
        for part in range(3):
            parts = base.copy()
            for factor in factors:
                parts[part] = 0.0
                # |u|^2 = (vplus^2 + 2*rho1^2 + 2*rho2^2)/5
                size = math.sqrt((abs(parts[0]) ** 2 + 2 * abs(parts[1]) ** 2
                                  + 2 * abs(parts[2]) ** 2) / 5)
                parts[part] = factor * size * base[part] / abs(base[part])
                canon = np.array([parts[0].real, *parts[1:].view(float)])
                for scale in 10.0 ** np.arange(-290, 291, 58):
                    row = np.array(_from_canon_comps((canon * scale).tolist()))
                    verdict = scalar_verdict(PentaComplex(*row))
                    assert path_verdict(row) is verdict, (part, factor, scale)
                    verdicts.append(verdict)
    assert len(verdicts) == 3 * 3 * 17 * 11 and 0 < sum(verdicts) < len(verdicts)


# where the component route's guard raises NonInvertibleOnPath around a
# pole s*(0.3, -0.1, 0.2, 0.05, -0.15), on a 64-gon in plane 1 whose line
# part clears the pole's by k*1e-13: k -> the node or vertex it names
FAR_POLE_VERDICTS = {
    1.0: {0.3: "quadrature node 0", 0.6: "quadrature node 0"},
    1e3: {0.3: "quadrature node 0", 0.6: "quadrature node 0", 0.9: "quadrature node 0",
          1.1: "quadrature node 67"},
    1e6: {k: "vertex 28" for k in (0.3, 0.6, 0.9, 1.1, 1.5, 3, 10, 100)},
}


@pytest.mark.parametrize("s", sorted(FAR_POLE_VERDICTS))
def test_the_guard_around_a_far_pole_gives_the_component_route_verdict(s):
    # u - u0 formed from canonical parts rounds relative to |u| + |u0|: at
    # s = 1e3 and k = 1.5 a guard on it alone would call node 142 a divisor
    # of zero, which it is not to rounding in components
    pole = s * PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    verdicts = {}
    for k in (0.3, 0.6, 0.9, 1.1, 1.5, 3, 10, 100):
        loop = plane_circle(pole, 1, 1.0, line_offset=k * 1e-13, other_offset=0.75, vertices=64)
        try:
            residue_formula(lambda u: u * u, loop, pole, samples=256)
        except NonInvertibleOnPath as exc:
            verdicts[k] = str(exc).rsplit(" at ", 1)[1]
    assert verdicts == FAR_POLE_VERDICTS[s]


def exact_winding(point, polygon, tol=None):
    """winding with its screen switched off: the exact edge test on every
    call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(contour, "_EDGE_ROUNDING", math.inf)
        return winding(point, polygon, tol)


WINDING_POWERS = st.one_of(st.integers(-997, 997), st.sampled_from((1022, 1023)))


@st.composite
def winding_cases(draw, powers=WINDING_POWERS):
    """A point, a closed polygon, a tolerance and the power of two k they
    are scaled by, drawn from `powers`: by default k from -997 to 997
    (about 1e-300 to 1e300), or 1022 and 1023, where the largest distance
    reaches 2**1022.  The polygon is
    random, regular, a fan, or collapsed to one point give or take a few
    ulp (a loop in one plane seen from the other: its edges have zero
    length or rounding length).  The point is anywhere, or 0.5 to 4 cutoffs
    from an edge (any edge, or the longest).  The tolerance is the default,
    an explicit one from 0 to below eps times the largest distance, or
    1e-3."""
    n = draw(st.integers(3, 40))
    kind = draw(st.sampled_from(("random", "regular", "fan", "collapsed")))
    if kind == "random":
        pts = np.array(draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                                     min_size=n, max_size=n)))
    elif kind in ("regular", "fan"):
        # a fan is an arc of a regular polygon closed by one long chord
        arc = TWO_PI if kind == "regular" else draw(st.floats(0.5, 5.5))
        angles = arc * (np.arange(n) + draw(st.floats(0.0, 1.0))) / n
        pts = np.column_stack((np.cos(angles), np.sin(angles)))
    else:
        ulps = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                             min_size=n, max_size=n))
        pts = np.array(draw(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
                       ) + 2.0 ** -54 * np.array(ulps)
    near = draw(st.booleans())
    if near:
        edges = np.roll(pts, -1, axis=0) - pts
        i = draw(st.one_of(st.integers(0, n - 1),
                           st.just(int(np.hypot(*edges.T).argmax()))))
        edge = pts[(i + 1) % n] - pts[i]
        point = pts[i] + draw(st.floats(0.0, 1.0)) * edge
    else:
        point = np.array(draw(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))))
    far = float(np.hypot(*(pts - point).T).max())
    tol = draw(st.sampled_from((None, None, 0.0, "below eps", 1e-3)))
    if tol == "below eps":
        tol = draw(st.floats(0.0, 1.0, exclude_max=True)) * np.finfo(float).eps * far
    if near:
        cutoff = contour.TAU_EDGE * far if tol is None else tol
        length = math.hypot(*edge)
        normal = np.array((-edge[1], edge[0])) / length if length else np.array((1.0, 0.0))
        away = draw(st.floats(0.5, 4.0)) * (cutoff or np.finfo(float).eps * far)
        point = point + draw(st.sampled_from((-1.0, 1.0))) * away * normal
    k = draw(powers)
    scale = 2.0 ** k
    return (tuple((point * scale).tolist()), PlaneProjection(pts * scale, 1, True),
            None if tol is None else tol * scale, k)


@settings(derandomize=True, deadline=None, database=None, max_examples=600)
@given(winding_cases())
def test_winding_screen_gives_the_exact_outcome(case):
    # the same winding number, or OnBoundary with the same message
    point, polygon, tol, k = case
    got = outcome(winding, point, polygon, tol)
    assert got == outcome(exact_winding, point, polygon, tol)
    if k <= 997:  # the reference predates the quarter scale at 2**1022
        assert got == outcome(reference_winding, point, polygon, tol)


def reference_outcome(point, polygon, tol, k=None):
    """reference_winding's outcome, without numpy's warnings, on the case
    scaled by 2**-k (exact), its message quoting the point and the cutoff at
    full scale, as winding's does.  By default k is 2 (a quarter) where a
    vertex lies 2**1022 or more from the point, beyond the reference's
    range, and 0 elsewhere."""
    x, y = point
    with np.errstate(all="ignore"):
        if k is None:
            k = 2 if np.abs(polygon._z - complex(x, y)).max() >= 2.0 ** 1022 else 0
        if k == 0:
            return outcome(reference_winding, point, polygon, tol)
        scaled = PlaneProjection(np.ldexp(np.array(polygon.points), -k), polygon.plane, True)
        sx, sy = math.ldexp(x, -k), math.ldexp(y, -k)
        got = outcome(reference_winding, (sx, sy), scaled,
                      None if tol is None else math.ldexp(tol, -k))
    if not isinstance(got, str):
        return got
    cutoff = (math.ldexp(contour.TAU_EDGE * np.abs(scaled._z - complex(sx, sy)).max(), k)
              if tol is None else tol)
    return f"point {point} is within {cutoff:.3g} of edge {got.rsplit(' ', 1)[1]}"


@st.composite
def spiral_loop_cases(draw):
    """A point, the plane-k projection of a 5-D loop and a tolerance: the
    loop's shadow is 1e-10 wide, its far vertex 0 is a unit step along e+
    from its neighbours, and the point lies 0 to 4 cutoffs (about 1e-19)
    from edge 0, rho (1e-18 to 5e-17) short of that edge's end.  From
    vertex 1 the shadow spirals away from the point, each edge shorter than
    its start's distance from the point, so only edge 0's bound keeps the
    screen from skipping the edge test.  A length of edge 0 taken from its
    5-D edge would round relative to that edge, by up to about 1e-16, some
    1e8 times the screen's margin of 16*eps*far, and could let it skip.
    The tolerance is the default or an explicit one near it."""
    k = draw(st.sampled_from((1, 2)))
    rho = 10.0 ** draw(st.floats(-18.0, -16.3))
    growth = draw(st.floats(1.3, 1.7))
    turn = draw(st.floats(0.0, TWO_PI))
    m = math.ceil(math.log(1e-10 / rho) / math.log(growth))
    shadow = [1.2e-10 * cmath.exp(1j * turn)] + [
        rho * growth ** j * cmath.exp(1j * (turn + math.pi * (1 - j / m))) for j in range(m + 1)]
    # plane-k coordinates are sqrt(2/5) times the canonical parts
    ek, tek = (E1, E1_TILDE) if k == 1 else (E2, E2_TILDE)
    verts = [math.sqrt(2.5) * (c.real * ek + c.imag * tek) for c in shadow]
    verts[0] = verts[0] + E_PLUS
    proj = project(Path(tuple(verts), closed=True), k)
    z = proj._z
    along = (z[0] - z[1]) / abs(z[0] - z[1])
    point = z[1] + draw(st.floats(0.05, 1.0)) * rho * along
    default = contour.TAU_EDGE * float(np.abs(z - point).max())
    tol = draw(st.sampled_from((None, None, "explicit")))
    if tol == "explicit":
        tol = draw(st.floats(0.5, 2.0)) * default
    away = draw(st.floats(0.0, 4.0)) * (default if tol is None else tol)
    point += draw(st.sampled_from((-1.0, 1.0))) * away * 1j * along
    return (float(point.real), float(point.imag)), proj, tol


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.one_of(spiral_loop_cases().map(lambda c: (*c, None)),
                 # the scales outside (2**-1000, 2**1022), which winding
                 # rescales: near the float ceiling against the reference
                 # at a quarter, and at 2**-1040 to 2**-1003 (subnormal
                 # vertices from 2**-1022 down) against the reference on the
                 # case scaled back up by 2**-k, which is exact
                 winding_cases(st.sampled_from((1022, 1023))).map(lambda c: (*c[:3], None)),
                 winding_cases(st.integers(-1040, -1003))))
def test_winding_on_stored_lengths_gives_the_reference_outcome(case):
    # the same winding number, or OnBoundary with the same message
    point, polygon, tol, k = case
    assert outcome(winding, point, polygon, tol) == reference_outcome(point, polygon, tol, k)


def test_projections_carry_their_edge_lengths():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = both_planes_loop(u0, vertices=16)
    hand = PlaneProjection(((1.0, 0.0), (0.0, 1e-300), (-1.5e308, 0.0), (1.5e308, -1.0)), 2, True)
    projections = [project(path, k) for path in (loop, Path(loop.vertices, closed=False))
                   for k in (1, 2)]
    for proj in projections + [hand, PlaneProjection(hand.points, 2)]:
        z = proj._z
        ends = contour._ends(z, proj.closed)
        with np.errstate(over="ignore"):
            assert proj._lengths.tobytes() == np.abs(ends - z[:len(ends)]).tobytes()
        assert not proj._lengths.flags.writeable
    assert np.isinf(hand._lengths[2]) and len(projections[2]._lengths) == 15
    # pickle, copy and from_dict rebuild them
    for path in (pickle.loads(pickle.dumps(loop)), copy.copy(loop), copy.deepcopy(loop),
                 Path.from_dict(loop.to_dict())):
        for k in (1, 2):
            got, want = project(path, k)._lengths, project(loop, k)._lengths
            assert got is not want and not got.flags.writeable
            assert got.tobytes() == want.tobytes()
    for other in (pickle.loads(pickle.dumps(hand)), copy.copy(hand), copy.deepcopy(hand)):
        assert other._lengths is not hand._lengths and not other._lengths.flags.writeable
        assert other._lengths.tobytes() == hand._lengths.tobytes()


def test_a_path_builds_its_projections_once():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = both_planes_loop(u0, vertices=16)
    for path in (loop, Path(loop.vertices, closed=False)):
        for k in (1, 2):
            proj = project(path, k)
            assert project(path, k) is proj and proj.plane == k and proj.closed == path.closed
            z = np.array([complex(*project_point(u, k)) for u in path.vertices])
            ends = contour._ends(z, path.closed)
            assert proj._z.tobytes() == z.tobytes()
            assert proj._lengths.tobytes() == np.abs(ends - z[:len(ends)]).tobytes()
            assert not proj._z.flags.writeable and not proj._lengths.flags.writeable
            # a projection built by hand from its points is the same one
            hand = PlaneProjection(proj.points, k, path.closed)
            assert hand == proj
            assert hand._z.tobytes() == z.tobytes()
            assert hand._lengths.tobytes() == proj._lengths.tobytes()
    # pickle, copy, deepcopy and from_dict rebuild them (the lengths:
    # test_projections_carry_their_edge_lengths)
    for path in (pickle.loads(pickle.dumps(loop)), copy.copy(loop), copy.deepcopy(loop),
                 Path.from_dict(loop.to_dict())):
        for k in (1, 2):
            got, want = project(path, k), project(loop, k)
            assert got is not want and got == want
            assert got._z is not want._z and got._z.tobytes() == want._z.tobytes()


def subnormal_winding_cases(count, seed):
    """Random 3- to 11-gons with vertices in [-1, 1]**2 and points in
    [-1.5, 1.5]**2."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.uniform(-1.0, 1.0, (int(rng.integers(3, 12)), 2)), rng.uniform(-1.5, 1.5, 2)


@pytest.mark.parametrize("k", [-1025, -1030, -1040, -1060])
def test_winding_below_the_normal_range_is_the_unit_scale_outcome(k):
    # a vertex within about 2**-1024 of the point made numpy's complex
    # quotient overflow inside (1/a of a subnormal a): wrong windings, or a
    # ValueError on a nan sum of angles.  Each case is rounded at scale 2**k
    # and wound there and scaled back up by 2**-k, which is exact
    mismatches = 0
    for pts, point in subnormal_winding_cases(400, 99):
        tiny = PlaneProjection(np.ldexp(pts, k), 1, True)
        tx, ty = np.ldexp(point, k).tolist()
        unit = PlaneProjection(np.ldexp(np.array(tiny.points), -k), 1, True)
        got = winding_outcome((tx, ty), tiny, None)
        want = winding_outcome((math.ldexp(tx, -k), math.ldexp(ty, -k)), unit, None)
        mismatches += got != want
    assert mismatches == 0
    r = 2.0 ** -1024
    square = PlaneProjection([(r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r)], 1, True)
    assert winding((0.0, 0.0), square) == 1


@st.composite
def disc_cases(draw):
    """A point, a closed polygon, a tolerance and the power of two k they
    are scaled by, drawn from WINDING_POWERS.  The polygon is random,
    regular, or collapsed to one point give or take a few ulp, with
    vertices in [-0.5, 0.5]**2.  The point lies in any direction from the
    centre of the polygon's disc: anywhere outside it (up to 1.2 from the
    centre), just outside (half to one and a half times as far beyond the
    radius as the disc test needs, so on both sides of its threshold), or
    just inside.  The tolerance is the default, 0, one below eps times the
    largest distance, or 1e-3."""
    n = draw(st.integers(3, 40))
    kind = draw(st.sampled_from(("random", "regular", "collapsed")))
    if kind == "random":
        pts = np.array(draw(st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
                                     min_size=n, max_size=n)))
    elif kind == "regular":
        angles = TWO_PI * (np.arange(n) + draw(st.floats(0.0, 1.0))) / n
        pts = 0.5 * np.column_stack((np.cos(angles), np.sin(angles)))
    else:
        ulps = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                             min_size=n, max_size=n))
        pts = np.array(draw(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
                       ) + 2.0 ** -55 * np.array(ulps)
    cx, cy, r = PlaneProjection(pts, 1, True)._disc
    tol = draw(st.sampled_from((None, 0.0, "below eps", 1e-3)))
    if tol == "below eps":
        # the largest distance is about 2r near the disc
        tol = draw(st.floats(0.0, 1.0, exclude_max=True)) * np.finfo(float).eps * 2.0 * r
    where = draw(st.sampled_from(("outside", "just outside", "just inside")))
    if where == "outside":
        d = r + draw(st.floats(0.0, 1.0)) * (1.2 - r)
    elif where == "just inside":
        d = r * draw(st.floats(0.9, 1.0))
    else:
        # d - r = 2*cutoff + 16*eps*(d + r), solved for d
        x = 16.0 * np.finfo(float).eps + (2.0 * contour.TAU_EDGE if tol is None else 0.0)
        threshold = (r * (1.0 + x) + (0.0 if tol is None else 2.0 * tol)) / (1.0 - x)
        d = threshold + draw(st.floats(-0.5, 0.5)) * (threshold - r)
    phi = draw(st.floats(0.0, TWO_PI))
    point = np.array((cx + d * math.cos(phi), cy + d * math.sin(phi)))
    k = draw(WINDING_POWERS)
    scale = 2.0 ** k
    return (tuple((point * scale).tolist()), PlaneProjection(pts * scale, 1, True),
            None if tol is None else tol * scale, k)


@settings(derandomize=True, deadline=None, database=None, max_examples=600)
@given(disc_cases())
def test_winding_around_the_disc_gives_the_reference_outcome(case):
    # the same winding number, or OnBoundary with the same message, on the
    # case scaled by 2**-k (exact), where the reference needs no rescale
    point, polygon, tol, k = case
    assert outcome(winding, point, polygon, tol) == reference_outcome(point, polygon, tol, k)


def test_a_point_outside_a_collapsed_projection_is_answered_by_the_disc(monkeypatch):
    # a loop in one plane projects onto the other to about a point, which
    # the projected pole lies outside of: winding answers without reading
    # the vertex arrays
    pole = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loops = [(plane_circle(center, k, radius, offset, 2.0, vertices=v), center, k)
             for center, radius, offset, v in ((pole, 1.0, None, 64), (1e6 * pole, 1e-3, 0.5, 257))
             for k in (1, 2)]
    for loop, center, k in loops:
        assert winding(project_point(center, k), project(loop, k)) == 1

    def arctan2(*args, **kwargs):
        raise AssertionError("winding read the vertex arrays")

    monkeypatch.setattr(contour.np, "arctan2", arctan2)
    for loop, center, k in loops:
        for tol in (None, 0.0, 1e-12):
            assert winding(project_point(center, 3 - k), project(loop, 3 - k), tol) == 0
        with pytest.raises(AssertionError, match="vertex arrays"):
            winding(project_point(center, k), project(loop, k))


def test_projections_carry_their_disc():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = both_planes_loop(u0, vertices=16)
    for path in (loop, plane_circle(u0, 1, 1.0, vertices=16)):
        for k in (1, 2):
            proj = project(path, k)
            x, y = proj._z.real, proj._z.imag
            cx, cy = 0.5 * x.min() + 0.5 * x.max(), 0.5 * y.min() + 0.5 * y.max()
            radius = float(np.abs(proj._z - complex(cx, cy)).max())
            assert proj._disc == (cx, cy, radius)
            # a projection built by hand, pickled, copied or deep-copied,
            # and one of the path rebuilt, carries the same disc
            others = [PlaneProjection(proj.points, k, True), pickle.loads(pickle.dumps(proj)),
                      copy.copy(proj), copy.deepcopy(proj)]
            others += [project(copied, k) for copied in (
                pickle.loads(pickle.dumps(path)), copy.copy(path), copy.deepcopy(path))]
            for other in others:
                assert other is not proj and other._disc == proj._disc
    # no vertex: a nan centre, which no point passes, and the arrays' 0
    empty = PlaneProjection((), 1, True)
    assert math.isnan(empty._disc[0]) and empty._disc[2] == 0.0
    assert winding((1.0, 2.0), empty) == 0


def reference_pole_integral(rel_c):
    args = np.angle(plane_view(rel_c))
    wraps = np.rint(np.diff(args, axis=0) / TWO_PI).sum(axis=0)
    ends = rel_c[[0, -1]]
    mant, expo = np.frexp(np.column_stack((np.abs(ends[:, 0]),
                                           np.abs(plane_view(ends)))))
    out = np.empty(5)
    out[[0, 1, 3]] = np.log(mant[1] / mant[0]) + math.log(2.0) * (expo[1] - expo[0])
    out[[2, 4]] = args[-1] - args[0] - TWO_PI * wraps
    return out


def reference_integrate(f, path, n):
    """integrate() before its nodes moved onto the canonical parts, the
    slice concatenation and the trimmed guard: the nodes built in
    components and transformed row by row, np.roll for the segment ends;
    around a pole, the remainder alone."""
    pole = None
    if isinstance(f, contour._PoleIntegrand):
        f, pole, f_pole = f.f, f.pole, f.f_pole
    verts = path._array
    ends = np.roll(verts, -1, axis=0) if path.closed else verts[1:]
    starts = verts[:len(ends)]
    steps = ends - starts
    t, w = contour._segment_rule(n)
    nodes = (starts[:, None, :] + t[:, None] * steps[:, None, :]).reshape(-1, 5)
    du = (w[:, None] * steps[:, None, :]).reshape(-1, 5)
    origin = np.zeros(5) if pole is None else np.array(pole.components)
    rel = nodes if pole is None else np.concatenate((nodes, starts, ends[-1:])) - origin
    canon = canon_rows(np.concatenate((rel, du)))
    rel_c, kernel = canon[:len(nodes)], canon[len(rel):]
    if pole is not None:
        reference_invertible(rel, canon[:len(rel)], len(nodes))
        kernel = plane_divide(kernel, rel_c)
    values = evaluate_rows(f, nodes, rel_c + canon_rows(origin[None]))
    if pole is not None:
        values -= canon_rows(np.array([f_pole.components]))
    line = float((values[:, 0] * kernel[:, 0]).sum())
    z1, z2 = (plane_view(values) * plane_view(kernel)).sum(axis=0).tolist()
    return _result(*_from_canon_comps((line, z1.real, z1.imag, z2.real, z2.imag)))


def reference_residue_formula(f, path, u0, samples):
    windings = []
    for k in (1, 2):
        points = [project_point(u, k) for u in path.vertices]
        try:
            windings.append(reference_winding(project_point(u0, k),
                                              PlaneProjection(points, k, True)))
        except OnBoundary as exc:
            raise PoleOnPath(f"projected pole touches the plane-{k} projection") from exc
    per_segment = max(1, round(samples / len(path.vertices)))
    f_u0 = f(u0)
    remainder = reference_integrate(contour._PoleIntegrand(f, u0, f_u0), path, per_segment)
    # the pole term from the logs of the loop's canonical coordinates
    # relative to u0, the first vertex repeated last
    rows = np.concatenate((path._array, path._array[:1])) - np.array(u0.components)
    exact = reference_pole_integral(canon_rows(rows))
    lhs = remainder + f_u0 * _result(*_from_canon_comps(exact.tolist()))
    return lhs, TWO_PI * (f_u0 * (windings[0] * E1_TILDE + windings[1] * E2_TILDE))


def seeded_loops(seed):
    """Closed loops around seeded poles: plane-1, plane-2, both planes and
    jittered, with the pole and every loop's vertex count."""
    rng = np.random.default_rng(seed)
    for vertices in (3, 16, 64, 257):
        u0 = PentaComplex(*rng.uniform(-0.5, 0.5, 5))
        radius = float(rng.uniform(0.3, 2.0))
        yield u0, plane_circle(u0, 1, radius, vertices=vertices)
        yield u0, plane_circle(u0, 2, radius, 0.6 * radius, 0.9 * radius, vertices=vertices)
        yield u0, both_planes_loop(u0, radius, vertices=vertices)
        yield u0, jittered_loop(u0, vertices, rng)


EPS = np.finfo(float).eps


def rule_value(f, path, n):
    """The composite rule's own value on the path with n nodes per segment,
    sum w * f(u) du over the nodes integrate uses, computed in extended
    precision (np.longdouble, whose 64-bit significand leaves its rounding
    far below an eps of the sum's terms): f applies to long-double arrays,
    the line's and the stacked planes'.  Only rounding separates the
    value and the reference's from it, where the rule's own error (its
    distance from the exact integral) can be hundreds of eps."""
    ld = np.longdouble
    assert np.finfo(ld).eps < 1e-18, "the rule's value needs a long double wider than double"
    sq5 = np.sqrt(ld(5))
    p, q = (sq5 - 1) / 4, np.sqrt((5 + sq5) / 8)
    p2, q2 = 2 * p * p - 1, 2 * p * q
    transform = np.array([[1, 1, 1, 1, 1], [1, p, p2, p2, p], [0, q, q2, -q2, -q],
                          [1, p2, p, p, p2], [0, q2, -q, q, -q2]], dtype=ld)
    verts = path._array.astype(ld)
    ends = np.roll(verts, -1, axis=0) if path.closed else verts[1:]
    starts = verts[:len(ends)]
    steps = ends - starts
    t, w = (x.astype(ld) for x in contour._segment_rule(n))
    nodes = (starts[:, None, :] + t[:, None] * steps[:, None, :]).reshape(-1, 5) @ transform.T
    du = (w[:, None] * steps[:, None, :]).reshape(-1, 5) @ transform.T

    def planes(c):
        return c[:, 1::2] + 1j * c[:, 2::2]

    line = (f(nodes[:, 0]) * du[:, 0]).sum()
    z1, z2 = (f(planes(nodes)) * planes(du)).sum(axis=0)
    # the canonical basis: the transform's rows times 1/5 (line) and 2/5
    basis = transform * (np.array([1, 2, 2, 2, 2], dtype=ld) / 5)[:, None]
    return tuple(float(x) for x in np.array([line, z1.real, z1.imag, z2.real, z2.imag]) @ basis)


def check_against_the_reference(cases, rounding=0.0):
    """cases: (value, the reference's value, the exact value, and
    optionally the rule's value), as component tuples, with scale
    max(1, |exact|).  Where the reference has converged (its error at most
    1e-12 of the scale), rounding decides it: both errors are measured from
    the rule's value (rule_value) where the case gives it, the exact value
    otherwise, the value's error exceeds the reference's by at most 4 eps
    of the scale, and over those cases the median error is no larger than
    the reference's.  Elsewhere the value is the reference's to 1e-9 of the
    reference's error, or to `rounding` eps of the scale where that is more
    (the same rule, rounded differently)."""
    errors = []
    for got, ref, exact, *rule in cases:
        scale = max(1.0, max(map(abs, exact)))
        ref_err = dev(ref, exact)
        if ref_err <= 1e-12 * scale:
            target = rule[0] if rule else exact
            err, ref_err = dev(got, target), dev(ref, target)
            assert err <= ref_err + 4 * EPS * scale, (got, ref, exact, target)
            errors.append((err, ref_err))
        else:
            assert dev(got, ref) <= max(1e-9 * ref_err, rounding * EPS * scale), (got, ref, exact)
    median, ref_median = np.median(errors, axis=0)
    assert median <= ref_median, (median, ref_median)


@pytest.mark.parametrize("seed", [301, 302])
def test_residue_formula_matches_the_reference_arithmetic(seed):
    # the reference is the old order of float operations (nodes built in
    # components, then transformed row by row); the canonical parts give
    # the same windings and rhs bit for bit, and an lhs no less accurate
    cases = []
    for u0, loop in seeded_loops(seed):
        for k in (1, 2):
            point, proj = project_point(u0, k), project(loop, k)
            assert winding(point, proj) == reference_winding(point, proj)
        for f in (exp, sin, lambda u: multiply(u, u) - 2.0 * u):
            for samples in (64, 256, 1024):
                lhs, rhs = residue_formula(f, loop, u0, samples=samples)
                want_lhs, want_rhs = reference_residue_formula(f, loop, u0, samples)
                assert rhs.components == want_rhs.components, (seed, samples)
                cases.append((lhs.components, want_lhs.components, rhs.components))
    check_against_the_reference(cases)


def value_or_error(fn, *args):
    try:
        return fn(*args).components
    except NonInvertibleOnPath as exc:
        return str(exc)


def test_integrate_and_winding_match_the_reference_arithmetic():
    # integrate against the reference's arithmetic where the exact value is
    # known: 0 round a closed loop, and on an open path from a to b,
    # sinh(b) - sinh(a) for cosh and (b*b - a*a)/2 for u; where the
    # reference has converged, both are measured from the rule's own value
    # (on a closed 3-gon with 17 nodes per segment, cosh's rule lies 1214
    # eps from the integral, and the two within 3.2 and 2.7 eps of it).
    # The pole integrand's value is known only up to f(u0)'s own rounding,
    # a few eps (the pole identity's test measures it): the two agree to
    # rounding, or raise the same error.  winding is unchanged
    rng = np.random.default_rng(303)
    cases = []
    for u0, loop in seeded_loops(304):
        opened = Path(loop.vertices[:int(rng.integers(2, len(loop.vertices) + 1))],
                      closed=False)
        for path in (loop, opened):
            a, b = path.vertices[0], path.vertices[-1]
            exact = ((cosh, np.cosh, ZERO if path.closed else sinh(b) - sinh(a)),
                     (lambda u: u, lambda x: x, ZERO if path.closed else (b * b - a * a) / 2))
            for n in (1, 2, 5, 9, 17):
                for f, f_parts, want in exact:
                    cases.append((integrate(f, path, n).components,
                                  reference_integrate(f, path, n).components, want.components,
                                  rule_value(f_parts, path, n)))
                pole = contour._PoleIntegrand(exp, u0, exp(u0))
                got = value_or_error(integrate, pole, path, n)
                ref = value_or_error(reference_integrate, pole, path, n)
                if isinstance(got, str) or isinstance(ref, str):
                    assert got == ref
                else:
                    assert dev(got, ref) <= 32 * EPS * max(1.0, max(map(abs, ref)))
        for k in (1, 2):
            proj = project(loop, k)
            points = [project_point(u0, k), (0.0, 0.0), *proj.points[:2]]
            for q in points + [tuple(c) for c in rng.uniform(-2, 2, (10, 2)).tolist()]:
                for tol in (None, 0.05):
                    assert (outcome(winding, q, proj, tol)
                            == outcome(reference_winding, q, proj, tol)), (k, q, tol)
    check_against_the_reference(cases, rounding=32)


def test_integral_of_u_is_exact_on_open_paths():
    # u du is linear along each segment, which Gauss-Legendre integrates
    # exactly at every node count: the sum telescopes to (b*b - a*a)/2 from
    # the first vertex a to the last b, up to rounding of a few eps per
    # segment at the scale of the largest vertex component squared (these
    # paths reach 3.3 eps, and 4.4 with the nodes built in components)
    rng = np.random.default_rng(306)
    for _ in range(30):
        verts = rng.uniform(-2.0, 2.0, (int(rng.integers(2, 9)), 5))
        path = Path(tuple(PentaComplex(*v) for v in verts.tolist()))
        a, b = path.vertices[0], path.vertices[-1]
        want = (b * b - a * a) / 2
        bound = 8 * EPS * (len(verts) - 1) * np.abs(verts).max() ** 2
        for n in (1, 2, 3, 7, 8, 9, 16, 17, 64):
            assert dev(integrate(lambda u: u, path, n), want) <= bound, n


def error_of(fn, *args, **kwargs):
    with pytest.raises(Exception) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


def test_errors_keep_their_type_and_message():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    # a node on the divisor set (vplus of u - u0 is 0 all along the loop)
    flat = plane_circle(u0, 1, 1.0, line_offset=0.0, other_offset=0.7, vertices=16)
    # a vertex on it: vertex 2 has vplus(u - u0) = 0
    verts = tuple(u0 + (0.0 if i == 2 else 0.7) * E_PLUS + 0.7 * E2
                  + math.cos(TWO_PI * i / 5) * E1 + math.sin(TWO_PI * i / 5) * E1_TILDE
                  for i in range(5))
    kinked = Path(verts, closed=True)
    loop = plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=16)

    def broken(u):
        raise ZeroDivisionError("boom")

    errors = []
    for f, path, pole in ((exp, flat, u0), (exp, kinked, u0),
                          (lambda u: ONE, loop, u0 + 1.0 * E1)):
        errors.append(error_of(residue_formula, f, path, pole, samples=64))
        assert errors[-1] == error_of(reference_residue_formula, f, path, pole, 64)
    assert errors[0][0] is NonInvertibleOnPath and "quadrature node 0" in errors[0][1]
    assert errors[1][0] is NonInvertibleOnPath and errors[1][1].endswith("at vertex 2")
    assert errors[2] == (PoleOnPath, "projected pole touches the plane-1 projection")
    # the reference calls f bare; these are the messages of _call
    assert (error_of(residue_formula, broken, loop, u0, samples=64)
            == (EvaluationFailed, f"evaluator raised at {u0!r}: boom"))
    assert (error_of(residue_formula, lambda u: 1.0, loop, u0, samples=64)
            == (EvaluationFailed, f"evaluator returned float, not PentaComplex, at {u0!r}"))


def test_segment_rule_is_cached_read_only():
    for n in (1, 8, 9, 64):
        t, w = contour._segment_rule(n)
        assert contour._segment_rule(n)[0] is t and len(t) == len(w) == n
        for a in (t, w):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.5
