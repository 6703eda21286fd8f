import math

import numpy as np
import pytest

from pentacomplex import (ONE, ZERO, EvaluationFailed, NonInvertibleOnPath,
                          OnBoundary, Overflow, Path, PentaComplex, PoleOnPath,
                          contour, cosh, exp, integrate, multiply, plane_circle,
                          project, project_point, residue_formula, sin, winding)
from pentacomplex.canonical import _CANON, E1, E1_TILDE, E2, E2_TILDE, E_PLUS
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


def test_residue_quadrature_converges_second_order():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=64)
    errors = []
    for sps in (4, 8, 16, 32):
        lhs, rhs = residue_formula(exp, loop, u0, samples=sps * 64)
        errors.append(dev(lhs, rhs))
    for e0, e1 in zip(errors, errors[1:]):
        if e0 > 1e-9:
            assert e0 / e1 >= 3.0, errors


def test_residue_quadrature_gauss_legendre_order():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=16)
    errors = []
    for sps in (1, 2, 3, 4):
        lhs, rhs = residue_formula(exp, loop, u0, samples=sps * 16)
        errors.append(dev(lhs, rhs))
    for e0, e1 in zip(errors, errors[1:]):
        if e0 > 1e-12:
            assert e0 / e1 >= 50.0, errors
    lhs, rhs = residue_formula(exp, loop, u0, samples=8 * 16)
    assert dev(lhs, rhs) <= 1e-13


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
    with pytest.raises(ValueError):
        plane_circle(ZERO, 1, -1.0)
    with pytest.raises(ValueError):
        plane_circle(ZERO, 1, 1.0, vertices=2)


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
    for f in (exp, sin, cosh):
        scalar_f = lambda u, f=f: f(u)  # noqa: E731 -- not in the array-lift table
        for name, loop in loops.items():
            lhs, rhs = residue_formula(f, loop, u0, samples=512)
            want, _ = residue_formula(scalar_f, loop, u0, samples=512)
            assert dev(lhs, want) <= 1e-13, (f.__name__, name)
            assert dev(lhs, rhs) <= 1e-12, (f.__name__, name)
            assert dev(integrate(f, loop, 4), integrate(scalar_f, loop, 4)) <= 1e-13


def scalar_winding(point, polygon, tol=contour.TAU_EDGE):
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
    for i in range(n):
        if point_segment_distance(point, pts[i], pts[(i + 1) % n]) <= tol:
            raise OnBoundary(f"point {point} is within {tol} of edge {i}")
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
        for q in queries:
            assert outcome(winding, q, poly) == outcome(scalar_winding, q, poly), (pts, q)


def test_residue_non_invertible_on_path_for_every_evaluator():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    # zero line offset: vplus of u - u0 vanishes at every node, which is
    # tested before any evaluator runs
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


def test_array_path_overflow_raises_like_scalar_path():
    # vplus around 800: e^vplus overflows on the line
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15) + 800.0 * E_PLUS
    loop = plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=16)
    errors = []
    for f in (exp, lambda u: exp(u)):
        with pytest.raises(EvaluationFailed) as info:
            residue_formula(f, loop, u0, samples=64)
        assert isinstance(info.value.__cause__, Overflow)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


def loop_evaluate(f, nodes):
    """The per-row loop the callable path replaced, kept as its reference."""
    out = np.empty_like(nodes)
    for i, comps in enumerate(nodes.tolist()):
        out[i] = f(PentaComplex(*comps)).components
    return out @ _CANON.T


def test_callable_path_is_bit_identical_to_the_per_row_loop():
    rng = np.random.default_rng(67)
    nodes = rng.uniform(-2.0, 2.0, (257, 5))
    nodes[:8] = rng.choice([0.0, -0.0, 1.0, -1.0], (8, 5))
    for f in (lambda u: multiply(u, u) + 3.0 * u, lambda u: exp(u), lambda u: -u):
        got = contour._evaluate(f, nodes, nodes @ _CANON.T)
        assert got.tobytes() == loop_evaluate(f, nodes).tobytes()


def test_vertex_array_is_the_row_list():
    path = plane_circle(PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15), 2, 1.0, vertices=97)
    want = np.array([v.components for v in path.vertices])
    got = contour._vertex_array(path)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_callable_nodes_and_results_have_float_components():
    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    seen = []

    def f(u):
        seen.append(u)
        return multiply(u, u)

    lhs, rhs = residue_formula(f, plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=16), u0,
                               samples=64)
    val = integrate(f, Path((ZERO, ONE + E1), closed=False), 8)
    assert len(seen) == 64 + 1 + 8
    for u in seen + [lhs, rhs, val]:
        assert all(type(x) is float for x in u.components), u


@pytest.mark.parametrize("s", [1e160, 1e-170])
def test_pole_divisor_test_is_scale_safe(s):
    # along u = t*a, t from s to 2s, (u - 0)^-1 du = dt/t: the integral is log 2
    a = PentaComplex(1.0, 0.3, 0.0, 0.1, 0.0)
    path = Path((s * a, (2.0 * s) * a), closed=False)
    pole_integral = contour._PoleIntegrand(lambda u: ONE, ZERO)
    assert dev(integrate(pole_integral, path, 16), scalar(math.log(2.0))) <= 1e-14
    # the divisor-of-zero set is still found at that scale (vplus = 0 on E1)
    with pytest.raises(NonInvertibleOnPath):
        integrate(pole_integral, Path((s * E1, (2.0 * s) * E1), closed=False), 16)
