"""Self-contained verification suites for every identity the library claims.

Each suite re-derives its expected values through an independent route
(either printed constants, brute-force ring arithmetic, dense matrix
algebra, finite differences or quadrature) and checks the library against
them at fixed tolerances.  Each suite is one `@_suite(name)` function, and
the suites run in declaration order.  The CLI `selftest` subcommand runs
all suites; the pytest acceptance module asserts each one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import analytic, contour, cosexp, elementary, geometry, polyfactor
from .algebra import (ONE, PentaComplex, basis_product, inverse, multiply,
                      to_matrix)
from .canonical import (E1, E1_TILDE, E2, E2_TILDE, E_PLUS, SQRT5, TWO_PI,
                        CanonicalForm, canonical_multiply, from_canonical,
                        irreducible_rep, rotation_matrix, to_canonical)
from .errors import Degenerate
from .geometry import modulus_product_bound, polar_form


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    seconds: float
    failures: list = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"{status} {self.name} ({self.checks} checks, {self.seconds:.3f}s)"
        if self.failures:
            msg += " :: " + "; ".join(self.failures[:3])
        return msg


class _Checker:
    def __init__(self):
        self.checks = 0
        self.failures = []

    def check(self, cond: bool, msg: str):
        self.checks += 1
        if not cond and len(self.failures) < 10:
            self.failures.append(msg)

    def close(self, got: float, want: float, tol: float, msg: str):
        self.check(abs(got - want) <= tol, f"{msg}: got {got!r}, want {want!r}")

    def close_penta(self, got: PentaComplex, want: PentaComplex, tol: float, msg: str):
        dev = max(abs(g - w) for g, w in zip(got, want))
        self.check(dev <= tol, f"{msg}: deviation {dev:.3e} > {tol:.1e}")


SUITES = []


def _suite(name: str):
    """Declare the check body `def suite_x(c)` as the suite `name`: the
    public `suite_x()` runs the body on a fresh _Checker, timed, and is
    appended to SUITES."""

    def declare(body):
        def suite() -> SuiteResult:
            c = _Checker()
            start = time.perf_counter()
            body(c)
            elapsed = time.perf_counter() - start
            return SuiteResult(name=name, passed=not c.failures, checks=c.checks,
                               seconds=elapsed, failures=c.failures)

        suite.__name__ = suite.__qualname__ = body.__name__
        SUITES.append(suite)
        return suite

    return declare


def _rand_penta(rng, lo=-10.0, hi=10.0) -> PentaComplex:
    return PentaComplex(*rng.uniform(lo, hi, 5).tolist())


def _rel_dev(got: PentaComplex, want: PentaComplex) -> float:
    scale = max(1.0, abs(want))
    return max(abs(g - w) for g, w in zip(got, want)) / scale


# ---------------------------------------------------------------------------
# 1. basis table

# the ten basis products, transcribed from the multiplication table
_BASIS_TABLE = {(1, 1): 2, (2, 2): 4, (3, 3): 1, (4, 4): 3, (1, 2): 3,
                (1, 3): 4, (1, 4): 0, (2, 3): 0, (2, 4): 1, (3, 4): 2}


@_suite("basis-table")
def suite_basis_table(c: _Checker):
    def core():
        for (j, k), expect in _BASIS_TABLE.items():
            got = multiply(PentaComplex.basis(j), PentaComplex.basis(k))
            if got.components != PentaComplex.basis(expect).components:
                return False, f"h{j}*h{k}"
        for j in range(5):
            for k in range(5):
                if basis_product(j, k) != (j + k) % 5:
                    return False, f"basis_product({j},{k})"
        return True, ""

    core()  # warm up
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        ok, where = core()
        best = min(best, time.perf_counter() - t0)
    c.check(ok, f"basis table mismatch at {where}")
    c.check(best < 1e-3, f"basis table took {best * 1e3:.3f} ms (limit 1 ms)")


# ---------------------------------------------------------------------------
# 2. ring axioms

@_suite("ring-axioms")
def suite_ring_axioms(c: _Checker):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(1000):
        u = _rand_penta(rng)
        v = _rand_penta(rng)
        w = _rand_penta(rng)
        c.check(multiply(u, v).components == multiply(v, u).components,
                "commutativity not exact")
        scale = 1e-12 * (1.0 + abs(u) * abs(v) * abs(w))
        lhs = multiply(multiply(u, v), w)
        rhs = multiply(u, multiply(v, w))
        c.check(max(abs(a - b) for a, b in zip(lhs, rhs)) <= scale,
                "associativity deviation")
        lhs = multiply(u, v + w)
        rhs = multiply(u, v) + multiply(u, w)
        c.check(max(abs(a - b) for a, b in zip(lhs, rhs)) <= scale,
                "distributivity deviation")
    c.check(time.perf_counter() - t0 < 1.0, "ring axiom suite exceeded 1 s")


# ---------------------------------------------------------------------------
# 3. matrix representations

@_suite("matrix-representation")
def suite_matrix_rep(c: _Checker):
    rng = np.random.default_rng(102)
    T = rotation_matrix()
    for _ in range(1000):
        u = _rand_penta(rng)
        v = _rand_penta(rng)
        mprod = to_matrix(multiply(u, v))
        dense = to_matrix(u) @ to_matrix(v)
        scale = max(1.0, float(np.linalg.norm(dense)))
        c.check(float(np.linalg.norm(mprod - dense)) <= 1e-12 * scale,
                "matrix homomorphism deviation")
    for _ in range(200):
        u = _rand_penta(rng)
        U = to_matrix(u)
        B = T @ U @ T.T
        rep = irreducible_rep(u)
        want = np.zeros((5, 5))
        want[0, 0] = rep.vplus
        want[1:3, 1:3] = rep.v1_block
        want[3:5, 3:5] = rep.v2_block
        off = B - want
        scale = max(1.0, float(np.linalg.norm(U)))
        c.check(float(np.abs(off).max()) <= 1e-12 * scale,
                "irreducible block-diagonalization off-block mass")


# ---------------------------------------------------------------------------
# 4. canonical structure

@_suite("canonical-structure")
def suite_canonical(c: _Checker):
    zero = PentaComplex()
    relations = [
        (E_PLUS, E_PLUS, E_PLUS, "e+^2 = e+"),
        (E1, E1, E1, "e1^2 = e1"),
        (E2, E2, E2, "e2^2 = e2"),
        (E1_TILDE, E1_TILDE, -1.0 * E1, "~e1^2 = -e1"),
        (E2_TILDE, E2_TILDE, -1.0 * E2, "~e2^2 = -e2"),
        (E1, E1_TILDE, E1_TILDE, "e1*~e1 = ~e1"),
        (E2, E2_TILDE, E2_TILDE, "e2*~e2 = ~e2"),
        (E_PLUS, E1, zero, "e+*e1 = 0"),
        (E_PLUS, E2, zero, "e+*e2 = 0"),
        (E_PLUS, E1_TILDE, zero, "e+*~e1 = 0"),
        (E_PLUS, E2_TILDE, zero, "e+*~e2 = 0"),
        (E1, E2, zero, "e1*e2 = 0"),
        (E1, E2_TILDE, zero, "e1*~e2 = 0"),
        (E2, E1_TILDE, zero, "e2*~e1 = 0"),
        (E1_TILDE, E2_TILDE, zero, "~e1*~e2 = 0"),
    ]
    for a, b, want, label in relations:
        c.close_penta(multiply(a, b), want, 1e-14, label)
    c.close_penta(E_PLUS + E1 + E2, ONE, 1e-14, "e+ + e1 + e2 = 1")
    c.close(abs(E_PLUS), 1.0 / SQRT5, 1e-15, "|e+|")
    for e in (E1, E1_TILDE, E2, E2_TILDE):
        c.close(abs(e), math.sqrt(0.4), 1e-15, "plane basis modulus")
    rng = np.random.default_rng(103)
    for _ in range(1000):
        u = _rand_penta(rng)
        v = _rand_penta(rng)
        got = canonical_multiply(to_canonical(u), to_canonical(v))
        want = to_canonical(multiply(u, v))
        scale = max(1.0, abs(want.vplus), abs(want.v1), abs(want.tv1),
                    abs(want.v2), abs(want.tv2))
        dev = max(abs(got.vplus - want.vplus), abs(got.v1 - want.v1),
                  abs(got.tv1 - want.tv1), abs(got.v2 - want.v2),
                  abs(got.tv2 - want.tv2))
        c.check(dev <= 1e-12 * scale, f"canonical multiplication deviates by {dev:.2e}")


# ---------------------------------------------------------------------------
# 5. cosexponential triple agreement

def _agree(c: _Checker, x: float, y: float, tol: float, msg: str):
    c.check(abs(x - y) <= tol * max(1.0, abs(x), abs(y)), f"{msg}: {x!r} vs {y!r}")


@_suite("cosexp-triple-agreement")
def suite_cosexp_triple(c: _Checker):
    t0 = time.perf_counter()
    for i in range(-50, 51):
        y = i / 10.0
        for k in range(5):
            series = cosexp.g5_series(k, y, 60)
            closed = cosexp.g5_closed(k, y)
            radical = cosexp.g5_closed_radical(k, y)
            _agree(c, series, closed, 1e-10, f"series vs closed at k={k}, y={y}")
            _agree(c, closed, radical, 1e-10, f"closed vs radical at k={k}, y={y}")
            _agree(c, series, radical, 1e-10, f"series vs radical at k={k}, y={y}")
    c.check(time.perf_counter() - t0 < 1.0, "triple agreement exceeded 1 s")
    # _agree is absolute below 1, so the package's values are also held to
    # 1 ulp of the exact rational series where they come from the series
    for y in (1e-8, -1e-5, 1e-2, -0.5, 1.5):
        for k, got in enumerate(cosexp.cosexp_values(y).g):
            err = _ulps_off(got, _exact_g5(k, y))
            c.check(err <= 1, f"cosexp_values g5{k}({y}) is {float(err):.3g} ulp off")
    # and exp((h1 +- h4) y) = exp(h1 y) exp(h4 (+-y)), whose h4^m is h_{-m},
    # up to the |y| where exp_h1_minus_h4 sums its series
    for y in (1e-8, -1e-4, 0.1, -0.6, 1.0):
        g = [_exact_g5(k, y) for k in range(5)]
        for sign, f in ((1, cosexp.exp_h1_plus_h4), (-1, cosexp.exp_h1_minus_h4)):
            h = [_exact_g5(m, sign * y) for m in range(5)]
            for j, got in enumerate(f(y)):
                err = _ulps_off(got, sum(g[(j + m) % 5] * h[m] for m in range(5)))
                c.check(err <= 1, f"{f.__name__}({y}) h{j} is {float(err):.3g} ulp off")


def _exact_g5(k: int, y: float) -> Fraction:
    return sum(Fraction(y) ** n / math.factorial(n) for n in range(k, 60, 5))


def _ulps_off(got: float, want: Fraction) -> Fraction:
    return abs(Fraction(got) - want) / Fraction(math.ulp(float(want)))


# ---------------------------------------------------------------------------
# 6. cosexponential identities

@_suite("cosexp-identities")
def suite_cosexp_identities(c: _Checker):
    for i in range(-50, 51):
        y = i / 10.0
        gs = [cosexp.g5_closed(k, y) for k in range(5)]
        _agree(c, sum(gs), math.exp(y), 1e-11, f"sum identity at y={y}")
        sumsq = sum(g * g for g in gs)
        want = (math.exp(2 * y) / 5.0 + 0.4 * math.exp((SQRT5 - 1.0) * y / 2.0)
                + 0.4 * math.exp(-(SQRT5 + 1.0) * y / 2.0))
        _agree(c, sumsq, want, 1e-11, f"sum-of-squares identity at y={y}")

    rng = np.random.default_rng(104)
    for _ in range(200):
        y, z = rng.uniform(-3.0, 3.0, 2)
        gy = [cosexp.g5_closed(k, y) for k in range(5)]
        gz = [cosexp.g5_closed(k, z) for k in range(5)]
        for k in range(5):
            lhs = cosexp.g5_closed(k, y + z)
            rhs = sum(gy[i] * gz[(k - i) % 5] for i in range(5))
            _agree(c, lhs, rhs, 1e-11, f"addition theorem k={k}")

    step = 1e-6
    for i in range(-6, 7):
        y = i / 2.0
        for k in range(5):
            der = (cosexp.g5_closed(k, y + step) - cosexp.g5_closed(k, y - step)) / (2 * step)
            want = cosexp.g5_closed((k - 1) % 5, y)
            c.close(der, want, 1e-6 * max(1.0, abs(want)), f"derivative chain k={k}, y={y}")

    for perm in range(1, 5):
        for y in (0.7, -0.4):
            base = cosexp.exp_basis(perm, y)
            power = ONE
            for l in range(6):
                got = cosexp.cosexp_power(perm, y, l)
                c.check(_rel_dev(got, power) <= 1e-10, f"power identity perm={perm}, l={l}")
                power = multiply(power, base)

    # product construction: exp((h1+h4)y) * exp((h1-h4)y) = exp(h1*2y)
    for y in (0.3, -0.8, 1.1):
        prod = multiply(cosexp.exp_h1_plus_h4(y), cosexp.exp_h1_minus_h4(y))
        c.check(_rel_dev(prod, cosexp.exp_basis(1, 2 * y)) <= 1e-10,
                f"product construction at y={y}")

    seeds = {"A": (3, 3), "B": (3, 1), "C": (3, 0),
             "D": (2, 10), "E": (2, 5),
             "F": (2, 1), "G": (2, -4), "H": (2, 6)}
    for kind in cosexp.PowerKind:
        pc = cosexp.power_coeffs(kind, 40)
        for name, rec in pc.recurrence.items():
            closed = pc.closed_form[name]
            for idx, (r, cl) in enumerate(zip(rec, closed), start=1):
                if cl is not None:
                    c.check(r == cl, f"{name}_{idx}: recurrence {r} != closed {cl}")
            sub, val = seeds[name]
            c.check(rec[sub - 1] == val, f"seed {name}_{sub} = {rec[sub - 1]}, want {val}")


# ---------------------------------------------------------------------------
# 7. elementary functions

def _matrix_exp(M: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor exponential of a small matrix."""
    M = np.asarray(M, dtype=float)
    norm = float(np.abs(M).sum(axis=1).max())
    s = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    A = M / (2.0 ** s)
    X = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for n in range(1, 40):
        term = term @ A / n
        X = X + term
        if float(np.abs(term).max()) < 1e-18:
            break
    for _ in range(s):
        X = X @ X
    return X


def _sample_log_domain(rng, n, lo=-3.0, hi=3.0):
    out = []
    while len(out) < n:
        u = _rand_penta(rng, lo, hi)
        cf = to_canonical(u)
        if (cf.vplus > 0.05 and math.hypot(cf.v1, cf.tv1) > 0.05
                and math.hypot(cf.v2, cf.tv2) > 0.05):
            out.append(u)
    return out


@_suite("elementary-functions")
def suite_elementary(c: _Checker):
    rng = np.random.default_rng(105)
    for u in _sample_log_domain(rng, 500):
        c.check(_rel_dev(elementary.exp(elementary.log(u)), u) <= 1e-10,
                "exp(log u) != u")
    for _ in range(500):
        cf = CanonicalForm(rng.uniform(-2, 2), rng.uniform(-2, 2),
                           rng.uniform(0.05, TWO_PI - 0.05), rng.uniform(-2, 2),
                           rng.uniform(0.05, TWO_PI - 0.05))
        u = from_canonical(cf)
        c.check(_rel_dev(elementary.log(elementary.exp(u)), u) <= 1e-10,
                "log(exp u) != u")
    for _ in range(200):
        u = _rand_penta(rng, -2.0, 2.0)
        got = to_matrix(elementary.exp(u))
        want = _matrix_exp(to_matrix(u))
        scale = max(1.0, float(np.abs(want).max()))
        c.check(float(np.abs(got - want).max()) <= 1e-9 * scale,
                "exp vs matrix exponential")
    for _ in range(200):
        # the Pythagorean identities cancel catastrophically for large
        # arguments; components in [-1, 1] keep cosh^2 below ~1e3
        u = _rand_penta(rng, -1.0, 1.0)
        s = elementary.sin(u)
        co = elementary.cos(u)
        c.check(_rel_dev(multiply(s, s) + multiply(co, co), ONE) <= 1e-11,
                "sin^2 + cos^2 != 1")
        sh = elementary.sinh(u)
        ch = elementary.cosh(u)
        c.check(_rel_dev(multiply(ch, ch) - multiply(sh, sh), ONE) <= 1e-11,
                "cosh^2 - sinh^2 != 1")
    for u in _sample_log_domain(rng, 200):
        ef = elementary.exponential_form(u)
        c.check(_rel_dev(ef.reconstruct(), u) <= 1e-10,
                "exponential form does not reconstruct")
        d, rhs = elementary.modulus_amplitude_relation(u)
        c.close(rhs, d, 1e-10 * max(1.0, d), "modulus-amplitude relation")
    count = 0
    while count < 200:
        u = _rand_penta(rng, -3.0, 3.0)
        cf = to_canonical(u)
        if (math.hypot(cf.v1, cf.tv1) > 0.05 and math.hypot(cf.v2, cf.tv2) > 0.05
                and abs(cf.vplus) > 0.05):
            c.check(_rel_dev(elementary.trigonometric_form(u), u) <= 1e-10,
                    "trigonometric form does not reconstruct")
            count += 1


# ---------------------------------------------------------------------------
# 8. geometry

def _well_conditioned(rng, lo=-3.0, hi=3.0, floor=0.05):
    while True:
        u = _rand_penta(rng, lo, hi)
        cf = to_canonical(u)
        d = abs(u)
        if d == 0.0:
            continue
        if (cf.vplus > floor * d and math.hypot(cf.v1, cf.tv1) > floor * d
                and math.hypot(cf.v2, cf.tv2) > floor * d):
            return u


@_suite("geometry")
def suite_geometry(c: _Checker):
    rng = np.random.default_rng(106)
    for _ in range(1000):
        u = _rand_penta(rng)
        cf = to_canonical(u)
        d2 = abs(u) ** 2
        r1sq = cf.v1 ** 2 + cf.tv1 ** 2
        r2sq = cf.v2 ** 2 + cf.tv2 ** 2
        c.close(cf.vplus ** 2 / 5.0 + 0.4 * (r1sq + r2sq), d2,
                1e-12 * max(1.0, d2), "norm split identity")
        pf = polar_form(u)
        c.close(pf.rho ** 5, cf.vplus * r1sq * r2sq,
                1e-12 * max(1.0, abs(cf.vplus * r1sq * r2sq)),
                "amplitude fifth-power identity")
    violations = 0
    for _ in range(10000):
        u = _rand_penta(rng)
        v = _rand_penta(rng)
        lhs, rhs = modulus_product_bound(u, v)
        if lhs > rhs:
            violations += 1
    c.check(violations == 0, f"{violations} modulus bound violations")
    for _ in range(300):
        up = _well_conditioned(rng)
        upp = _well_conditioned(rng)
        prod = multiply(up, upp)
        a = polar_form(up)
        b = polar_form(upp)
        p = polar_form(prod)
        ca = to_canonical(up)
        cb = to_canonical(upp)
        cp = to_canonical(prod)
        c.close(cp.vplus, ca.vplus * cb.vplus,
                1e-10 * max(1.0, abs(cp.vplus)), "vplus multiplicativity")
        c.close(p.rho1, a.rho1 * b.rho1, 1e-10 * max(1.0, p.rho1), "rho1 multiplicativity")
        c.close(p.rho2, a.rho2 * b.rho2, 1e-10 * max(1.0, p.rho2), "rho2 multiplicativity")
        tan_p = math.tan(p.require("thetaplus"))
        tan_ab = math.tan(a.require("thetaplus")) * math.tan(b.require("thetaplus"))
        c.close(tan_p, tan_ab / math.sqrt(2.0), 1e-10 * max(1.0, abs(tan_p)),
                "polar angle tangent law")
        tan_p = math.tan(p.require("psi1"))
        tan_ab = math.tan(a.require("psi1")) * math.tan(b.require("psi1"))
        c.close(tan_p, tan_ab, 1e-10 * max(1.0, abs(tan_p)), "planar angle tangent law")
        for name in ("phi1", "phi2"):
            diff = (a.require(name) + b.require(name) - p.require(name)) % TWO_PI
            circ = min(diff, TWO_PI - diff)
            c.check(circ <= 1e-10, f"{name} additivity off by {circ:.2e}")
        c.close(p.rho, a.rho * b.rho, 1e-10 * max(1.0, abs(p.rho)),
                "amplitude multiplicativity")


# ---------------------------------------------------------------------------
# 9. analyticity

@_suite("analyticity")
def suite_analytic(c: _Checker):
    rng = np.random.default_rng(107)
    named = [
        ("square", lambda u: multiply(u, u)),
        ("cube", lambda u: multiply(u, multiply(u, u))),
        ("exp", elementary.exp),
        ("sin", elementary.sin),
    ]
    for name, f in named:
        for _ in range(20):
            point = _rand_penta(rng, -1.0, 1.0)
            report = analytic.check_cr_relations(f, point)
            c.check(report.passed, f"first-order relations fail for {name}")

    def projection(u):
        return PentaComplex(u.x0, 0.0, 0.0, 0.0, 0.0)

    report = analytic.check_cr_relations(projection, _rand_penta(rng, -1.0, 1.0))
    c.check(not report.passed, "component projection should fail the relations")

    for name, f in (("square", named[0][1]), ("exp", elementary.exp)):
        for _ in range(5):
            point = _rand_penta(rng, -1.0, 1.0)
            report2 = analytic.check_second_order(f, point)
            c.check(report2.passed, f"second-order chains fail for {name}")


# ---------------------------------------------------------------------------
# 10. residues

@_suite("residues")
def suite_residues(c: _Checker):
    rng = np.random.default_rng(108)
    t0 = time.perf_counter()
    functions = [
        ("one", lambda u: ONE),
        ("u", lambda u: u),
        ("exp", elementary.exp),
    ]
    for trial in range(2):
        u0 = _rand_penta(rng, -0.5, 0.5)
        loops = [
            ("plane-1 loop", contour.plane_circle(u0, 1, 1.0, 0.8, 0.7), u0, (1, 0)),
            ("plane-2 loop", contour.plane_circle(u0, 2, 1.0, 0.8, 0.7), u0, (0, 1)),
            ("far pole", contour.plane_circle(u0, 1, 1.0, 0.8, 0.7),
             u0 + PentaComplex.scalar(5.0), (0, 0)),
        ]
        for label, path, pole, want_winding in loops:
            for fname, f in functions:
                lhs, rhs, windings = contour._pole_identity(f, path, pole, 4096, None)
                c.check(windings == want_winding,
                        f"{label}: winding {windings} != {want_winding}")
                dev = max(abs(a - b) for a, b in zip(lhs, rhs))
                c.check(dev <= 1e-5, f"{label}, f={fname}: |lhs-rhs| = {dev:.2e}")

    # Gauss-Legendre order on a closed loop: with the pole term integrated
    # exactly, each added node per segment cuts the remainder's error for
    # exp(4u) on an 8-gon by the ratios 11, 112 and 435 (the same on every
    # loop measured), down to roundoff at 8 nodes
    def exp4(u):
        return elementary.exp(4.0 * u)

    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    for plane in (1, 2):
        path = contour.plane_circle(u0, plane, 1.0, 0.8, 0.7, vertices=8)
        errors = []
        for sps in (1, 2, 3, 4, 8):
            lhs, rhs = contour.residue_formula(exp4, path, u0, samples=sps * 8)
            errors.append(max(abs(a - b) for a, b in zip(lhs, rhs)) / max(1.0, abs(rhs)))
        for sps, ratio, e0, e1 in zip((1, 2, 3), (5.0, 50.0, 200.0), errors, errors[1:]):
            c.check(e0 >= ratio * e1, f"plane-{plane} 8-gon, {sps} -> {sps + 1} nodes per "
                                      f"segment: error only {e0:.2e} -> {e1:.2e}")
        c.check(errors[-1] <= 1e-12,
                f"plane-{plane} 8-gon, 8 nodes per segment: error {errors[-1]:.2e}")
    path = contour.plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=16)
    lhs, rhs = contour.residue_formula(elementary.exp, path, u0, samples=8 * 16)
    dev = max(abs(a - b) for a, b in zip(lhs, rhs))
    c.check(dev <= 1e-13, f"16-gon, 8 nodes per segment: |lhs-rhs| = {dev:.2e}")

    # the same order without a pole, where every node counts: half a 16-gon
    # as an open path, on which exp integrates to exp(b) - exp(a)
    path = contour.Path(contour.plane_circle(u0, 2, 1.0, vertices=16).vertices[:9])
    want = elementary.exp(path.vertices[-1]) - elementary.exp(path.vertices[0])
    errors = [max(abs(a - b) for a, b in zip(contour.integrate(elementary.exp, path, n), want))
              for n in (1, 2, 3, 4, 8)]
    for e0, e1 in zip(errors[:3], errors[1:4]):
        c.check(e0 / max(e1, 1e-300) >= 50.0,
                f"pole-free: one more node reduced error only {e0:.2e} -> {e1:.2e}")
    c.check(errors[-1] <= 1e-14, f"pole-free, 8 nodes per segment: error {errors[-1]:.2e}")
    c.check(time.perf_counter() - t0 < 5.0, "residue suite exceeded 5 s")


# ---------------------------------------------------------------------------
# 11. factorization

@_suite("factorization")
def suite_factorization(c: _Checker):
    zero = PentaComplex()
    # u^2 - 1: expected roots for the four pairings, by sign pattern on
    # (e1, e2) paired with the +1 line root
    expected = {
        (1, 1): PentaComplex(1.0, 0.0, 0.0, 0.0, 0.0),
        (1, -1): PentaComplex(0.2, (SQRT5 + 1) / 5, -(SQRT5 - 1) / 5,
                              -(SQRT5 - 1) / 5, (SQRT5 + 1) / 5),
        (-1, 1): PentaComplex(0.2, -(SQRT5 - 1) / 5, (SQRT5 + 1) / 5,
                              (SQRT5 + 1) / 5, -(SQRT5 - 1) / 5),
        (-1, -1): PentaComplex(-0.6, 0.4, 0.4, 0.4, 0.4),
    }
    poly = polyfactor.PentaPolynomial((zero, PentaComplex.scalar(-1.0)))
    rs = polyfactor.component_roots(polyfactor.decompose(poly))
    for roots, name in ((rs.vplus_roots, "line"), (rs.plane1_roots, "plane1"),
                        (rs.plane2_roots, "plane2")):
        c.check(abs(roots[0] - (-1.0)) < 1e-12 and abs(roots[1] - 1.0) < 1e-12,
                f"{name} roots of u^2-1 are not -1, +1")
    for s1 in (1, -1):
        for s2 in (1, -1):
            i1 = 1 if s1 == 1 else 0
            i2 = 1 if s2 == 1 else 0
            pairing = [(1, i1, i2), (0, 1 - i1, 1 - i2)]
            u1, u2 = polyfactor.assemble_roots(rs, pairing)
            want = expected[(s1, s2)]
            c.close_penta(u1, want, 1e-12, f"root for signs ({s1},{s2})")
            c.close_penta(u2, -1.0 * want, 1e-12, f"negated root for signs ({s1},{s2})")
    c.check(polyfactor.count_factorizations(poly) == 4,
            "u^2 - 1 should have 4 factorizations")

    for s0 in (1, -1):
        for s1 in (1, -1):
            for s2 in (1, -1):
                r = s0 * E_PLUS + s1 * E1 + s2 * E2
                c.close_penta(multiply(r, r), ONE, 1e-15,
                              f"sign identity ({s0},{s1},{s2})")

    rng = np.random.default_rng(109)
    for degree in range(1, 7):
        for _ in range(4):
            coeffs = tuple(_rand_penta(rng, -2.0, 2.0) for _ in range(degree))
            poly = polyfactor.PentaPolynomial(coeffs)
            factors = polyfactor.factor(poly)
            rebuilt = polyfactor.expand_factors(factors)
            scale = 1.0 + max(abs(a) for a in coeffs)
            for a, b in zip(poly.coeffs, rebuilt.coeffs):
                dev = max(abs(x - y) for x, y in zip(a, b))
                c.check(dev <= 1e-8 * scale,
                        f"degree-{degree} reconstruction deviates by {dev:.2e}")
            norm = math.sqrt(sum(abs(a) ** 2 for a in coeffs)) + 1.0
            for f in factors:
                if isinstance(f, polyfactor.LinearFactor):
                    resid = abs(poly.evaluate(f.root))
                    c.check(resid <= 1e-8 * norm,
                            f"root residual {resid:.2e} (degree {degree})")

    double = polyfactor.PentaPolynomial.from_scalar_roots([1.0, 1.0])
    try:
        polyfactor.count_factorizations(double)
        c.check(False, "(u-1)^2 should be Degenerate")
    except Degenerate:
        c.check(True, "")
    lin = polyfactor.PentaPolynomial((PentaComplex.scalar(-2.0),))
    c.check(polyfactor.count_factorizations(lin) == 1, "degree-1 count != 1")


def run_all() -> list[SuiteResult]:
    return [suite() for suite in SUITES]
