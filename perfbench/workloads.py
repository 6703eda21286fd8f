"""The four workloads: what one item runs (timed) and how it is checked.

Each workload yields rounds of items with a fixed mix of properties.
`run` is the only code inside the timed region; `check` runs afterwards
and returns an Outcome built from the benchmark's own oracles.  The
package is reached through an `Ops` namespace, so a traced run can put a
span around each call without changing the code that makes it.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import gen
import oracles
from oracles import REL_TOL

import pentacomplex
from pentacomplex import (algebra, analytic, canonical, cli, contour, cosexp,
                          elementary, geometry, polyfactor, selftest)

PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")

# residue identities are solved to this relative error (time-to-accuracy).
# On the midpoint rule it takes 2048 samples, about 50 ms an item; 1e-7
# takes 8192 samples and a quarter second, and items that long time less
# steadily on a host whose speed swings (see normalized in run.py)
CONTOUR_TARGET = 1e-6
CONTOUR_MIN_SAMPLES = 256
CONTOUR_MAX_SAMPLES = 1 << 16

# attribute of Ops -> (span name, module, attribute)
OPS = {
    "PentaComplex": ("algebra.construct", algebra, "PentaComplex"),
    "multiply": ("algebra.multiply", algebra, "multiply"),
    "inverse": ("algebra.inverse", algebra, "inverse"),
    "to_canonical": ("canonical.to_canonical", canonical, "to_canonical"),
    "from_canonical": ("canonical.from_canonical", canonical, "from_canonical"),
    "rotated_coords": ("canonical.rotated_coords", canonical, "rotated_coords"),
    "modulus": ("geometry.modulus", geometry, "modulus"),
    "amplitude": ("geometry.amplitude", geometry, "amplitude"),
    "polar_form": ("geometry.polar_form", geometry, "polar_form"),
    "exp": ("elementary.exp", elementary, "exp"),
    "log": ("elementary.log", elementary, "log"),
    "pow_real": ("elementary.pow_real", elementary, "pow_real"),
    "sin": ("elementary.sin", elementary, "sin"),
    "cosexp_values": ("cosexp.cosexp_values", cosexp, "cosexp_values"),
    "coefficient_spectrum": ("analytic.coefficient_spectrum", analytic, "coefficient_spectrum"),
    "check_cr_relations": ("analytic.check_cr_relations", analytic, "check_cr_relations"),
    "check_second_order": ("analytic.check_second_order", analytic, "check_second_order"),
    "residue_formula": ("contour.residue_formula", contour, "residue_formula"),
    "factor": ("polyfactor.factor", polyfactor, "factor"),
    "expand_factors": ("polyfactor.expand_factors", polyfactor, "expand_factors"),
    "cli_main": ("cli.main", cli, "main"),
}

# module globals the package calls itself; patched only in traced runs
INTERNAL = [
    (contour, "winding", "contour.winding"),
    (contour, "project", "contour.project"),
    (contour, "integrate", "contour.integrate"),
    (polyfactor, "decompose", "polyfactor.decompose"),
    (polyfactor, "component_roots", "polyfactor.component_roots"),
    (polyfactor, "coefficient_spectrum", "analytic.coefficient_spectrum"),
    (selftest, "run_all", "selftest.run_all"),
]


def make_ops(tracer=None) -> SimpleNamespace:
    ops = SimpleNamespace()
    for attr, (span, module, name) in OPS.items():
        fn = getattr(module, name)
        setattr(ops, attr, fn if tracer is None else tracer.wrap(span, fn))
    return ops


@dataclass
class Outcome:
    label: str
    tag: str
    seconds: float
    verified: bool
    err: float                  # worst relative error of a verified item
    reason: str = ""            # why it failed: "raw:<step>", "typed:<step>", "wrong:<step>"
    silent: bool = False        # a wrong value was returned for an in-domain input


class Tally:
    """What a run keeps of its items: latency, input and verdict in
    flat arrays plus counters, so the benchmark's own memory hardly grows
    with the number of items and peak_rss_mb measures the package.

    An input that a workload repeats (a pool item) is attempted once, however
    often it runs, and fails if any of its runs fails; so attempted and
    failed depend on the seed alone, not on how many runs fit in the time.
    """

    def __init__(self):
        self.seconds = array("d")
        self.group = array("i")       # pool index of the run's input (0 for fresh inputs)
        self.verified = array("b")
        self.ref = array("d")         # reference kernel time around each run (see reference)
        self.by_tag = defaultdict(lambda: array("d"))
        self.inputs = {}              # input key -> verified on every run so far
        self.labels = Counter()       # label -> inputs
        self.failures = Counter()     # "label reason" -> inputs, by their first failure
        self.worst_err = None         # worst relative error of a verified item
        self.silent = False           # an in-domain item returned a wrong value
        self.pooled = False           # the workload repeats a pool of inputs

    def __len__(self) -> int:
        return len(self.seconds)

    @property
    def attempted(self) -> int:
        return len(self.inputs)

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.inputs.values())

    def add(self, o: Outcome, group: int, key, ref: float) -> None:
        self.seconds.append(o.seconds)
        self.group.append(group)
        self.verified.append(o.verified)
        self.ref.append(ref)
        self.by_tag[o.tag].append(o.seconds)
        if key not in self.inputs:
            self.inputs[key] = True
            self.labels[o.label] += 1
        if o.verified:
            self.worst_err = o.err if self.worst_err is None else max(self.worst_err, o.err)
        elif self.inputs[key]:
            self.inputs[key] = False
            self.failures[f"{o.label} {o.reason}"] += 1
        self.silent = self.silent or o.silent


def _call(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:    # classified by check(), outside the timed region
        return exc


def _classify(item_label: str, tag: str, seconds: float, steps: dict, tol=REL_TOL) -> Outcome:
    """steps: name -> relative error (a float) or the exception raised."""
    worst = 0.0
    for name, res in steps.items():
        if isinstance(res, BaseException):
            kind = "typed" if isinstance(res, pentacomplex.PentaError) else "raw"
            return Outcome(item_label, tag, seconds, False, math.inf, f"{kind}:{name}")
        if not res <= tol:          # also catches nan
            return Outcome(item_label, tag, seconds, False, math.inf, f"wrong:{name}",
                           silent=item_label == gen.IN_DOMAIN)
        worst = max(worst, res)
    return Outcome(item_label, tag, seconds, True, worst)


# ---------------------------------------------------------------------------

class Elementwise:
    """One element through construct, multiply, the canonical transforms,
    inverse, log, exp, polar form, square root and sin."""

    name = "elementwise"
    repeats_pool = True     # every round runs the same pool of items
    pool_rounds = 20        # 400 elements, each mix of element_round twenty times

    def __init__(self, seed: int, orc: oracles.Oracles, pool_rounds=None):
        self.orc = orc
        self.pool = gen.element_pool(seed, pool_rounds or self.pool_rounds)

    def rounds(self):
        while True:
            yield self.pool

    @staticmethod
    def tag(item) -> str:
        return item.label

    @staticmethod
    def run(ops, item):
        u = ops.PentaComplex(*item.xu)
        v = ops.PentaComplex(*item.xv)
        w = _call(ops.multiply, u, v)
        out = {"construct": u, "multiply": w}
        if isinstance(w, Exception):
            return out
        out["to_canonical"] = _call(ops.to_canonical, w)
        out["inverse"] = _call(ops.inverse, w)
        out["log"] = lw = _call(ops.log, w)
        out["polar_form"] = _call(ops.polar_form, w)
        if item.label == gen.EXTREME:
            # only the steps whose true result is representable at any scale
            return out
        out["rotated_coords"] = _call(ops.rotated_coords, w)
        if not isinstance(lw, Exception):
            out["exp"] = _call(ops.exp, lw)
            out["sin"] = _call(ops.sin, lw)
        out["pow_real"] = _call(ops.pow_real, w, 0.5)
        return out

    def check(self, item, out, seconds) -> Outcome:
        orc = self.orc
        u = out["construct"]
        steps = {"construct": 0.0 if u.components == item.xu else math.inf}
        w = out["multiply"]
        if isinstance(w, Exception):
            steps["multiply"] = w
            return _classify(item.label, item.label, seconds, steps)
        x = w.components
        steps["multiply"] = orc.product(x, item.xu, item.xv)
        checks = {
            "to_canonical": lambda r: orc.canonical(dataclasses.astuple(r), x),
            "inverse": lambda r: orc.inverse_round_trip(r.components, x),
            "log": lambda r: orc.log(r.components, x),
            "polar_form": lambda r: orc.polar(r.to_dict(), x),
            "rotated_coords": lambda r: orc.rotated(dataclasses.astuple(r), x),
            "exp": lambda r: orc.exp_log_round_trip(r.components, x),
            "sin": lambda r: orc.blockwise("sin", r.components, out["log"].components,
                                           math.sin, cmath.sin),
            "pow_real": lambda r: orc.sqrt_round_trip(r.components, x),
        }
        for name, fn in checks.items():
            if name in out:
                res = out[name]
                steps[name] = res if isinstance(res, Exception) else fn(res)
        return _classify(item.label, item.label, seconds, steps)


# ---------------------------------------------------------------------------

def poly2(u):
    """Benchmark-defined evaluator u*u + 3u."""
    return algebra.multiply(u, u) + 3.0 * u


def poly3(u):
    """Benchmark-defined evaluator u*u*u - 2u."""
    return algebra.multiply(u, algebra.multiply(u, u)) - 2.0 * u


CALLABLES = {"poly2": poly2, "poly3": poly3}
BUILTINS = {"exp": elementary.exp, "sin": elementary.sin, "cosh": elementary.cosh}


def oracle_value(evaluator: str, x) -> np.ndarray:
    """f(x) computed from eigenvalues or dense products, without the package."""
    if evaluator in ("poly2", "poly3"):
        m = oracles.circulant(x)
        x = np.asarray(x, dtype=float)
        sq = m @ x
        return sq + 3.0 * x if evaluator == "poly2" else m @ sq - 2.0 * x
    real_fn, complex_fn = {"exp": (math.exp, cmath.exp), "sin": (math.sin, cmath.sin),
                           "cosh": (math.cosh, cmath.cosh)}[evaluator]
    vp, z1, z2 = oracles.blocks(x)
    return oracles.from_blocks(real_fn(vp), complex_fn(z1), complex_fn(z2))


def build_loop(spec: gen.LoopSpec) -> contour.Path:
    """plane_circle for a loop in one plane; a loop winding once in both
    planes is built here from the eigenvalue blocks."""
    n1, n2 = spec.planes
    center = algebra.PentaComplex(*spec.center)
    if (n1, n2) != (1, 1):
        return contour.plane_circle(center, 1 if n1 else 2, spec.radius,
                                    line_offset=spec.line_offset,
                                    other_offset=spec.line_offset, vertices=spec.vertices)
    verts = []
    for i in range(spec.vertices):
        z = spec.radius * cmath.exp(1j * oracles.TWO_PI * i / spec.vertices)
        step = oracles.from_blocks(spec.line_offset, z, z)
        verts.append(algebra.PentaComplex(*(c + d for c, d in zip(spec.center, step))))
    return contour.Path(tuple(verts), closed=True)


@dataclass
class PreparedContour:
    item: gen.ContourItem
    path: contour.Path
    pole: algebra.PentaComplex
    f_at_pole: np.ndarray
    samples: int
    nodes: int
    windings: tuple


class Contour:
    """Residue identities, each timed at the smallest power-of-two sample
    count that meets CONTOUR_TARGET (found before the timed loop)."""

    name = "contour"
    repeats_pool = True     # every round runs the same pool of items

    def __init__(self, seed: int, orc: oracles.Oracles, pool=None):
        self.orc = orc
        self.pool = [self._prepare(it) for it in (pool or gen.contour_pool(seed))]
        self.use_tracer(None)

    @staticmethod
    def _evaluator(item):
        # builtins are passed as the package's own functions, so the package
        # can recognise them
        if item.evaluator in BUILTINS:
            return BUILTINS[item.evaluator]
        return CALLABLES[item.evaluator]

    def use_tracer(self, tracer):
        """Evaluator per pool item; callables are counted in a traced run."""
        self.funcs = {}
        for prep in self.pool:
            f = self._evaluator(prep.item)
            if tracer is not None and prep.item.evaluator in CALLABLES:
                f = tracer.counted("contour.evaluator", f)
            self.funcs[id(prep)] = f

    def _prepare(self, item) -> PreparedContour:
        path = build_loop(item.loop)
        pole = algebra.PentaComplex(*item.loop.pole)
        f = self._evaluator(item)
        f_at_pole = oracle_value(item.evaluator, item.loop.pole)
        samples = CONTOUR_MIN_SAMPLES
        while True:
            lhs, _ = contour.residue_formula(f, path, pole, samples=samples)
            if (self.orc.residue(lhs.components, f_at_pole, item.loop.planes) <= CONTOUR_TARGET
                    or samples >= CONTOUR_MAX_SAMPLES):
                break
            samples *= 2
        segments = len(path.segments())
        windings = tuple(contour.winding(contour.project_point(pole, k), contour.project(path, k))
                         for k in (1, 2))
        return PreparedContour(item, path, pole, f_at_pole, samples,
                               max(1, round(samples / segments)) * segments, windings)

    def rounds(self):
        while True:
            yield self.pool

    @staticmethod
    def tag(prep) -> str:
        return "builtin" if prep.item.evaluator in BUILTINS else "callable"

    def run(self, ops, prep):
        return _call(ops.residue_formula, self.funcs[id(prep)], prep.path, prep.pole,
                     prep.samples)

    def check(self, prep, out, seconds) -> Outcome:
        steps = {"windings": self.orc.windings(prep.windings, prep.item.loop.planes)}
        steps["residue"] = (out if isinstance(out, Exception) else
                            self.orc.residue(out[0].components, prep.f_at_pole,
                                             prep.item.loop.planes))
        return _classify(prep.item.label, self.tag(prep), seconds, steps, CONTOUR_TARGET)


# ---------------------------------------------------------------------------

def factor_blocks(factors) -> list[np.ndarray]:
    """Eigenvalue blocks of each factor's coefficients (rows: blocks)."""
    out = []
    one = [1.0, 0.0, 0.0, 0.0, 0.0]
    for f in factors:
        if isinstance(f, polyfactor.LinearFactor):
            rows = [one, [-c for c in f.root.components]]
        else:
            rows = [one, list(f.b.components), list(f.c.components)]
        out.append(np.fft.fft(np.array(rows), axis=1).T)
    return out


def recovered_roots(blocks_per_factor) -> list[list[complex]]:
    """Component roots (line, plane 1, plane 2) of a factor list."""
    found = [[], [], []]
    for fb in blocks_per_factor:
        for slot, k in enumerate((0, 4, 3)):
            found[slot].extend(complex(r) for r in np.roots(fb[k]))
    return found


class Factor:
    """factor then expand_factors on one monic polynomial.

    Every round runs the same pool of polynomials: their cost varies with
    where Aberth stops, so only identical rounds make round times comparable.
    """

    name = "factor"
    repeats_pool = True     # every round runs the same pool of items
    pool_rounds = 20        # twenty polynomials per degree and kind

    def __init__(self, seed: int, orc: oracles.Oracles):
        self.orc = orc
        self.pool = [(it, polyfactor.PentaPolynomial(tuple(algebra.PentaComplex(*c) for c in it.coeffs)))
                     for r in range(self.pool_rounds) for it in gen.factor_round(seed, r)]

    def rounds(self):
        while True:
            yield self.pool

    @staticmethod
    def tag(entry) -> str:
        return f"d{entry[0].degree}"

    @staticmethod
    def run(ops, entry):
        try:
            factors = ops.factor(entry[1])
            return factors, ops.expand_factors(factors)
        except Exception as exc:
            return exc

    def check(self, entry, out, seconds) -> Outcome:
        item = entry[0]
        if isinstance(out, Exception):
            return _classify(item.label, self.tag(entry), seconds, {"factor": out})
        factors, rebuilt = out
        fb = factor_blocks(factors)
        steps = {"reconstruction": self.orc.reconstruction(
            item.coeffs, [a.components for a in rebuilt.coeffs], fb)}
        if item.kind == "known":
            coeff_blocks = np.fft.fft(np.array(((1.0, 0, 0, 0, 0),) + item.coeffs), axis=1)
            scale = np.abs(coeff_blocks[:, (0, 4, 3)]).max(axis=1)
            found = recovered_roots(fb)
            steps["roots"] = max(self.orc.roots(found[slot], coeff_blocks[:, k], scale)
                                 for slot, k in enumerate((0, 4, 3)))
        return _classify(item.label, self.tag(entry), seconds, steps)


# ---------------------------------------------------------------------------

ENTRY = "import sys; from pentacomplex.cli import main; sys.exit(main())"


class Cli:
    """One `penta` invocation per item, each in a fresh interpreter."""

    name = "cli"

    def __init__(self, seed: int, orc: oracles.Oracles, root: str, workdir: str):
        self.seed = seed
        self.orc = orc
        self.root = root
        self.workdir = workdir
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.env = env

    def rounds(self):
        r = 0
        while True:
            yield [self._prepare(it, r, j) for j, it in enumerate(gen.cli_script(self.seed, r))]
            r += 1

    def _prepare(self, item, r, j):
        names = {"table": os.path.join(self.workdir, f"table-{r}-{j}.csv")}
        for key, spec in item.files:
            names[key] = os.path.join(self.workdir, f"{key}-{r}-{j}.json")
            with open(names[key], "w", encoding="utf-8") as fh:
                json.dump(build_loop(spec).to_dict(), fh)
        argv = [names.get(a[1:-1], a) if a[:1] == "{" else a for a in item.argv]
        return item, argv, names

    @staticmethod
    def tag(entry) -> str:
        return entry[0].command

    def run(self, ops, entry):
        return subprocess.run([sys.executable, "-c", ENTRY, *entry[1]], cwd=self.root,
                              env=self.env, capture_output=True, text=True, timeout=120)

    def in_process(self, ops, entry) -> str:
        """stdout of cli.main(argv) in this process."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            ops.cli_main(list(entry[1]))
        return buf.getvalue()

    def check(self, entry, proc, seconds) -> Outcome:
        item, argv, names = entry
        orc = self.orc
        tag = item.command
        if proc.returncode != 0:
            return Outcome(item.label, tag, seconds, False, math.inf,
                           f"exit{proc.returncode}:{tag}")
        out = proc.stdout
        steps = {}
        if tag == "selftest":
            steps["selftest"] = 0.0 if "11/11 suites passed" in out else math.inf
            return _classify(item.label, tag, seconds, steps)
        if tag == "cosexp-table":
            ys, g, exact = read_table(names["table"])
            steps["exact"] = orc.exact_text("same" if exact else "differs", "same")
            steps["cosexp_table"] = orc.cosexp_table(ys, g)
            self.cleanup(entry)
            return _classify(item.label, tag, seconds, steps)
        steps["exact"] = orc.exact_text(out, self.in_process(make_ops(), entry))
        value = json.loads(out)
        ops_ = item.operands
        if tag == "mul":
            steps["value"] = orc.product(value, *ops_)
        elif tag == "inv":
            steps["value"] = orc.inverse_round_trip(value, ops_[0])
        elif tag == "canonical":
            steps["value"] = orc.canonical([value[k] for k in ("vplus", "v1", "tv1", "v2", "tv2")],
                                           ops_[0])
        elif tag == "polar":
            steps["value"] = orc.polar(value, ops_[0])
        elif tag == "exp":
            steps["value"] = orc.blockwise("exp", value, ops_[0], math.exp, cmath.exp)
        elif tag == "log":
            steps["value"] = orc.log(value, ops_[0])
        elif tag == "pow":
            steps["value"] = orc.sqrt_round_trip(value, ops_[0])
        elif tag == "trig":
            fn = ops_[0]
            steps["value"] = orc.blockwise(fn, value, ops_[1], getattr(math, fn), getattr(cmath, fn))
        elif tag.startswith("check-analytic"):
            steps["value"] = 0.0 if value["passed"] else math.inf
        elif tag == "integrate":
            spec = ops_[0]
            steps["windings"] = orc.windings(value["windings"], spec.planes)
            steps["value"] = orc.residue(value["lhs"], oracle_value("exp", spec.pole), spec.planes)
        elif tag == "factor":
            factors = [polyfactor.LinearFactor(algebra.PentaComplex(*f["root"]))
                       if f["type"] == "linear" else
                       polyfactor.QuadraticFactor(algebra.PentaComplex(*f["b"]),
                                                  algebra.PentaComplex(*f["c"]))
                       for f in value["factors"]]
            rebuilt = polyfactor.expand_factors(factors)
            steps["value"] = orc.reconstruction(ops_[0], [a.components for a in rebuilt.coeffs],
                                                factor_blocks(factors))
        self.cleanup(entry)
        return _classify(item.label, tag, seconds, steps)

    @staticmethod
    def cleanup(entry) -> None:
        for path in entry[2].values():
            if os.path.exists(path):
                os.remove(path)


def read_table(path):
    """Rows of a cosexp table, and whether each equals cosexp_values(y) bit for bit."""
    ys, g = [], []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        exact = header == "y,g50,g51,g52,g53,g54"
        for line in fh:
            vals = [float(t) for t in line.split(",")]
            ys.append(vals[0])
            g.append(vals[1:])
            exact = exact and tuple(vals[1:]) == cosexp.cosexp_values(vals[0]).g
    return ys, g, exact and len(ys) > 0


def _reference_kernel(a: tuple) -> float:
    """Fixed pure-Python float work, like the package's hot loops but
    sharing no code with it: a 5-term convolution square, rescaled to unit
    length so no value under- or overflows, then a square root and a sine."""
    s = 0.0
    for _ in range(60):
        a0, a1, a2, a3, a4 = a
        b = (a0 * a0 + 2.0 * (a1 * a4 + a2 * a3) + 0.1, 2.0 * (a0 * a1 + a2 * a4) + a3 * a3 + 0.1,
             2.0 * (a0 * a2 + a3 * a4) + a1 * a1 + 0.1, 2.0 * (a0 * a3 + a1 * a2) + a4 * a4 + 0.1,
             2.0 * (a0 * a4 + a1 * a3) + a2 * a2 + 0.1)
        n = 1.0 / math.sqrt(b[0] * b[0] + b[1] * b[1] + b[2] * b[2] + b[3] * b[3] + b[4] * b[4])
        a = (b[0] * n, b[1] * n, b[2] * n, b[3] * n, b[4] * n)
        s += math.sin(a[1])
    return s


def reference(clock) -> float:
    """Seconds the reference kernel takes now: a probe of the host's speed.

    It is timed between the items of a run, so a run's figures can be put
    at a fixed host speed (see normalized in run.py).
    """
    t0 = clock()
    _reference_kernel((0.3, 0.2, -0.1, 0.4, 0.1))
    return clock() - t0


def measure(wl, ops, *, seconds=None, rounds=None, tracer=None, tally=None) -> Tally:
    """Closed loop: run whole rounds of items one after another and check
    each round after it.  Stops after `rounds` rounds, or before a round
    that would, at the pace of the last one, end after `seconds`.

    The cyclic garbage collector runs between rounds, not inside the timed
    items, so the benchmark's own garbage does not land in item latencies.
    """
    clock = time.perf_counter
    start = clock()
    run = tracer.wrap(f"{wl.name}.item", wl.run) if tracer is not None else wl.run
    tally = Tally() if tally is None else tally
    per_item = getattr(wl, "repeats_pool", False)
    tally.pooled = per_item
    last = 0.0
    for r, entries in enumerate(wl.rounds()):
        now = clock()
        if rounds is not None and r >= rounds:
            break
        if seconds is not None and r and now - start + last > seconds:
            break
        timed = []
        gc.disable()
        try:
            before = reference(clock)
            for entry in entries:
                if tracer is not None:
                    tracer.nodes[tracer.begin_item(wl.tag(entry))] = getattr(entry, "nodes", 0)
                t0 = clock()
                out = run(ops, entry)
                dt = clock() - t0
                after = reference(clock)
                timed.append((entry, out, dt, 0.5 * (before + after)))
                before = after
        finally:
            gc.enable()
        if tracer is not None:
            tracer.enabled = False
        for j, (entry, out, dt, ref) in enumerate(timed):
            if per_item:
                tally.add(wl.check(entry, out, dt), j, j, ref)
            else:
                tally.add(wl.check(entry, out, dt), 0, len(tally), ref)
        if tracer is not None:
            tracer.enabled = True
        last = clock() - now
    return tally
