"""Per-layer metrics of a traced run.

A traced run measures its workload twice, untraced and traced, then runs a
short sweep that reaches every layer the workload does not (the other
workloads at a tiny size, plus direct calls of the public functions no
workload item makes).  Per-call metrics are medians of inclusive span
durations over the whole traced run; `<layer>.self_us_per_item` and
`<layer>.calls_per_item` cover the traced workload's items only.
`polyfactor.expand_factors.d<d>.ms` times the known linear factors of each
degree, so it is measured even where factor() fails.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
from collections import defaultdict

import gen
import workloads as wk
import oracles
from pentacomplex import algebra, cosexp, elementary, polyfactor, selftest
from tracing import RAW_ERROR, TYPED_ERROR

LAYERS = ("algebra", "canonical", "geometry", "elementary", "cosexp", "analytic",
          "contour", "polyfactor", "cli", "selftest")
DEGREES = gen.FACTOR_DEGREES
SCALE = {"us": 1e3, "ms": 1e6, "s": 1e9}


def _per_call(name, unit, tag=None):
    def value(tr, ctx):
        d = tr.durations(name, tag)
        return statistics.median(d) / SCALE[unit] if d else None
    return value


def _error_count(names, outcome):
    def value(tr, ctx):
        return sum(1 for n in names for i in tr.spans(n) if tr.outcome[i] == outcome)
    return value


def _no_convergence(tag):
    def value(tr, ctx):
        ids = tr.spans("polyfactor.factor", tag)
        if not ids:
            return None
        return sum(1 for i in ids if tr.errors.get(i) == "NoConvergence") / len(ids)
    return value


def _evaluator_counts(tr, counter, tag=None):
    """(calls, ns) of a counter, per item."""
    out = {}
    for (name, item), (calls, ns) in tr.counts.items():
        if name == counter and (tag is None or tr.tags[item] == tag):
            out[item] = (calls, ns)
    return out


def _nodes_to_target(tr, ctx):
    counts = _evaluator_counts(tr, "contour.evaluator", "callable")
    ids = [tr.item[i] for i in tr.spans("contour.residue_formula", "callable")]
    calls = [counts[i][0] for i in ids if i in counts]
    return statistics.median(calls) if calls else None


def _us_per_node(tr, ctx):
    per = [(tr.end[i] - tr.start[i]) / 1e3 / tr.nodes[tr.item[i]]
           for i in tr.spans("contour.integrate") if tr.nodes.get(tr.item[i])]
    return statistics.median(per) if per else None


def _evaluator_share(tr, ctx):
    counts = _evaluator_counts(tr, "contour.evaluator", "callable")
    ids = tr.spans("contour.residue_formula", "callable")
    total = sum(tr.end[i] - tr.start[i] for i in ids)
    inside = sum(counts.get(tr.item[i], (0, 0))[1] for i in ids)
    return inside / total if total else None


def _analytic_calls(tr, ctx):
    checks = len(tr.spans("analytic.check_cr_relations")) + len(tr.spans("analytic.check_second_order"))
    calls = sum(c for c, _ in _evaluator_counts(tr, "analytic.evaluator").values())
    return calls / checks if checks else None


def _value(key):
    def value(tr, ctx):
        return ctx[key]
    return value


def _measured(key, scale):
    def value(tr, ctx):
        vals = tr.values.get(key)
        return statistics.median(vals) / scale if vals else None
    return value


def _layer_self(layer, what):
    def value(tr, ctx):
        return ctx["layer_self"][layer][what]
    return value


def specs() -> list[tuple]:
    """(name, unit, better, value function) of every per-layer metric."""
    s = [
        ("algebra.construct.us", "us", "lower", _per_call("algebra.construct", "us")),
        ("algebra.multiply.us", "us", "lower", _per_call("algebra.multiply", "us")),
        ("algebra.inverse.us", "us", "lower", _per_call("algebra.inverse", "us")),
        ("algebra.inverse.typed_errors", "count", "lower",
         _error_count(["algebra.inverse"], TYPED_ERROR)),
        ("canonical.to_canonical.us", "us", "lower", _per_call("canonical.to_canonical", "us")),
        ("canonical.from_canonical.us", "us", "lower", _per_call("canonical.from_canonical", "us")),
        ("canonical.rotated_coords.us", "us", "lower", _per_call("canonical.rotated_coords", "us")),
        ("geometry.modulus.us", "us", "lower", _per_call("geometry.modulus", "us")),
        ("geometry.polar_form.us", "us", "lower", _per_call("geometry.polar_form", "us")),
        ("geometry.amplitude.us", "us", "lower", _per_call("geometry.amplitude", "us")),
    ]
    elementary_spans = ["elementary.exp", "elementary.log", "elementary.pow_real", "elementary.sin"]
    for fn in ("exp", "log", "pow_real", "sin"):
        s.append((f"elementary.{fn}.us", "us", "lower", _per_call(f"elementary.{fn}", "us")))
    s += [
        ("elementary.typed_errors", "count", "lower", _error_count(elementary_spans, TYPED_ERROR)),
        ("elementary.raw_errors", "count", "lower", _error_count(elementary_spans, RAW_ERROR)),
        ("cosexp.cosexp_values.us", "us", "lower", _per_call("cosexp.cosexp_values", "us")),
        ("cosexp.g5_closed.us", "us", "lower", _per_call("cosexp.g5_closed", "us")),
        ("analytic.coefficient_spectrum.us", "us", "lower",
         _per_call("analytic.coefficient_spectrum", "us")),
        ("analytic.check_cr_relations.ms", "ms", "lower", _per_call("analytic.check_cr_relations", "ms")),
        ("analytic.check_second_order.ms", "ms", "lower", _per_call("analytic.check_second_order", "ms")),
        ("analytic.evaluator_calls", "count", "lower", _analytic_calls),
        ("contour.residue_formula.builtin.ms", "ms", "lower",
         _per_call("contour.residue_formula", "ms", "builtin")),
        ("contour.residue_formula.callable.ms", "ms", "lower",
         _per_call("contour.residue_formula", "ms", "callable")),
        ("contour.nodes_to_target", "count", "lower", _nodes_to_target),
        ("contour.integrate.us_per_node", "us", "lower", _us_per_node),
        ("contour.evaluator_share", "share", "higher", _evaluator_share),
        ("contour.winding.us", "us", "lower", _per_call("contour.winding", "us")),
        ("contour.project.us", "us", "lower", _per_call("contour.project", "us")),
        ("polyfactor.decompose.us", "us", "lower", _per_call("polyfactor.decompose", "us")),
    ]
    for d in DEGREES:
        tag = f"d{d}"
        s += [
            (f"polyfactor.component_roots.{tag}.ms", "ms", "lower",
             _per_call("polyfactor.component_roots", "ms", tag)),
            (f"polyfactor.factor.{tag}.ms", "ms", "lower", _per_call("polyfactor.factor", "ms", tag)),
            (f"polyfactor.expand_factors.{tag}.ms", "ms", "lower",
             _per_call("polyfactor.expand_factors", "ms", f"known-{tag}")),
            (f"polyfactor.no_convergence.{tag}", "share", "lower", _no_convergence(tag)),
        ]
    s += [
        ("cli.interp_ms", "ms", "lower", _per_call("cli.interp", "ms")),
        ("cli.import_ms", "ms", "lower", _measured("cli.import", 1e6)),
    ]
    for cmd in gen.CLI_COMMANDS:
        s.append((f"cli.cold_start_ms.{cmd}", "ms", "lower", _per_call("cli.item", "ms", cmd)))
    for cmd in gen.CLI_COMMANDS:
        s.append((f"cli.main_ms.{cmd}", "ms", "lower", _per_call("cli.main", "ms", cmd)))
    s += [
        ("selftest.total_s", "s", "lower", _per_call("selftest.run_all", "s")),
        ("selftest.suite_residues.s", "s", "lower", _per_call("selftest.suite_residues", "s")),
        ("trace.items_per_s.untraced", "1/s", "higher", _value("ips_untraced")),
        ("trace.items_per_s.traced", "1/s", "higher", _value("ips_traced")),
        ("trace.overhead_share", "share", "lower", _value("overhead_share")),
    ]
    for layer in LAYERS:
        s.append((f"{layer}.self_us_per_item", "us", "lower", _layer_self(layer, "self_us")))
        s.append((f"{layer}.calls_per_item", "count", "lower", _layer_self(layer, "calls")))
    return s


def layer_self(tr, items: range) -> dict:
    """Self time and span count per layer, per item of `items`."""
    own = tr.self_ns()
    acc = defaultdict(lambda: [0, 0])
    for i in range(len(tr)):
        if tr.item[i] in items:
            layer = tr.names[tr.name[i]].split(".", 1)[0]
            acc[layer][0] += own[i]
            acc[layer][1] += 1
    n = max(1, len(items))
    return {layer: {"self_us": acc[layer][0] / 1e3 / n, "calls": acc[layer][1] / n}
            for layer in LAYERS}


def compute(tr, ctx) -> dict:
    """name -> (value, unit) for every per-layer metric; None if not measured."""
    return {name: (fn(tr, ctx), unit) for name, unit, _, fn in specs()}


def sweep(tr, seed, orc, root, workdir, skip: str) -> None:
    """Reach, traced, every layer the traced workload `skip` does not."""
    ops = wk.make_ops(tr)
    small_contour = None
    if skip != "contour":
        pool = gen.contour_pool(seed)
        small_contour = wk.Contour(seed, orc, pool=pool[:2])   # one builtin, one callable
        small_contour.use_tracer(tr)
    cli_wl = wk.Cli(seed, orc, root, workdir)
    with tr.patched(wk.INTERNAL):
        if skip != "elementwise":
            wk.measure(wk.Elementwise(seed, orc, pool_rounds=2), ops, rounds=1, tracer=tr)
        if small_contour is not None:
            wk.measure(small_contour, ops, rounds=1, tracer=tr)
        if skip != "factor":
            wk.measure(wk.Factor(seed, orc), ops, rounds=1, tracer=tr)
        if skip != "cli":
            wk.measure(cli_wl, ops, rounds=1, tracer=tr)
        _probe_functions(tr, ops, seed)
        _probe_cli_in_process(tr, ops, cli_wl)
    _probe_interpreter(tr, root)


def _probe_functions(tr, ops, seed):
    """Public functions no workload item calls directly."""
    tr.begin_item("probe")
    rng = random.Random(f"{seed}/probe")
    for _ in range(50):
        u = algebra.PentaComplex(*gen.canonical_element(rng, 1.0))
        ops.from_canonical(ops.to_canonical(u))
        ops.modulus(u)
        ops.amplitude(u)
        ops.coefficient_spectrum(u)
    # g5_closed runs five times per table row, so it is spanned only here
    with tr.patched([(cosexp, "g5_closed", "cosexp.g5_closed")]):
        for j in range(200):
            ops.cosexp_values(-4.0 + 0.04 * j)
    # expand_factors on the known linear factors of each degree: runs even
    # where factor() fails to produce factors
    for item in gen.factor_round(seed, 0):
        if item.kind == "known":
            factors = [polyfactor.LinearFactor(algebra.PentaComplex(*oracles.from_blocks(vp, z1, z2)))
                       for vp, z1, z2 in zip(*item.known_blocks)]
            tr.begin_item(f"known-d{item.degree}")
            ops.expand_factors(factors)
    tr.begin_item("probe")
    f = tr.counted("analytic.evaluator", elementary.exp)
    for _ in range(3):
        u = algebra.PentaComplex(*gen.canonical_element(rng, 0.3))
        ops.check_cr_relations(f, u)
        ops.check_second_order(f, u)


def _probe_cli_in_process(tr, ops, cli_wl):
    """cli.main(argv) in this process for every command of one script pass."""
    suites = list(selftest.SUITES)
    selftest.SUITES[:] = [tr.wrap(f"selftest.{s.__name__}", s) for s in suites]
    try:
        for entry in next(cli_wl.rounds()):
            tr.begin_item(entry[0].command)
            cli_wl.in_process(ops, entry)
            cli_wl.cleanup(entry)
    finally:
        selftest.SUITES[:] = suites


def _probe_interpreter(tr, root):
    """A bare interpreter start, and `import pentacomplex` timed in a child."""
    tr.begin_item("interp")
    start = tr.wrap("cli.interp", subprocess.run)
    for _ in range(3):
        start([sys.executable, "-c", "pass"], check=True)
        out = subprocess.run([sys.executable, wk.PROBE, root, "import"], check=True,
                             capture_output=True, text=True, timeout=120)
        tr.values["cli.import"].append(int(out.stdout.split()[-1]))
