"""Self-check of the benchmark itself: python3 perfbench/run.py --selfcheck

Runs every workload at a tiny size, untraced and traced, and asserts that
every end-to-end and per-layer metric named in BENCHMARK.json is emitted
with a finite value and that every oracle ran.  It then feeds each oracle
a right and a deliberately wrong answer and asserts that only the wrong
one is rejected.  Each check fails only if the benchmark is broken; none
gates a timing.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import os
import random

import numpy as np

import gen
import oracles
import workloads as wk
from pentacomplex import (PentaComplex, PentaPolynomial, contour, cosexp,
                          elementary, expand_factors, factor, inverse, log,
                          multiply, polar_form, pow_real, rotated_coords,
                          to_canonical)

# rounds per workload: every item label, every builtin/callable kind, every
# degree and every CLI command appears at least once
TINY_ROUNDS = {"elementwise": 2, "contour": 1, "factor": 1, "cli": 1}
ORACLES = {"product", "canonical", "rotated", "inverse_round_trip", "log", "exp_log_round_trip",
           "sqrt_round_trip", "sin", "polar", "residue", "windings", "reconstruction", "roots",
           "exact_text", "cosexp_table"}


def _bump(x, rel=1e-4):
    x = list(x)
    x[1] += rel * max(abs(c) for c in x)
    return x


def oracle_cases():
    """(name, error of a right answer, error of a wrong answer) per oracle."""
    orc = oracles.Oracles()
    u = PentaComplex(*gen.canonical_element(random.Random(7), 3.0))
    v = PentaComplex(1.0, 0.3, -0.2, 0.1, 0.4)
    x = u.components
    w = multiply(u, v).components
    lu = log(u)
    s = elementary.sin(lu).components
    pf = polar_form(u).to_dict()
    bad_pf = dict(pf, phi1=pf["phi1"] + 1e-4)
    pole = PentaComplex(0.1, -0.2, 0.05, 0.3, 0.0)
    loop = contour.plane_circle(pole, 1, 1.0, vertices=64)
    lhs, _ = contour.residue_formula(elementary.exp, loop, pole, samples=8192)
    f0 = wk.oracle_value("exp", pole.components)
    item = gen.factor_round(3, 0)[1]          # degree 8, known roots
    poly = PentaPolynomial(tuple(PentaComplex(*c) for c in item.coeffs))
    facs = factor(poly)
    rebuilt = [a.components for a in expand_factors(facs).coeffs]
    fb = wk.factor_blocks(facs)
    bad_rebuilt = [_bump(rebuilt[0], 1e-3)] + rebuilt[1:]
    line = wk.recovered_roots(fb)[0]
    blocks = np.fft.fft(np.array(((1.0, 0, 0, 0, 0),) + item.coeffs), axis=1)
    coeff_line = blocks[:, 0]
    scale = np.abs(blocks[:, (0, 4, 3)]).max(axis=1)
    ys = [0.1 * k for k in range(-20, 21)]
    g = [cosexp.cosexp_values(y).g for y in ys]
    bad_g = [row if k != 5 else _bump(row, 1e-3) for k, row in enumerate(g)]
    return [
        ("product", orc.product(w, x, v.components), orc.product(_bump(w), x, v.components)),
        ("canonical", orc.canonical(dataclasses.astuple(to_canonical(u)), x),
         orc.canonical(_bump(dataclasses.astuple(to_canonical(u))), x)),
        ("rotated", orc.rotated(dataclasses.astuple(rotated_coords(u)), x),
         orc.rotated(_bump(dataclasses.astuple(rotated_coords(u))), x)),
        ("inverse_round_trip", orc.inverse_round_trip(inverse(v).components, v.components),
         orc.inverse_round_trip(_bump(inverse(v).components), v.components)),
        ("log", orc.log(lu.components, x), orc.log(_bump(lu.components), x)),
        ("exp_log_round_trip", orc.exp_log_round_trip(elementary.exp(log(v)).components, v.components),
         orc.exp_log_round_trip(_bump(elementary.exp(log(v)).components), v.components)),
        ("sqrt_round_trip", orc.sqrt_round_trip(pow_real(u, 0.5).components, x),
         orc.sqrt_round_trip(_bump(pow_real(u, 0.5).components), x)),
        ("sin", orc.blockwise("sin", s, lu.components, math.sin, cmath.sin),
         orc.blockwise("sin", _bump(s), lu.components, math.sin, cmath.sin)),
        ("polar", orc.polar(pf, x), orc.polar(bad_pf, x)),
        ("residue", orc.residue(lhs.components, f0, (1, 0)),
         orc.residue(lhs.components, f0, (1, 1))),
        ("windings", orc.windings((1, 0), (1, 0)), orc.windings((0, 1), (1, 0))),
        ("reconstruction", orc.reconstruction(item.coeffs, rebuilt, fb),
         orc.reconstruction(item.coeffs, bad_rebuilt, fb)),
        ("roots", orc.roots(line, coeff_line, scale),
         orc.roots([line[0] + 1e-3] + line[1:], coeff_line, scale)),
        ("exact_text", orc.exact_text("[1.0]", "[1.0]"), orc.exact_text("[1.0]", "[1.0000000000000002]")),
        ("cosexp_table", orc.cosexp_table(ys, g), orc.cosexp_table(ys, bad_g)),
    ]


def main(run) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {False: {m["name"] for m in bench["end_to_end"]},
                True: {m["name"] for m in bench["per_layer"]}}
    problems = []
    for name, right, wrong in oracle_cases():
        if not (right <= oracles.REL_TOL < wrong):
            problems.append(f"oracle {name}: right answer scores {right:.2e}, wrong one {wrong:.2e}")
    ran = set()
    for name in TINY_ROUNDS:
        for trace in (False, True):
            rec = run(name, 1, None, trace, rounds=TINY_ROUNDS[name], tiny=True)
            got = set(rec["metrics"])
            if got != declared[trace]:
                problems.append(f"{name} trace={int(trace)}: emitted and declared metrics differ: "
                                f"{sorted(got ^ declared[trace])}")
            bad = [k for k, (v, _) in rec["metrics"].items() if v is None or not math.isfinite(v)]
            if bad:
                problems.append(f"{name} trace={int(trace)}: no finite value for {bad}")
            ran.update(rec["oracle_runs"])
            print(f"selfcheck: {name} trace={int(trace)}: {rec['attempted']} items, "
                  f"{rec['failed']} failed, {len(got)} metrics")
    if ORACLES - ran:
        problems.append(f"oracles never ran: {sorted(ORACLES - ran)}")
    for p in problems:
        print("selfcheck: FAIL", p)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0
