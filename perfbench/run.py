"""Benchmark of the pentacomplex package.

Usage, from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S      # every workload
    python3 perfbench/run.py --selfcheck

Each run measures one workload as a single-threaded closed loop: the next
item starts when the previous one has finished.  Items are made from the
seed, timed one by one, and checked afterwards by the benchmark's own
oracles (oracles.py).  Timings are put at a fixed host speed by a
reference kernel timed between items (see normalized); correctness
figures come from every run.  An input that a workload repeats counts
once in attempted and failed.  With --trace 0 the last line of stdout is
a JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run.  A fuller record, with the machine, the seed and
the failure breakdown, goes to perfbench/results/.  --selfcheck runs every
workload at a tiny size and checks that every metric is emitted and every
oracle runs and rejects a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

# single-threaded closed loops: numpy's BLAS must not start worker threads
# that compete with the timed items for the second CPU (children inherit this)
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("elementwise", "contour", "factor", "cli")
# fresh processes timed per run for setup_s, half before and half after the
# workload so they meet different load on the host; the median is reported
SETUP_RUNS = 10
# latencies are scaled to a reference kernel time of this many seconds (see
# normalized): about its fastest time on the machine the benchmark was
# built on, so figures there read as at its fastest speed
REFERENCE_S = 50e-6


def _import_package():
    if not os.path.isfile(os.path.join(ROOT, "src", "pentacomplex", "__init__.py")):
        sys.exit("perfbench: src/pentacomplex not found next to perfbench/; "
                 "run from a full checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))


def machine() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def setup_seconds(workload: str, runs: int) -> list[float]:
    """Interpreter start to first warm-up calls done, in fresh processes."""
    import workloads as wk
    out = []
    for _ in range(runs):
        t0 = time.monotonic_ns()
        proc = subprocess.run([sys.executable, wk.PROBE, ROOT, workload], check=True,
                              capture_output=True, text=True, timeout=120)
        out.append((int(proc.stdout.split()[-1]) - t0) / 1e9)
    return out


def peak_rss_mb(workload: str) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli":
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def make_workload(name, seed, orc, workdir, tiny=False):
    import gen
    import workloads as wk
    if name == "elementwise":
        return wk.Elementwise(seed, orc, pool_rounds=2 if tiny else None)
    if name == "contour":
        pool = gen.contour_pool(seed)
        return wk.Contour(seed, orc, pool=pool[:2] if tiny else pool)
    if name == "factor":
        return wk.Factor(seed, orc)
    return wk.Cli(seed, orc, ROOT, workdir)


def normalized(t, runs) -> tuple[list[float], list[bool]]:
    """Item latencies put at a fixed host speed.

    The host this benchmark was built on runs the same code at speeds up to
    1.6x apart, switching within milliseconds and drifting over minutes
    with the load other tenants put on it (wall and CPU time agree, so it
    is not preemption).  measure() times a fixed reference kernel between
    items; each run's time is divided by the reference time around it and
    multiplied by REFERENCE_S, so latencies count in reference-kernel units
    and read as seconds at a host speed fixed in this file.  A workload
    that repeats a pool of inputs gives one latency per input, the median
    of its scaled runs; a workload with fresh inputs gives one per run.
    """
    by_input = defaultdict(list)
    for i in runs:
        by_input[t.group[i] if t.pooled else i].append(i)
    lat, ok = [], []
    for idx in by_input.values():
        lat.append(statistics.median(t.seconds[i] * REFERENCE_S / t.ref[i] for i in idx))
        ok.append(all(t.verified[i] for i in idx))
    return lat, ok


def timings(t, runs) -> dict:
    lat, ok = normalized(t, runs)
    tail_s, tail_info = tail(lat, min_above=0 if t.pooled else 10)
    return {"items_per_s": sum(ok) / sum(lat),
            "item_p50_ms": statistics.median(lat) * 1e3,
            "item_tail_ms": tail_s * 1e3, "tail": tail_info,
            "reference_us": {"fastest": min(t.ref[i] for i in runs) * 1e6,
                             "median": statistics.median(t.ref[i] for i in runs) * 1e6}}


def tail(latencies: list[float], min_above: int) -> tuple[float, dict]:
    """Latency at p95 (nearest rank), or at the highest percentile below it
    that has at least `min_above` samples above it.  Beyond p95 the few
    slowest items of a run decide the figure.  Samples that are each the
    median of an input's runs need no samples above them: no single slow
    run can move them, so on a pool of twelve inputs p95 is the slowest input."""
    lat = sorted(latencies)
    n = len(lat)
    k = max(0, min(n - 1 - min_above, math.ceil(0.95 * n) - 1))
    return lat[k], {"percentile": 100.0 * (k + 1) / n, "samples": n, "above": n - k - 1}


def end_to_end(t, setup, rss_mb) -> tuple[dict, dict]:
    """Timings at a fixed host speed (see normalized); correctness from
    every run."""
    from oracles import ERR_FLOOR
    q = timings(t, range(len(t)))
    worst = t.worst_err
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (q["items_per_s"], "1/s"),
        "item_p50_ms": (q["item_p50_ms"], "ms"),
        "item_tail_ms": (q["item_tail_ms"], "ms"),
        "verified_share": (1.0 - t.failed / t.attempted, "share"),
        "err_digits": (-math.log10(max(worst, ERR_FLOOR)) if worst is not None else 0.0, "digits"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, {"tail": q["tail"], "reference_us": q["reference_us"],
                     "setup_s_samples": setup}


def traced(wl, seed, orc, seconds, workdir, rounds=None) -> tuple:
    """Untraced then traced halves of the run, then the sweep of the other layers."""
    import layers
    import workloads as wk
    from pentacomplex import PentaError
    from tracing import Tracer

    half = None if seconds is None else seconds / 2.0
    t = wk.measure(wl, wk.make_ops(), seconds=half, rounds=rounds)
    n_plain = len(t)
    tr = Tracer(PentaError)
    if isinstance(wl, wk.Contour):
        wl.use_tracer(tr)
    first = len(tr.tags)
    with tr.patched(wk.INTERNAL):
        wk.measure(wl, wk.make_ops(tr), seconds=half, rounds=rounds, tracer=tr, tally=t)
    if isinstance(wl, wk.Contour):
        wl.use_tracer(None)

    ctx = {"ips_untraced": timings(t, range(n_plain))["items_per_s"],
           "ips_traced": timings(t, range(n_plain, len(t)))["items_per_s"],
           "layer_self": layers.layer_self(tr, range(first, len(tr.tags)))}
    ctx["overhead_share"] = 1.0 - ctx["ips_traced"] / ctx["ips_untraced"]
    layers.sweep(tr, seed, orc, ROOT, workdir, skip=wl.name)
    metrics = layers.compute(tr, ctx)
    os.makedirs(RESULTS, exist_ok=True)
    spans_path = os.path.join(RESULTS, f"spans-{wl.name}-seed{seed}.csv.gz")
    tr.write(spans_path)
    return t, metrics, {"spans": len(tr), "spans_file": os.path.relpath(spans_path, ROOT)}


def run(workload: str, seed: int, seconds, trace: bool, rounds=None, tiny=False) -> dict:
    """One benchmark run; returns the full record (see write_record)."""
    import oracles
    import workloads as wk

    orc = oracles.Oracles()
    os.makedirs(RESULTS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="work-") as workdir:
        wl = make_workload(workload, seed, orc, workdir, tiny)
        if trace:
            t, metrics, extra = traced(wl, seed, orc, seconds, workdir, rounds)
        else:
            setup = setup_seconds(workload, SETUP_RUNS // 2)
            t = wk.measure(wl, wk.make_ops(), seconds=seconds, rounds=rounds)
            setup += setup_seconds(workload, SETUP_RUNS - SETUP_RUNS // 2)
            metrics, extra = end_to_end(t, setup, peak_rss_mb(workload))
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": not t.silent,
        "attempted": t.attempted,
        "failed": t.failed,
        "runs": len(t),
        "metrics": metrics,
        "labels": dict(t.labels),
        "fail_share": t.failed / t.attempted,
        "failures": dict(t.failures.most_common()),
        "oracle_runs": dict(orc.runs),
        "latency_by_tag": {tag: {"items": len(v), "p50_ms": statistics.median(v) * 1e3}
                           for tag, v in sorted(t.by_tag.items())},
        **extra,
    }


def write_record(rec: dict) -> str:
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        mapping = json.load(fh)
    full = dict(rec, machine=machine(), north_star_map=mapping["north_star_map"],
                predicted_layer_effects=mapping["layers"],
                metrics={k: {"value": v, "unit": u} for k, (v, u) in rec["metrics"].items()})
    path = os.path.join(RESULTS, f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    return path


def result_line(rec: dict) -> str:
    missing = [k for k, (v, _) in rec["metrics"].items() if v is None or not math.isfinite(v)]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                       "failed": rec["failed"],
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in rec["metrics"].items()}})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",),
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    args = p.parse_args(argv)
    _import_package()
    if args.selfcheck:
        import selfcheck
        return selfcheck.main(run)
    if args.workload is None:
        p.error("--workload is required")
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        rec = run(workload, args.seed, args.seconds, bool(args.trace))
        line = result_line(rec)
        path = write_record(rec)
        for name, (value, unit) in rec["metrics"].items():
            print(f"{workload:12s} {name:40s} {value:14.6g} {unit}")
        print(f"{workload:12s} attempted {rec['attempted']}, failed {rec['failed']} "
              f"(fail_share {rec['fail_share']:.4f}), correct {rec['correct']}; "
              f"record {os.path.relpath(path, ROOT)}")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
