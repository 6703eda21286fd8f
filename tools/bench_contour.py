"""Perfbench rows of one workload for one or more source trees, as one JSON record.

Usage, from the root of a checkout:

    python3 tools/bench_contour.py --workload W --src parent=DIR --src change=. --out BENCH.json
    python3 tools/bench_contour.py --smoke --workload W --src change=. --out /tmp/bench.json

with W one of contour (the default), elementwise, factor and cli.  Each
--src LABEL=DIR names a checkout.  The script runs that checkout's own
perfbench/run.py on the workload at the seed --seed gives (default 1), the
record's `seed`, each run a fresh process: once
with --trace 0, whose last line holds the end-to-end metrics (items_per_s
and the rest), and once with --trace 1, whose last line holds the
per-layer rows of the layers LAYERS gives the workload, and the trace.*
rows.  The trees take turns, ABBA, for --pairs rounds, so drift of the
host's speed falls on all alike.  Before the first run each tree's src/ is
byte-compiled once: where PYTHONDONTWRITEBYTECODE is set, an import writes
no bytecode, so a module without current bytecode would be compiled again
in every run, in its setup and import times.  The record holds the
machine, these rows of every run as perfbench printed them, and per row
each tree's median and interquartile range over its runs (`iqr`; the
quartiles interpolated inclusively, 0 for a single run) and, with two
trees, `wins`: in how many rounds the second tree's run beat the first's
by the row's `better` direction, ties counting for neither.  These are the
inputs of the rule for claiming a gain: wins in nine of ten rounds and
medians further apart than the first tree's IQR.  Names, units and
directions are those of this checkout's BENCHMARK.json.  The script exits non-zero,
naming them, when a row has no finite median for some tree or the machine
record lacks a field of MACHINE_FIELDS.  --smoke runs each tree once for
one second, to check that the script runs.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (perfbench/run.py: machine())

# the layers whose per-layer rows the record of each workload's traced run
# holds (every traced run measures all layers); cli runs check-analytic, and
# every workload also owns the trace.* rows, its traced run's overhead
LAYERS = {"contour": ("contour.",),
          "elementwise": ("algebra.", "canonical.", "geometry.", "elementary."),
          "factor": ("polyfactor.",),
          "cli": ("cli.", "cosexp.", "selftest.", "analytic.")}
MACHINE_FIELDS = ("cpu", "python", "numpy")


def rows_wanted(workload: str) -> dict:
    """name -> (unit, better, trace): every end-to-end metric, from the
    untraced run, and every row of the workload's layers, from the traced
    one."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    rows = {m["name"]: (m["unit"], m["better"], 0) for m in spec["end_to_end"]}
    rows.update((m["name"], (m["unit"], m["better"], 1)) for m in spec["per_layer"]
                if m["name"].startswith(LAYERS[workload] + ("trace.",)))
    return rows


def gaps(record: dict) -> list:
    """The rows of the record with no finite median for some tree, and the
    fields of MACHINE_FIELDS its machine lacks."""
    return ([name for name, row in record["rows"].items()
             if not all(math.isfinite(row[label]) for label in record["trees"])]
            + [f"machine.{k}" for k in MACHINE_FIELDS if k not in record["machine"]])


def iqr(values: list) -> float:
    """The distance between the quartiles of the values (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def wins(first: list, second: list, better: str) -> int:
    """In how many rounds the second value beats the first, by `better`
    ("higher" or "lower"); a tie, or a nan, counts for neither."""
    return sum(b > a if better == "higher" else b < a for a, b in zip(first, second))


def perfbench(tree: str, workload: str, seed: int, trace: int, seconds: float, names) -> dict:
    """The last JSON line of one run of the tree's perfbench/run.py, with
    only the metrics in names; nan for one the run did not report."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    line = json.loads(out.stdout.splitlines()[-1])
    return {"correct": line["correct"], "attempted": line["attempted"],
            "failed": line["failed"],
            "metrics": {k: line["metrics"].get(k, {"value": math.nan})["value"]
                        for k in names}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(LAYERS), default="contour",
                   help="the perfbench workload to run (default: contour)")
    p.add_argument("--src", action="append", default=[], metavar="LABEL=DIR",
                   help="a checkout to run, under a label; repeat for each tree")
    p.add_argument("--seed", type=int, default=1, help="perfbench --seed of each run (default: 1)")
    p.add_argument("--pairs", type=int, default=3, help="rounds of runs per tree")
    p.add_argument("--seconds", type=float, default=20.0, help="perfbench --seconds per run")
    p.add_argument("--out", help="write the JSON record here (default: stdout only)")
    p.add_argument("--smoke", action="store_true", help="one round of one-second runs")
    args = p.parse_args(argv)
    if not args.src:
        p.error("give at least one --src LABEL=DIR")
    trees = []
    for spec in args.src:
        label, sep, path = spec.partition("=")
        if not sep or not label:
            p.error(f"--src takes LABEL=DIR, got {spec!r}")
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            p.error(f"{path}/perfbench/run.py not found")
        trees.append((label, os.path.abspath(path)))
    pairs, seconds = (1, 1.0) if args.smoke else (args.pairs, args.seconds)

    wanted = rows_wanted(args.workload)
    names = {t: [k for k, (_, _, trace) in wanted.items() if trace == t] for t in (0, 1)}
    for _, path in trees:
        compileall.compile_dir(os.path.join(path, "src"), quiet=1)
    runs = {label: [] for label, _ in trees}
    for i in range(pairs):
        for label, path in trees if i % 2 == 0 else trees[::-1]:
            runs[label].append({f"trace{t}": perfbench(path, args.workload, args.seed, t, seconds,
                                                       names[t])
                                for t in (0, 1)})

    rows = {}
    for name, (unit, better, trace) in wanted.items():
        row = {"unit": unit, "better": better, "trace": trace, "iqr": {}}
        values = {label: [r[f"trace{trace}"]["metrics"][name] for r in runs[label]]
                  for label, _ in trees}
        for label, vals in values.items():
            finite = all(map(math.isfinite, vals))
            row[label] = statistics.median(vals) if finite else math.nan
            row["iqr"][label] = iqr(vals) if finite else math.nan
        if len(trees) == 2:
            row["wins"] = wins(*values.values(), better)
        rows[name] = row
    record = {"script": "tools/bench_contour.py", "machine": run.machine(),
              "workload": args.workload, "seed": args.seed, "seconds": seconds, "pairs": pairs,
              "smoke": args.smoke, "trees": [label for label, _ in trees],
              "compiled": "each tree's src/ byte-compiled before its first run",
              "rows": rows, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, indent=1) + "\n")
    width = max(map(len, rows))
    for name, row in rows.items():
        values = "  ".join(f"{label} {row[label]:10.4g} (IQR {row['iqr'][label]:.3g})"
                           for label, _ in trees)
        if "wins" in row:
            values += f"  {trees[1][0]} wins {row['wins']}/{pairs}"
        print(f"{name:{width}s}  {values}  {row['unit']}")
    missing = gaps(record)
    if missing:
        sys.exit(f"no finite value in the bench record for: {', '.join(missing)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
