"""Single-shot cost of a contour identity: a fresh Path plus residue_formula,
for one or more source trees, as one JSON record.

Usage, from the root of a checkout:

    python3 tools/bench_fresh.py --src parent=DIR --src change=. --rounds 10 --out BENCH.json
    python3 tools/bench_fresh.py --smoke --src change=. --out /tmp/fresh.json

perfbench's contour workload builds each item's Path once, before its
timed loop, so the work a Path does when it is built never reaches its
metrics; a caller who builds each loop once (`penta integrate` does) pays
it.  This script times that call.  Each run is one fresh process of this
script (`--worker TREE`) that imports the tree's own src/ and perfbench/,
prepares the items of perfbench's contour pools (seeds 1-3; each item at
the sample count perfbench's time-to-accuracy search gives it), untimed,
and then times every item REPEATS times: `Path(vertices, closed=True)`,
and `residue_formula(f, path, pole, samples)` on that path.  Per item it
takes the median of each over the repeats; the run reports their means
over the items in microseconds: `build_us`, `identity_us` and `total_us`
(build + identity).  Times are wall-clock and not normalised for the
host's speed, which drifts between runs (perfbench/run.py's `normalized`
says how much), so the trees take turns, ABBA, for --rounds rounds, and
the record holds per row each tree's median and interquartile range over
its runs and, with two trees, the second tree's wins (`wins`): the inputs
of the rule for claiming a gain (bench_contour.py).  Before the first run
each tree's src/ is byte-compiled once.  The script exits non-zero,
naming them, when a row has no finite median for some tree.  --smoke runs
each tree once, with 2 repeats on the seed-1 pool, to check that the
script runs.
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
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import bench_contour  # noqa: E402  (iqr, wins and perfbench's machine record)

ROWS = ("build_us", "identity_us", "total_us")
SEEDS = (1, 2, 3)
REPEATS = 20


def measure(tree: str, seeds, repeats: int) -> dict:
    """The rows of one run on the tree (see the module docstring)."""
    sys.dont_write_bytecode = True  # nothing is written into the tree's perfbench/
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import oracles
    import workloads
    from pentacomplex import contour

    orc = oracles.Oracles()
    items = []
    for seed in seeds:
        wl = workloads.Contour(seed, orc)
        items += [(prep.path.vertices, prep.pole, wl.funcs[id(prep)], prep.samples)
                  for prep in wl.pool]
    clock = time.perf_counter_ns
    per_item = []
    for verts, pole, f, samples in items:
        build, identity = [], []
        for _ in range(repeats):
            t0 = clock()
            path = contour.Path(verts, closed=True)
            t1 = clock()
            contour.residue_formula(f, path, pole, samples=samples)
            t2 = clock()
            build.append(t1 - t0)
            identity.append(t2 - t1)
        b, i = statistics.median(build) / 1e3, statistics.median(identity) / 1e3
        per_item.append((b, i, b + i))
    return {name: statistics.fmean(col) for name, col in zip(ROWS, zip(*per_item))}


def run_worker(tree: str, seeds, repeats: int) -> dict:
    """measure() on the tree in a fresh process of this script."""
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", tree,
           "--repeats", str(repeats), "--seeds", *map(str, seeds)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", action="append", default=[], metavar="LABEL=DIR",
                   help="a checkout to run, under a label; repeat for each tree")
    p.add_argument("--rounds", type=int, default=10, help="runs per tree, ABBA (default: 10)")
    p.add_argument("--out", help="write the JSON record here (default: stdout only)")
    p.add_argument("--smoke", action="store_true",
                   help="one run per tree, 2 repeats, the seed-1 pool")
    # one run of measure(), in the process the driver starts
    p.add_argument("--worker", metavar="TREE", help=argparse.SUPPRESS)
    p.add_argument("--repeats", type=int, default=REPEATS, help=argparse.SUPPRESS)
    p.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        print(json.dumps(measure(args.worker, args.seeds, args.repeats)))
        return 0
    if not args.src:
        p.error("give at least one --src LABEL=DIR")
    trees = []
    for spec in args.src:
        label, sep, path = spec.partition("=")
        if not sep or not label:
            p.error(f"--src takes LABEL=DIR, got {spec!r}")
        if not os.path.isfile(os.path.join(path, "perfbench", "workloads.py")):
            p.error(f"{path}/perfbench/workloads.py not found")
        trees.append((label, os.path.abspath(path)))
    rounds, repeats, seeds = (1, 2, [1]) if args.smoke else (args.rounds, REPEATS, list(SEEDS))

    # single-threaded, as perfbench runs: BLAS starts no threads in the workers
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    for _, path in trees:
        compileall.compile_dir(os.path.join(path, "src"), quiet=1)
    runs = {label: [] for label, _ in trees}
    for i in range(rounds):
        for label, path in trees if i % 2 == 0 else trees[::-1]:
            runs[label].append(run_worker(path, seeds, repeats))

    rows = {}
    for name in ROWS:
        row = {"unit": "us", "better": "lower", "iqr": {}}
        values = {label: [r[name] for r in runs[label]] for label, _ in trees}
        for label, vals in values.items():
            finite = all(map(math.isfinite, vals))
            row[label] = statistics.median(vals) if finite else math.nan
            row["iqr"][label] = bench_contour.iqr(vals) if finite else math.nan
        if len(trees) == 2:
            row["wins"] = bench_contour.wins(*values.values(), "lower")
        rows[name] = row
    record = {"script": "tools/bench_fresh.py", "machine": bench_contour.run.machine(),
              "seeds": seeds, "repeats": repeats, "rounds": rounds, "smoke": args.smoke,
              "trees": [label for label, _ in trees],
              "measures": "per item, the median over the repeats of a fresh "
                          "Path(vertices, closed=True) and of residue_formula on it; "
                          "each row the mean over the items, wall-clock microseconds",
              "rows": rows, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record, indent=1) + "\n")
    for name, row in rows.items():
        values = "  ".join(f"{label} {row[label]:9.1f} (IQR {row['iqr'][label]:.3g})"
                           for label, _ in trees)
        if "wins" in row:
            values += f"  {trees[1][0]} wins {row['wins']}/{rounds}"
        print(f"{name:11s}  {values}  us")
    missing = [name for name, row in rows.items()
               if not all(math.isfinite(row[label]) for label, _ in trees)]
    if missing:
        sys.exit(f"no finite value in the record for: {', '.join(missing)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
