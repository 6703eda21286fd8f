"""tools/bench_contour.py's row bookkeeping and perfbench's patch targets,
checked without a perfbench run."""

import importlib.util
import json
import math
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_contour", os.path.join(ROOT, "tools", "bench_contour.py"))
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def per_layer_rows():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def test_every_per_layer_row_has_a_workload_and_every_layer_a_row():
    owned = set().union(*map(bench.rows_wanted, bench.LAYERS))
    assert sorted(set(per_layer_rows()) - owned) == []
    for workload, prefixes in bench.LAYERS.items():
        wanted = bench.rows_wanted(workload)
        for prefix in prefixes:
            assert any(name.startswith(prefix) for name in wanted), (workload, prefix)


def fabricated_record():
    rows = {"items_per_s": {"unit": "1/s", "better": "higher", "trace": 0,
                            "parent": 3700.0, "change": 3800.0},
            "contour.winding.us": {"unit": "us", "better": "lower", "trace": 1,
                                   "parent": 37.5, "change": 37.1}}
    return {"machine": {"cpu": "Xeon", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6"},
            "trees": ["parent", "change"], "rows": rows}


def test_gaps_names_a_row_without_a_finite_median_and_a_missing_machine_field():
    rec = fabricated_record()
    assert bench.gaps(rec) == []
    rec["rows"]["contour.winding.us"]["change"] = math.nan
    assert bench.gaps(rec) == ["contour.winding.us"]
    del rec["machine"]["numpy"]
    assert bench.gaps(rec) == ["contour.winding.us", "machine.numpy"]


def test_the_driver_exits_non_zero_naming_a_row_a_run_did_not_report(monkeypatch, capsys):
    def perfbench(tree, workload, trace, seconds, names):
        # as perfbench() reads a run whose last line lacks that row
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {k: math.nan if k == "polyfactor.factor.d64.ms" else 1.0
                            for k in names}}

    monkeypatch.setattr(bench, "perfbench", perfbench)
    with pytest.raises(SystemExit, match=r"for: polyfactor\.factor\.d64\.ms$"):
        bench.main(["--smoke", "--workload", "factor", "--src", f"change={ROOT}"])
    assert "polyfactor.decompose.us" in capsys.readouterr().out


def test_every_tree_is_byte_compiled_before_the_first_run(monkeypatch, tmp_path):
    events = []

    def perfbench(tree, workload, trace, seconds, names):
        events.append(("run", tree))
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {k: 1.0 for k in names}}

    monkeypatch.setattr(bench, "perfbench", perfbench)
    monkeypatch.setattr(bench.compileall, "compile_dir",
                        lambda path, **kw: events.append(("compile", path)))
    trees = {label: str(tmp_path / label) for label in ("parent", "change")}
    for path in trees.values():
        os.makedirs(os.path.join(path, "perfbench"))
        open(os.path.join(path, "perfbench", "run.py"), "w").close()
    out = tmp_path / "bench.json"
    bench.main(["--smoke", "--workload", "factor", "--out", str(out),
                *(f"--src={label}={path}" for label, path in trees.items())])
    first_run = next(i for i, (kind, _) in enumerate(events) if kind == "run")
    assert sorted(events[:first_run]) == sorted(("compile", os.path.join(path, "src"))
                                                for path in trees.values())
    assert "byte-compiled" in json.loads(out.read_text())["compiled"]


def test_each_row_records_the_iqr_of_each_tree_and_the_second_tree_s_wins(
        monkeypatch, tmp_path, capsys):
    # per tree, each round's value of every row; the change ties round 1
    # and loses round 3 on a higher-is-better row, and on a lower-is-better
    # one wins round 3 alone
    series = {"parent": [100.0, 110.0, 120.0, 130.0], "change": [105.0, 110.0, 125.0, 120.0]}
    seen = {label: [] for label in series}

    def perfbench(tree, workload, trace, seconds, names):
        label = os.path.basename(tree)
        if trace == 0:
            seen[label].append(None)
        value = series[label][len(seen[label]) - 1]
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {k: value for k in names}}

    monkeypatch.setattr(bench, "perfbench", perfbench)
    monkeypatch.setattr(bench.compileall, "compile_dir", lambda path, **kw: None)
    for label in series:
        os.makedirs(tmp_path / label / "perfbench")
        (tmp_path / label / "perfbench" / "run.py").touch()
    out = tmp_path / "bench.json"
    bench.main(["--workload", "contour", "--pairs", "4", "--out", str(out),
                *(f"--src={label}={tmp_path / label}" for label in series)])
    rows = json.loads(out.read_text())["rows"]
    higher, lower = rows["items_per_s"], rows["item_p50_ms"]
    assert (higher["parent"], higher["change"]) == (115.0, 115.0)
    # inclusive quartiles: 107.5 and 122.5 for the parent, 108.75 and 121.25 for the change
    assert higher["iqr"] == {"parent": 15.0, "change": 12.5}
    assert (higher["wins"], lower["wins"]) == (2, 1)
    printed = next(line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("items_per_s "))
    assert "(IQR 15)" in printed and "(IQR 12.5)" in printed
    assert "change wins 2/4" in printed


def test_one_run_has_a_zero_iqr_and_a_tie_or_a_nan_wins_for_neither():
    assert bench.iqr([3.0]) == 0.0
    assert bench.wins([1.0, 2.0, math.nan], [2.0, 2.0, 5.0], "higher") == 1
    assert bench.wins([1.0, 2.0, math.nan], [0.5, 2.0, 5.0], "lower") == 1


def load_workloads():
    """perfbench/workloads.py as a module, loaded read-only: no bytecode is
    written into perfbench/, and its sibling modules are on the path only
    while it loads."""
    bench_dir = os.path.join(ROOT, "perfbench")
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, bench_dir)
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", os.path.join(bench_dir, "workloads.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
    return module


def test_every_patch_target_of_the_benchmark_exists():
    # a traced run wraps each of these attributes, and raises on a missing one
    workloads = load_workloads()
    for span, module, attr in workloads.OPS.values():
        assert hasattr(module, attr), span
    for module, attr, span in workloads.INTERNAL:
        assert hasattr(module, attr), span
    from pentacomplex import analytic, polyfactor
    assert polyfactor.coefficient_spectrum is analytic.coefficient_spectrum
