"""tools/bench_contour.py's row bookkeeping, checked without a perfbench run."""

import importlib.util
import json
import math
import os

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
