"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Criteria 1-11 run the identity suites from pentacomplex.selftest (which pin
every tolerance); criterion 12 exercises the CLI end to end.
"""

import json
import time

import pytest

from pentacomplex import cosexp, cosexp_values, g5_closed, selftest
from pentacomplex.cli import main
from pentacomplex.selftest import (suite_analytic, suite_basis_table,
                                   suite_canonical, suite_cosexp_identities,
                                   suite_cosexp_triple, suite_elementary,
                                   suite_factorization, suite_geometry,
                                   suite_matrix_rep, suite_residues,
                                   suite_ring_axioms)

CRITERIA = [
    ("01-basis-table", suite_basis_table),
    ("02-ring-axioms", suite_ring_axioms),
    ("03-matrix-homomorphism", suite_matrix_rep),
    ("04-canonical-structure", suite_canonical),
    ("05-cosexp-triple-agreement", suite_cosexp_triple),
    ("06-cosexp-identities", suite_cosexp_identities),
    ("07-elementary-functions", suite_elementary),
    ("08-geometry", suite_geometry),
    ("09-analyticity", suite_analytic),
    ("10-residues", suite_residues),
    ("11-factorization", suite_factorization),
]


@pytest.mark.parametrize("label,suite", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(label, suite):
    result = suite()
    print(f"[{label}] {result.line()}")
    assert result.passed, result.failures


def test_the_criteria_gate_every_suite():
    # a suite declared later cannot go ungated
    assert [suite for _, suite in CRITERIA] == selftest.SUITES


def test_suites_run_in_declaration_order():
    assert [s.__name__ for s in selftest.SUITES] == [
        "suite_basis_table", "suite_ring_axioms", "suite_matrix_rep", "suite_canonical",
        "suite_cosexp_triple", "suite_cosexp_identities", "suite_elementary",
        "suite_geometry", "suite_analytic", "suite_residues", "suite_factorization"]
    assert [r.name for r in selftest.run_all()] == [
        "basis-table", "ring-axioms", "matrix-representation", "canonical-structure",
        "cosexp-triple-agreement", "cosexp-identities", "elementary-functions",
        "geometry", "analyticity", "residues", "factorization"]


def test_a_failing_check_is_reported(monkeypatch, capsys):
    monkeypatch.setattr(selftest, "basis_product", lambda j, k: (j * k) % 5)
    result = suite_basis_table()
    assert not result.passed
    assert result.line().startswith("FAIL basis-table (2 checks, ")
    assert result.line().endswith(" :: basis table mismatch at basis_product(0,1)")
    # the CLI prints that line and exits 1
    monkeypatch.setattr(selftest, "SUITES", [suite_basis_table])
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("FAIL basis-table (2 checks, ")
    assert out[0].endswith(" :: basis table mismatch at basis_product(0,1)")
    assert out[1].startswith("0/1 suites passed (2 checks, ")


def test_residue_suite_winds_each_identity_loop_twice(monkeypatch):
    # the windings the suite checks are the two each pole identity took, not
    # a second projection and winding of both planes
    from pentacomplex import contour

    identities, windings = [], []
    pole_identity, wind = contour._pole_identity, contour.winding
    monkeypatch.setattr(contour, "_pole_identity",
                        lambda *a: identities.append(a) or pole_identity(*a))
    monkeypatch.setattr(contour, "winding", lambda *a, **k: windings.append(a) or wind(*a, **k))
    result = suite_residues()
    assert result.passed, result.failures
    # 18 identities with checked windings, 10 on the 8-gons and 1 on the 16-gon
    assert len(identities) == 29
    assert len(windings) == 2 * len(identities)


def test_criterion_12_cli_selftest_under_30s(capsys):
    start = time.perf_counter()
    code = main(["selftest"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    print(f"[12-cli] selftest exit={code} in {elapsed:.2f}s")
    assert code == 0, out
    assert elapsed < 30.0
    assert out.count("PASS") == 11


def test_criterion_12_cosexp_table_bit_exact_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    code = main(["cosexp-table", "--from", "-4", "--to", "4", "--step", "0.05",
                 "-o", str(out_file)])
    capsys.readouterr()
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "y,g50,g51,g52,g53,g54"
    assert len(lines) == 162  # header + 161 grid rows
    for line in lines[1:]:
        fields = line.split(",")
        y = float(fields[0])
        want = cosexp_values(y).g
        for k in range(5):
            emitted = float(fields[1 + k])
            assert emitted == want[k], (y, k)
            # beyond the series range the table is the closed form's, bit for bit
            if abs(y) > cosexp.SERIES_UP_TO:
                assert emitted == g5_closed(k, y), (y, k)
    print("[12-cli] cosexp-table round-trips bit-for-bit")
