import io
import json
import math

import pytest

from pentacomplex import (ZERO, PentaComplex, cos, cosexp_values, exp, inverse, log,
                          plane_circle, polar_form, pow_real, to_canonical)
from pentacomplex.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mul_basis_elements(capsys):
    code, out, _ = run(capsys, "mul", "[0,1,0,0,0]", "[0,0,0,0,1]")
    assert code == 0
    assert json.loads(out) == [1, 0, 0, 0, 0]


def test_mul_from_input_file(tmp_path, capsys):
    payload = tmp_path / "ops.json"
    payload.write_text(json.dumps({"u": [0, 1, 0, 0, 0], "v": [0, 0, 1, 0, 0]}))
    code, out, _ = run(capsys, "mul", "-i", str(payload))
    assert code == 0
    assert json.loads(out) == [0, 0, 0, 1, 0]


def test_inv_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "inv", "[0,1,0,0,0]")
    assert code == 0
    got = json.loads(out)
    assert max(abs(a - b) for a, b in zip(got, [0, 0, 0, 0, 1])) <= 1e-15
    # an --input payload may hold the operand under "u"
    payload = tmp_path / "u.json"
    payload.write_text(json.dumps({"u": [1, 2, 3, 4, 5]}))
    assert run(capsys, "inv", "--input", str(payload)) == run(capsys, "inv", "[1,2,3,4,5]")


def test_inv_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "inv", "[0.2,0.2,0.2,0.2,0.2]")
    assert code == 2
    assert json.loads(err)["error"] == "NonInvertible"


def test_mul_overflow_is_domain_error(capsys):
    code, _, err = run(capsys, "mul", "[1e200,0,0,0,0]", "[1e200,0,0,0,0]")
    assert code == 2
    assert json.loads(err)["error"] == "Overflow"


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, "mul", "[0,1,0,0,0]")  # missing operand
    assert code == 1
    code, _, err = run(capsys, "mul", "[0,1]", "[0,0,0,0,1]")
    assert code == 1
    code, _, err = run(capsys, "mul", "not json", "[0,0,0,0,1]")
    assert code == 1


def test_canonical_roundtrip(capsys):
    code, out, _ = run(capsys, "canonical", "[1,2,3,4,5]")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"vplus", "v1", "tv1", "v2", "tv2"}
    assert obj["vplus"] == 15.0
    code, out2, _ = run(capsys, "canonical-from", json.dumps(obj))
    assert code == 0
    back = json.loads(out2)
    assert max(abs(a - b) for a, b in zip(back, [1, 2, 3, 4, 5])) <= 1e-12


def test_polar_undefined_angles_serialize_as_null(capsys):
    code, out, _ = run(capsys, "polar", "[0.2,0.2,0.2,0.2,0.2]")
    assert code == 0
    obj = json.loads(out)
    assert obj["phi1"] is None and obj["phi2"] is None
    assert "rho1" in obj["undefined"]["phi1"]


def test_exp_log_roundtrip(capsys):
    u = [1.5, 0.2, -0.1, 0.3, 0.1]
    code, out, _ = run(capsys, "log", json.dumps(u))
    assert code == 0
    code, out2, _ = run(capsys, "exp", out.strip())
    assert code == 0
    back = json.loads(out2)
    assert max(abs(a - b) for a, b in zip(back, u)) <= 1e-10


def test_log_domain_error(capsys):
    code, _, err = run(capsys, "log", "[-1,0,0,0,0]")
    assert code == 2
    assert json.loads(err)["error"] == "LogDomain"


def test_pow_and_trig(capsys):
    code, out, _ = run(capsys, "pow", "5", "[0,1,0,0,0]")
    assert code == 0
    got = json.loads(out)
    assert max(abs(a - b) for a, b in zip(got, [1, 0, 0, 0, 0])) <= 1e-13
    code, out, _ = run(capsys, "trig", "--fn", "cos", "[0,0,0,0,0]")
    assert code == 0
    got = json.loads(out)
    assert max(abs(a - b) for a, b in zip(got, [1, 0, 0, 0, 0])) <= 1e-15


def test_cosexp_table_contents(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    code, _, _ = run(capsys, "cosexp-table", "--from", "-1", "--to", "1",
                     "--step", "0.5", "-o", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "y,g50,g51,g52,g53,g54"
    assert len(lines) == 6
    middle = lines[3].split(",")
    assert float(middle[0]) == 0.0
    row0 = [float(x) for x in middle[1:]]
    # the series gives the values at 0 exactly
    assert row0 == [1.0, 0.0, 0.0, 0.0, 0.0]
    # every emitted value re-reads to the bit-exact in-process value
    for line in lines[1:]:
        fields = [float(x) for x in line.split(",")]
        assert tuple(fields[1:]) == cosexp_values(fields[0]).g


def test_check_analytic(capsys):
    code, out, _ = run(capsys, "check-analytic", "exp", "[0.1,0.2,0,0.05,-0.1]")
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = run(capsys, "check-analytic", "proj0", "[0.1,0.2,0,0.05,-0.1]")
    assert code == 0
    assert json.loads(out)["passed"] is False
    code, out, _ = run(capsys, "check-analytic", "square",
                       "[0.1,0.2,0,0.05,-0.1]", "--order", "2")
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, _, _ = run(capsys, "check-analytic", "nosuch", "[0,0,0,0,0]")
    assert code == 1


def test_integrate_closed_loop(tmp_path, capsys):
    from pentacomplex import PentaComplex, plane_circle

    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=64)
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps(loop.to_dict()))

    code, out, _ = run(capsys, "integrate", "--path", str(path_file), "--fn", "one",
                       "--samples", "512")
    assert code == 0
    val = json.loads(out)["integral"]
    assert max(abs(x) for x in val) <= 1e-12

    code, out, _ = run(capsys, "integrate", "--path", str(path_file), "--fn", "exp",
                       "--pole", json.dumps(u0.to_list()), "--samples", "4096")
    assert code == 0
    obj = json.loads(out)
    assert obj["windings"] == [1, 0]
    assert max(abs(a - b) for a, b in zip(obj["lhs"], obj["rhs"])) <= 1e-5


def test_integrate_pole_windings_use_the_tolerance(tmp_path, capsys):
    from pentacomplex import ZERO, plane_circle
    from pentacomplex.canonical import E2, E_PLUS

    loop = plane_circle(ZERO, 1, 1.0, vertices=8)
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps(loop.to_dict()))
    # the midpoint of edge 0 moved 1e-10 towards the centre in plane 1: the
    # plane-1 apothem of the loop is sqrt(2/5)*cos(pi/8)
    mid = 0.5 * (loop.vertices[0] + loop.vertices[1]) - 0.75 * (E_PLUS + E2)
    pole = (1.0 - 1e-10 / (math.sqrt(0.4) * math.cos(math.pi / 8))) * mid
    argv = ("integrate", "--path", str(path_file), "--fn", "exp",
            "--pole", json.dumps(pole.to_list()), "--samples", "64")
    code, _, err = run(capsys, *argv)
    assert code == 2  # within the default 1e-9 of the edge
    assert json.loads(err)["error"] == "PoleOnPath"
    code, out, _ = run(capsys, *argv, "--tol", "1e-12")
    assert code == 0
    assert json.loads(out)["windings"] == [1, 0]


def test_integrate_pole_winds_each_plane_once(tmp_path, capsys, monkeypatch):
    # the windings reported are the two residue_formula took, not a second
    # projection and winding of both planes
    from pentacomplex import PentaComplex, contour, plane_circle

    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps(plane_circle(u0, 2, 1.0, vertices=32).to_dict()))
    calls = []
    wind = contour.winding
    monkeypatch.setattr(contour, "winding", lambda *a, **k: calls.append(a) or wind(*a, **k))
    code, out, _ = run(capsys, "integrate", "--path", str(path_file), "--fn", "exp",
                       "--pole", json.dumps(u0.to_list()), "--samples", "256")
    assert code == 0
    assert len(calls) == 2
    assert json.loads(out)["windings"] == [0, 1]


def test_integrate_pole_default_tolerance_scales_with_the_loop(tmp_path, capsys):
    from pentacomplex import PentaComplex, plane_circle

    u0 = 1e-12 * PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps(plane_circle(u0, 1, 1e-12, vertices=64).to_dict()))
    code, out, _ = run(capsys, "integrate", "--path", str(path_file), "--fn", "one",
                       "--pole", json.dumps(u0.to_list()), "--samples", "64")
    assert code == 0
    obj = json.loads(out)
    assert obj["windings"] == [1, 0]
    assert max(abs(a - b) for a, b in zip(obj["lhs"], obj["rhs"])) <= 1e-13


def test_integrate_pole_on_path_is_domain_error(tmp_path, capsys):
    from pentacomplex import PentaComplex, plane_circle
    from pentacomplex.canonical import E1

    u0 = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
    loop = plane_circle(u0, 1, 1.0, 0.8, 0.7, vertices=64)
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps(loop.to_dict()))
    pole = u0 + 1.0 * E1
    code, _, err = run(capsys, "integrate", "--path", str(path_file), "--fn", "one",
                       "--pole", json.dumps(pole.to_list()))
    assert code == 2
    assert json.loads(err)["error"] == "PoleOnPath"


def test_integrate_overflow_on_the_path_is_domain_error(tmp_path, capsys):
    from pentacomplex import PentaComplex, plane_circle

    loop = plane_circle(PentaComplex(1.5e308, 0, 0, 0, 0), 1, 1.0, vertices=8)
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps(loop.to_dict()))
    code, out, err = run(capsys, "integrate", "--path", str(path_file), "--fn", "exp",
                         "--pole", "[-1e308,0,0,0,0]", "--samples", "8")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "Overflow"


def test_factor_command(tmp_path, capsys):
    poly_file = tmp_path / "poly.json"
    poly_file.write_text(json.dumps(
        {"coeffs": [[0, 0, 0, 0, 0], [-1, 0, 0, 0, 0]]}))
    code, out, _ = run(capsys, "factor", "-i", str(poly_file))
    assert code == 0
    obj = json.loads(out)
    assert obj["reconstruction_residual"] <= 1e-10
    kinds = sorted(f["type"] for f in obj["factors"])
    assert kinds == ["linear", "linear"]
    roots = sorted(round(f["root"][0], 6) for f in obj["factors"])
    assert roots == [-1.0, 1.0]


def test_factor_command_line_roots_sharing_a_real_part(capsys):
    # u^4 + 5u^2 + 4 = (u^2 + 1)(u^2 + 4)
    poly = {"coeffs": [[0] * 5, [5, 0, 0, 0, 0], [0] * 5, [4, 0, 0, 0, 0]]}
    code, out, _ = run(capsys, "factor", json.dumps(poly))
    assert code == 0
    obj = json.loads(out)
    assert [f["type"] for f in obj["factors"]] == ["quadratic", "quadratic"]
    assert obj["reconstruction_residual"] <= 1e-14


def test_cosexp_table_overflow_exit_code(capsys):
    code, out, err = run(capsys, "cosexp-table", "--from", "800", "--to", "800",
                         "--step", "1")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "Overflow"


def test_json_output_round_trips_exactly(capsys):
    u = [0.1, 0.2, 0.3, 0.4, 0.5]
    v = [1e-17, 2.5, -3.125, 0.7, 1 / 3]
    code, out, _ = run(capsys, "mul", json.dumps(u), json.dumps(v))
    assert code == 0
    from pentacomplex import PentaComplex, multiply
    want = multiply(PentaComplex(*u), PentaComplex(*v))
    assert json.loads(out) == list(want.components)


def test_integer_beyond_the_float_range_is_usage_error(tmp_path, capsys):
    huge = "1" + "0" * 400
    code, out, err = run(capsys, "mul", f"[{huge},0,0,0,0]", "[1,0,0,0,0]")
    assert (code, out) == (1, "")
    assert "u component 0 is beyond the floating-point range" in err
    poly_file = tmp_path / "poly.json"
    poly_file.write_text(f'{{"coeffs": [[0,0,0,0,0], [1,0,0,{huge},0]]}}')
    code, out, err = run(capsys, "factor", "-i", str(poly_file))
    assert (code, out) == (1, "")
    assert "coefficient 1 component 3 is beyond the floating-point range" in err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_tolerance_must_be_finite_and_not_negative(capsys, tol):
    for argv in (("inv", "--tol", tol, "[0,0,0,0,0]"),
                 ("polar", "--tol", tol, "[0,0,0,0,0]")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert "--tol must be a finite number >= 0" in err


def test_zero_tolerance_is_accepted(capsys):
    code, out, _ = run(capsys, "inv", "--tol", "0", "[2,0,0,0,0]")
    assert code == 0
    assert max(abs(a - b) for a, b in zip(json.loads(out), [0.5, 0, 0, 0, 0])) <= 1e-15
    code, out, _ = run(capsys, "polar", "--tol", "0", "[1,0,0,0,0]")
    assert code == 0 and json.loads(out)["phi1"] == 0.0


ONE_ARG = "[1,0,0,0,0]"
# each command with valid operands, so the flag is the only fault
COMMANDS = {
    "mul": ("mul", ONE_ARG, ONE_ARG),
    "inv": ("inv", ONE_ARG),
    "canonical": ("canonical", ONE_ARG),
    "canonical-from": ("canonical-from", '{"vplus": 1, "v1": 1, "tv1": 0, "v2": 1, "tv2": 0}'),
    "polar": ("polar", ONE_ARG),
    "exp": ("exp", ONE_ARG),
    "log": ("log", ONE_ARG),
    "pow": ("pow", "2", ONE_ARG),
    "trig": ("trig", "--fn", "cos", ONE_ARG),
    "factor": ("factor", '{"coeffs": [[0,0,0,0,0], [-1,0,0,0,0]]}'),
}
REMOVED_FLAGS = [
    *((*COMMANDS[cmd], "--tol", "5") for cmd in ("mul", "canonical", "canonical-from",
                                                 "exp", "log", "pow", "trig", "factor")),
    *((*COMMANDS[cmd], "--pretty") for cmd in ("canonical", "polar", "factor")),
]


# the library call behind each command on one element, as COMMANDS runs it
ONE_OPERAND = {
    "inv": inverse,
    "canonical": lambda u: to_canonical(u).to_dict(),
    "polar": lambda u: polar_form(u).to_dict(),
    "exp": exp,
    "log": log,
    "pow": lambda u: pow_real(u, 2.0),
    "trig": cos,
}


@pytest.mark.parametrize("cmd", ONE_OPERAND)
def test_one_operand_command_prints_the_library_result(tmp_path, capsys, cmd):
    u = [1.5, 0.2, -0.1, 0.3, 0.1]
    argv = (*COMMANDS[cmd][:-1], json.dumps(u))
    want = ONE_OPERAND[cmd](PentaComplex(*u))
    code, out, err = run(capsys, *argv)
    if isinstance(want, dict):
        assert (code, out, err) == (0, json.dumps(want) + "\n", "")
    else:
        assert (code, out, err) == (0, json.dumps(want.to_list()) + "\n", "")
        assert run(capsys, *argv, "--pretty") == (0, str(want) + "\n", "")
    # an --input payload holding the operand under "u" prints the same
    payload = tmp_path / "u.json"
    payload.write_text(json.dumps({"u": u}))
    assert run(capsys, *argv[:-1], "--input", str(payload)) == (0, out, "")


@pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=" ".join)
def test_flags_a_command_ignores_are_not_offered(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "unrecognized arguments" in err


def test_kept_flags_still_work(capsys):
    for cmd in ("mul", "canonical-from", "exp", "log", "pow", "trig"):
        code, out, _ = run(capsys, *COMMANDS[cmd], "--pretty")
        assert code == 0, cmd
        assert " h1 + " in out and " h4\n" in out, (cmd, out)
    code, out, _ = run(capsys, "inv", "--tol", "1e-12", "--pretty", ONE_ARG)
    assert code == 0 and " h1 + " in out
    code, out, _ = run(capsys, "polar", "--tol", "1e-12", ONE_ARG)
    assert code == 0 and json.loads(out)["d"] == 1.0


def test_tol_flag_is_the_only_tolerance_override(capsys, monkeypatch):
    code, _, err = run(capsys, "inv", "--tol", "10", ONE_ARG)
    assert code == 2  # everything is a divisor of zero at tolerance 10
    assert json.loads(err)["error"] == "NonInvertible"
    monkeypatch.setenv("PENTA_TOL", "10")  # no longer read
    code, out, _ = run(capsys, "inv", ONE_ARG)
    assert code == 0
    assert max(abs(a - b) for a, b in zip(json.loads(out), [1, 0, 0, 0, 0])) <= 1e-15


HUGE = "1" + "0" * 400
CANON = '{{"vplus": {}, "v1": 1, "tv1": 0, "v2": 1, "tv2": 0}}'
# input that once died with a traceback, or was taken for something else
MALFORMED = {
    "cosexp-table --to inf": ("cosexp-table", "--to", "inf"),
    "check-analytic --step nan": ("check-analytic", "exp", "[0,0,0,0,0]", "--step", "nan"),
    "check-analytic --step 0": ("check-analytic", "exp", "[0,0,0,0,0]", "--step", "0"),
    "pow nan": ("pow", "nan", "[2,0.1,0,0,0]"),
    "pow inf": ("pow", "inf", "[2,0.1,0,0,0]"),
    "mul -o unwritable": ("mul", ONE_ARG, ONE_ARG, "-o", "{tmp}/missing/x.json"),
    "integrate vertices 5": ("integrate", "--path", "{tmp}/vertices.json", "--fn", "exp"),
    "integrate closed string": ("integrate", "--path", "{tmp}/closed.json", "--fn", "exp"),
    "factor coeffs 5": ("factor", '{"coeffs": 5}'),
    "canonical-from huge integer": ("canonical-from", CANON.format(HUGE)),
    "canonical-from string field": ("canonical-from", CANON.format('"1"')),
    "canonical-from boolean field": ("canonical-from", CANON.format("true")),
    "integrate --samples 0": ("integrate", "--path", "{tmp}/loop.json", "--fn", "exp",
                              "--samples", "0"),
    "integrate --samples -5": ("integrate", "--path", "{tmp}/loop.json", "--fn", "exp",
                               "--samples", "-5"),
    "cosexp-table count beyond the float range": ("cosexp-table", "--from=-1e308",
                                                  "--to", "1e308"),
    "cosexp-table too many rows": ("cosexp-table", "--to", "1e300"),
    "check-analytic --order 2 --step 1e-200": ("check-analytic", "exp",
                                               "[0.1,0.2,0,0.05,-0.1]", "--order", "2",
                                               "--step", "1e-200"),
    "inv --input directory": ("inv", "--input", "{tmp}"),
    "mul --input list": ("mul", "--input", "{tmp}/list.json"),
    "inv NaN": ("inv", "[NaN,0,0,0,0]"),
    "inv Infinity": ("inv", "[Infinity,0,0,0,0]"),
    "cosexp-table --to below --from": ("cosexp-table", "--from", "1", "--to", "0"),
    "integrate repeated vertex": ("integrate", "--path", "{tmp}/repeated.json", "--fn", "exp"),
    "factor no coeffs": ("factor", '{"coeffs": []}'),
    "integrate --samples beyond the cap": ("integrate", "--path", "{tmp}/octagon.json",
                                           "--fn", "exp", "--samples", "1000000000000"),
}
# the message of a case, where the test pins it
MESSAGES = {
    "inv --input directory": "cannot read input ",
    "mul --input list": 'input payload must be {"u": [...], "v": [...]}',
    "inv NaN": "u component 0 must be finite, got nan",
    "inv Infinity": "u component 0 must be finite, got inf",
    "cosexp-table --to below --from": "--to must not be below --from",
    "integrate closed string": "penta: error: closed must be true or false, got 'no'",
    "integrate repeated vertex": "consecutive path vertices must be distinct",
    "factor no coeffs": "polynomial needs at least one coefficient (degree >= 1)",
    "integrate --samples beyond the cap": "--samples must be at most 1048576, got 1000000000000",
}


@pytest.mark.parametrize("case,argv", MALFORMED.items(), ids=MALFORMED.keys())
def test_malformed_input_is_a_one_line_usage_error(tmp_path, capsys, case, argv):
    triangle = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]]
    (tmp_path / "vertices.json").write_text('{"vertices": 5}')
    (tmp_path / "closed.json").write_text(json.dumps({"vertices": triangle, "closed": "no"}))
    (tmp_path / "loop.json").write_text(json.dumps({"vertices": triangle, "closed": True}))
    (tmp_path / "list.json").write_text(json.dumps([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]))
    (tmp_path / "repeated.json").write_text(json.dumps({"vertices": triangle[:2] + triangle[1:]}))
    (tmp_path / "octagon.json").write_text(json.dumps(plane_circle(ZERO, 1, 1.0, vertices=8)
                                                      .to_dict()))
    code, out, err = run(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert (code, out) == (1, "")
    assert err.count("error:") == 1 and "Traceback" not in err
    assert MESSAGES.get(case, "") in err
    assert not (tmp_path / "missing").exists()


def test_option_domains_name_the_option(capsys):
    # not libm's "math domain error"
    code, _, err = run(capsys, "pow", "inf", "[2,0.1,0,0,0]")
    assert code == 1 and "exponent must be a finite number, got 'inf'" in err
    code, _, err = run(capsys, "cosexp-table", "--from", "nan")
    assert code == 1 and "--from must be a finite number, got 'nan'" in err
    code, _, err = run(capsys, "cosexp-table", "--step", "-0.1")
    assert code == 1 and "--step must be a finite number > 0, got '-0.1'" in err
    code, _, err = run(capsys, "integrate", "--path", "p.json", "--fn", "exp",
                       "--samples", "1.5")
    assert code == 1 and "--samples must be an integer >= 1, got '1.5'" in err


def test_path_file_from_stdin_and_closed_default(capsys, monkeypatch):
    square = {"vertices": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                           [-1, 0, 0, 0, 0], [0, -1, 0, 0, 0]]}
    outs = []
    for closed in ({}, {"closed": False}, {"closed": True}):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({**square, **closed})))
        code, out, _ = run(capsys, "integrate", "--path", "-", "--fn", "one", "--samples", "4")
        assert code == 0
        outs.append(json.loads(out)["integral"])
    # the open path runs from the first vertex to the last; the closed one returns
    assert outs[0] == outs[1]
    assert max(abs(x - y) for x, y in zip(outs[0], [-1, -1, 0, 0, 0])) <= 1e-15
    assert max(abs(x) for x in outs[2]) <= 1e-15


def test_table_row_limit(capsys):
    from pentacomplex.cli import _TABLE_ROWS

    code, out, _ = run(capsys, "cosexp-table", "--from", "0", "--to", str(_TABLE_ROWS - 1),
                       "--step", "1")
    assert code == 2 and out == ""  # allowed: rows are computed until g5k overflows
    code, out, err = run(capsys, "cosexp-table", "--from", "0", "--to", str(_TABLE_ROWS),
                         "--step", "1")
    assert (code, out) == (1, "") and f"more than {_TABLE_ROWS} rows" in err


def test_negative_numbers_in_exponent_form_are_values(capsys):
    # argparse's own pattern would take -1e-3 for an option
    code, out, _ = run(capsys, "cosexp-table", "--from", "-1e-3", "--to", "1E-3",
                       "--step", "1e-3")
    assert code == 0 and [r.split(",")[0] for r in out.split()] == ["y", "-0.001", "0", "0.001"]
    for exponent in ("-1e-3", "-2.5E+1", "-.5e0", "-3."):
        code, out, _ = run(capsys, "pow", exponent, "[2,0.1,0,0,0]")
        # the same exponent in a form argparse's own pattern accepts
        _, want, _ = run(capsys, "pow", str(float(exponent)), "[2,0.1,0,0,0]")
        assert code == 0 and out == want, exponent
    # a word that only starts like a number is still an unknown option
    code, out, _ = run(capsys, "pow", "-1e", "[2,0.1,0,0,0]")
    assert (code, out) == (1, "")
