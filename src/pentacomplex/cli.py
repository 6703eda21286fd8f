"""Command-line front-end: JSON in, JSON (or CSV) out.

Numbers travel as JSON arrays of five reals [x0, x1, x2, x3, x4].  Exit
codes: 0 success, 1 usage/validation error, 2 domain error (non-invertible
element, logarithm domain, pole on path, ...).  The PENTA_TOL environment
variable (or --tol) overrides the default tolerance where a command takes
one (inv, polar, check-analytic and integrate); it must be a finite number
>= 0.

Only the commands that use them load analytic, contour, cosexp, polyfactor
and selftest, so the elementwise commands start without numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import elementary
from .algebra import PentaComplex, inverse, multiply
from .canonical import CanonicalForm, from_canonical, to_canonical
from .errors import PentaError
from .geometry import polar_form

USAGE_EXIT = 1
DOMAIN_EXIT = 2


class UsageError(Exception):
    pass


def _read_payload(args) -> object:
    if args.input is None:
        return None
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.input}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in input: {exc}") from exc


def _parse_penta(obj, what: str = "number") -> PentaComplex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 5:
        raise UsageError(f"{what} must be a JSON array of 5 numbers, got {obj!r}")
    for i, x in enumerate(obj):
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise UsageError(f"{what} components must be numbers, got {x!r}")
        try:
            if not math.isfinite(x):
                raise UsageError(f"{what} components must be finite, got {x!r}")
        except OverflowError:  # an integer beyond the float range
            raise UsageError(f"{what} component {i} is beyond the floating-point range") from None
    return PentaComplex(*obj)


def _parse_penta_arg(text: str, what: str = "number") -> PentaComplex:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what}: invalid JSON {text!r}: {exc}") from exc
    return _parse_penta(obj, what)


def _emit(args, payload: str):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
            if not payload.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(args, obj):
    _emit(args, json.dumps(obj))


def _emit_penta(args, p: PentaComplex):
    if args.pretty:
        _emit(args, str(p))
    else:
        _emit_json(args, p.to_list())


BUILTIN_FUNCTIONS = {
    "one": lambda u: PentaComplex.scalar(1.0),
    "identity": lambda u: u,
    "square": lambda u: multiply(u, u),
    "cube": lambda u: multiply(u, multiply(u, u)),
    **{f.__name__: f for f in elementary._LIFTED},
    # non-analytic component projection, useful as a failing example
    "proj0": lambda u: PentaComplex(u.x0, 0.0, 0.0, 0.0, 0.0),
}


def _builtin(name: str):
    if name not in BUILTIN_FUNCTIONS:
        raise UsageError(f"unknown function {name!r}; choose from "
                         f"{sorted(BUILTIN_FUNCTIONS)}")
    return BUILTIN_FUNCTIONS[name]


def _two_operands(args) -> tuple[PentaComplex, PentaComplex]:
    payload = _read_payload(args)
    if payload is not None:
        if not isinstance(payload, dict) or "u" not in payload or "v" not in payload:
            raise UsageError('input payload must be {"u": [...], "v": [...]}')
        return _parse_penta(payload["u"], "u"), _parse_penta(payload["v"], "v")
    if len(args.operands) != 2:
        raise UsageError("need two operands (or --input with u and v)")
    return (_parse_penta_arg(args.operands[0], "u"),
            _parse_penta_arg(args.operands[1], "v"))


def _one_operand(args) -> PentaComplex:
    payload = _read_payload(args)
    if payload is not None:
        if isinstance(payload, dict) and "u" in payload:
            return _parse_penta(payload["u"], "u")
        return _parse_penta(payload, "u")
    if len(args.operands) != 1:
        raise UsageError("need one operand (or --input)")
    return _parse_penta_arg(args.operands[0], "u")


def _tol(args) -> float | None:
    tol, source = args.tol, "--tol"
    env = os.environ.get("PENTA_TOL")
    if tol is None and env:
        try:
            tol, source = float(env), "PENTA_TOL"
        except ValueError as exc:
            raise UsageError(f"PENTA_TOL is not a number: {env!r}") from exc
    # nan or a negative tolerance would switch the divisor-of-zero guard off
    if tol is not None and not (math.isfinite(tol) and tol >= 0.0):
        raise UsageError(f"{source} must be a finite number >= 0, got {tol!r}")
    return tol


def _cmd_mul(args):
    u, v = _two_operands(args)
    _emit_penta(args, multiply(u, v))


def _cmd_inv(args):
    u = _one_operand(args)
    tol = _tol(args)
    _emit_penta(args, inverse(u, tol) if tol is not None else inverse(u))


def _cmd_canonical(args):
    u = _one_operand(args)
    _emit_json(args, to_canonical(u).to_dict())


def _cmd_canonical_from(args):
    payload = _read_payload(args)
    if payload is None:
        if len(args.operands) != 1:
            raise UsageError("need one canonical JSON object")
        try:
            payload = json.loads(args.operands[0])
        except json.JSONDecodeError as exc:
            raise UsageError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise UsageError("canonical input must be a JSON object")
    try:
        cf = CanonicalForm.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"canonical object needs vplus, v1, tv1, v2, tv2: {exc}") from exc
    _emit_penta(args, from_canonical(cf))


def _cmd_polar(args):
    u = _one_operand(args)
    tol = _tol(args)
    pf = polar_form(u, tol) if tol is not None else polar_form(u)
    _emit_json(args, pf.to_dict())


def _cmd_exp(args):
    _emit_penta(args, elementary.exp(_one_operand(args)))


def _cmd_log(args):
    _emit_penta(args, elementary.log(_one_operand(args)))


def _cmd_pow(args):
    u = _one_operand(args)
    _emit_penta(args, elementary.pow_real(u, args.exponent))


def _cmd_trig(args):
    _emit_penta(args, BUILTIN_FUNCTIONS[args.fn](_one_operand(args)))


def _cmd_cosexp_table(args):
    from . import cosexp

    if args.step <= 0:
        raise UsageError(f"--step must be positive, got {args.step}")
    if args.stop < args.start:
        raise UsageError("--to must not be below --from")
    lines = ["y,g50,g51,g52,g53,g54"]
    n = int(math.floor((args.stop - args.start) / args.step + 1e-9)) + 1
    for i in range(n):
        y = args.start + i * args.step
        row = cosexp.cosexp_values(y)
        lines.append(",".join(format(x, ".17g") for x in (y, *row.g)))
    _emit(args, "\n".join(lines) + "\n")


def _cmd_check_analytic(args):
    from . import analytic

    f = _builtin(args.fn)
    point = _parse_penta_arg(args.point, "point")
    kwargs = {}
    if args.step is not None:
        kwargs["step"] = args.step
    tol = _tol(args)
    if tol is not None:
        kwargs["tol"] = tol
    if args.order == 2:
        report = analytic.check_second_order(f, point, **kwargs)
    else:
        report = analytic.check_cr_relations(f, point, **kwargs)
    _emit_json(args, report.to_dict())


def _cmd_integrate(args):
    from . import contour

    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read path file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"path file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "vertices" not in data:
        raise UsageError('path file must be {"vertices": [[5 reals], ...], "closed": bool}')
    verts = [_parse_penta(v, f"vertex {i}") for i, v in enumerate(data["vertices"])]
    try:
        path = contour.Path(tuple(verts), bool(data.get("closed", False)))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    f = _builtin(args.fn)
    if args.pole is not None:
        pole = _parse_penta_arg(args.pole, "pole")
        tol = _tol(args)
        lhs, rhs = contour.residue_formula(f, path, pole, samples=args.samples,
                                           tol_edge=tol)
        n1, n2 = (contour.winding(contour.project_point(pole, k), contour.project(path, k),
                                  tol=tol) for k in (1, 2))
        _emit_json(args, {"lhs": lhs.to_list(), "rhs": rhs.to_list(),
                          "windings": [n1, n2]})
    else:
        per_segment = max(1, round(args.samples / len(path.segments())))
        value = contour.integrate(f, path, per_segment)
        _emit_json(args, {"integral": value.to_list()})


def _cmd_factor(args):
    from . import polyfactor

    payload = _read_payload(args)
    if payload is None:
        if len(args.operands) != 1:
            raise UsageError('need a JSON {"coeffs": [[5 reals], ...]} payload')
        try:
            payload = json.loads(args.operands[0])
        except json.JSONDecodeError as exc:
            raise UsageError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "coeffs" not in payload:
        raise UsageError('polynomial payload must be {"coeffs": [[5 reals], ...]}')
    coeffs = [_parse_penta(a, f"coefficient {i}") for i, a in enumerate(payload["coeffs"])]
    if not coeffs:
        raise UsageError("polynomial needs at least one coefficient (degree >= 1)")
    poly = polyfactor.PentaPolynomial(tuple(coeffs))
    factors = polyfactor.factor(poly)
    rebuilt = polyfactor.expand_factors(factors)
    residual = max(max(abs(x - y) for x, y in zip(a, b))
                   for a, b in zip(poly.coeffs, rebuilt.coeffs))
    out = []
    for f in factors:
        if isinstance(f, polyfactor.LinearFactor):
            out.append({"type": "linear", "root": f.root.to_list()})
        else:
            out.append({"type": "quadratic", "b": f.b.to_list(), "c": f.c.to_list()})
    _emit_json(args, {"factors": out, "reconstruction_residual": residual})


def _cmd_selftest(args):
    from . import selftest

    results = selftest.run_all()
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    total = sum(r.checks for r in results)
    print(f"{len(results) - len(failed)}/{len(results)} suites passed "
          f"({total} checks, {sum(r.seconds for r in results):.2f}s)")
    return 0 if not failed else 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 by default; usage errors are exit 1 here
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _add_io(sp, operands=0, meta="JSON", tol=False, pretty=False):
    """--input and --output, and --tol and --pretty where the command uses them."""
    if operands:
        sp.add_argument("operands", nargs="*", metavar=meta,
                        help="inline JSON operand(s)")
    sp.add_argument("--input", "-i", help="JSON payload file, or - for stdin")
    sp.add_argument("--output", "-o", help="write result here instead of stdout")
    if tol:
        sp.add_argument("--tol", type=float,
                        help="tolerance override, finite and >= 0 (also PENTA_TOL)")
    if pretty:
        sp.add_argument("--pretty", action="store_true",
                        help="the number as text (x0 + x1 h1 + ...) instead of JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="penta",
                     description="Arithmetic and analysis for 5-dimensional "
                                 "polar complex numbers")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("mul", help="ring product of two numbers")
    _add_io(sp, operands=2, pretty=True)
    sp.set_defaults(fn_impl=_cmd_mul)

    sp = sub.add_parser("inv", help="multiplicative inverse")
    _add_io(sp, operands=1, tol=True, pretty=True)
    sp.set_defaults(fn_impl=_cmd_inv)

    sp = sub.add_parser("canonical", help="canonical variables of a number")
    _add_io(sp, operands=1)
    sp.set_defaults(fn_impl=_cmd_canonical)

    sp = sub.add_parser("canonical-from", help="number from canonical variables")
    _add_io(sp, operands=1, pretty=True)
    sp.set_defaults(fn_impl=_cmd_canonical_from)

    sp = sub.add_parser("polar", help="modulus, amplitude, radii and angles")
    _add_io(sp, operands=1, tol=True)
    sp.set_defaults(fn_impl=_cmd_polar)

    sp = sub.add_parser("exp", help="exponential")
    _add_io(sp, operands=1, pretty=True)
    sp.set_defaults(fn_impl=_cmd_exp)

    sp = sub.add_parser("log", help="principal logarithm")
    _add_io(sp, operands=1, pretty=True)
    sp.set_defaults(fn_impl=_cmd_log)

    sp = sub.add_parser("pow", help="real power")
    sp.add_argument("exponent", type=float)
    _add_io(sp, operands=1, pretty=True)
    sp.set_defaults(fn_impl=_cmd_pow)

    sp = sub.add_parser("trig", help="trigonometric/hyperbolic function")
    sp.add_argument("--fn", choices=["cos", "sin", "cosh", "sinh"], required=True)
    _add_io(sp, operands=1, pretty=True)
    sp.set_defaults(fn_impl=_cmd_trig)

    sp = sub.add_parser("cosexp-table",
                        help="CSV table of the five cosexponential functions")
    sp.add_argument("--from", dest="start", type=float, default=-4.0)
    sp.add_argument("--to", dest="stop", type=float, default=4.0)
    sp.add_argument("--step", type=float, default=0.05)
    sp.add_argument("--output", "-o")
    sp.set_defaults(fn_impl=_cmd_cosexp_table, input=None)

    sp = sub.add_parser("check-analytic",
                        help="derivative-relation report for a builtin function")
    sp.add_argument("fn", help=f"one of {sorted(BUILTIN_FUNCTIONS)}")
    sp.add_argument("point", help="JSON array of 5 reals")
    sp.add_argument("--order", type=int, choices=[1, 2], default=1)
    sp.add_argument("--step", type=float)
    sp.add_argument("--output", "-o")
    sp.add_argument("--tol", type=float)
    sp.set_defaults(fn_impl=_cmd_check_analytic, input=None)

    sp = sub.add_parser("integrate", help="path integral, optionally with a pole")
    sp.add_argument("--path", required=True, help="JSON path file")
    sp.add_argument("--fn", required=True, help=f"one of {sorted(BUILTIN_FUNCTIONS)}")
    sp.add_argument("--pole", help="JSON array of 5 reals")
    sp.add_argument("--samples", type=int, default=4096,
                    help="total quadrature node budget, spread evenly over the "
                         "segments (composite Gauss-Legendre); with --pole the "
                         "term f(pole)/(u-pole) is integrated exactly and the "
                         "nodes see only the smooth remainder")
    sp.add_argument("--output", "-o")
    sp.add_argument("--tol", type=float)
    sp.set_defaults(fn_impl=_cmd_integrate, input=None)

    sp = sub.add_parser("factor", help="factor a monic polynomial")
    _add_io(sp, operands=1)
    sp.set_defaults(fn_impl=_cmd_factor)

    sp = sub.add_parser("selftest", help="run every identity suite")
    sp.set_defaults(fn_impl=_cmd_selftest, input=None, output=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        result = args.fn_impl(args)
        return result if isinstance(result, int) else 0
    except UsageError as exc:
        sys.stderr.write(f"penta: error: {exc}\n")
        return USAGE_EXIT
    except PentaError as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return DOMAIN_EXIT
    except ValueError as exc:
        sys.stderr.write(f"penta: error: {exc}\n")
        return USAGE_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
