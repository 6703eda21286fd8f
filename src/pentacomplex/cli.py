"""Command-line front-end: JSON in, JSON (or CSV) out.

Numbers travel as JSON arrays of five reals [x0, x1, x2, x3, x4].  Exit
codes: 0 success, 1 usage/validation error, 2 domain error (non-invertible
element, logarithm domain, pole on path, ...).  Every command reads its
JSON through one reader and writes through one emitter, and the parser
checks each numeric option's domain.  --tol overrides the default tolerance
where a command takes one (inv, polar, check-analytic and integrate); it
must be a finite number >= 0.

Only the commands that use them load analytic, contour, cosexp, polyfactor
and selftest, so the elementwise commands start without numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import fields

from . import elementary
from .algebra import PentaComplex, inverse, multiply
from .canonical import CanonicalForm, from_canonical, to_canonical
from .errors import PentaError
from .geometry import polar_form

USAGE_EXIT = 1
DOMAIN_EXIT = 2
# the most rows cosexp-table writes
_TABLE_ROWS = 100_000


class UsageError(Exception):
    pass


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, too deep
        raise UsageError(f"{what} is not valid JSON: {exc}") from None


def _read_json(path: str, what: str):
    """The JSON document in the file at `path`, or on stdin for -."""
    if path == "-":
        return _parse_json(sys.stdin.read(), what)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeError) as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    return _parse_json(text, what)


def _operands(args, count: int, usage: str):
    """The JSON document of --input, or else the `count` inline operands:
    the one operand, or a list of them."""
    if args.input is not None:
        return _read_json(args.input, "input")
    if len(args.operands) != count:
        raise UsageError(usage)
    docs = [_parse_json(text, "operand") for text in args.operands]
    return docs[0] if count == 1 else docs


def _fields(doc, keys: tuple, shape: str) -> list:
    """The values of `keys` in the JSON object `doc`; else a usage error
    naming the expected `shape`."""
    if not isinstance(doc, dict) or any(k not in doc for k in keys):
        raise UsageError(shape)
    return [doc[k] for k in keys]


def _real(x, what: str) -> float:
    """A JSON number as a finite float; anything else is a usage error."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise UsageError(f"{what} must be a number, got {x!r}")
    try:
        x = float(x)
    except OverflowError:  # an integer beyond the float range
        raise UsageError(f"{what} is beyond the floating-point range") from None
    if not math.isfinite(x):
        raise UsageError(f"{what} must be finite, got {x!r}")
    return x


def _penta(obj, what: str) -> PentaComplex:
    if not isinstance(obj, list) or len(obj) != 5:
        raise UsageError(f"{what} must be a JSON array of 5 numbers, got {obj!r}")
    return PentaComplex(*(_real(x, f"{what} component {i}") for i, x in enumerate(obj)))


def _emit(args, text: str):
    """text and a newline, to --output or else to stdout."""
    if args.output is None:
        sys.stdout.write(text + "\n")
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {args.output}: {exc}") from exc


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


def _one_operand(args) -> PentaComplex:
    doc = _operands(args, 1, "need one operand (or --input)")
    if args.input is not None and isinstance(doc, dict) and "u" in doc:
        doc = doc["u"]
    return _penta(doc, "u")


def _cmd_mul(args):
    doc = _operands(args, 2, "need two operands (or --input with u and v)")
    if args.input is not None:
        doc = _fields(doc, ("u", "v"), 'input payload must be {"u": [...], "v": [...]}')
    _emit_penta(args, multiply(_penta(doc[0], "u"), _penta(doc[1], "v")))


def _cmd_inv(args):
    _emit_penta(args, inverse(_one_operand(args), args.tol))


def _cmd_canonical(args):
    _emit_json(args, to_canonical(_one_operand(args)).to_dict())


_CANON_KEYS = tuple(f.name for f in fields(CanonicalForm))


def _cmd_canonical_from(args):
    doc = _operands(args, 1, "need one canonical JSON object")
    values = _fields(doc, _CANON_KEYS, "canonical input must be a JSON object "
                                       "with vplus, v1, tv1, v2 and tv2")
    cf = CanonicalForm(*(_real(x, k) for k, x in zip(_CANON_KEYS, values)))
    _emit_penta(args, from_canonical(cf))


def _cmd_polar(args):
    _emit_json(args, polar_form(_one_operand(args), args.tol).to_dict())


def _cmd_exp(args):
    _emit_penta(args, elementary.exp(_one_operand(args)))


def _cmd_log(args):
    _emit_penta(args, elementary.log(_one_operand(args)))


def _cmd_pow(args):
    _emit_penta(args, elementary.pow_real(_one_operand(args), args.exponent))


def _cmd_trig(args):
    _emit_penta(args, BUILTIN_FUNCTIONS[args.fn](_one_operand(args)))


def _cmd_cosexp_table(args):
    from . import cosexp

    if args.stop < args.start:
        raise UsageError("--to must not be below --from")
    rows = (args.stop - args.start) / args.step + 1e-9
    if not rows < _TABLE_ROWS:  # also a count beyond the float range
        raise UsageError(f"the table would have more than {_TABLE_ROWS} rows; "
                         "narrow --from/--to or widen --step")
    lines = ["y,g50,g51,g52,g53,g54"]
    n = int(math.floor(rows)) + 1
    for i in range(n):
        y = args.start + i * args.step
        row = cosexp.cosexp_values(y)
        lines.append(",".join(format(x, ".17g") for x in (y, *row.g)))
    _emit(args, "\n".join(lines))


def _cmd_check_analytic(args):
    from . import analytic

    f = _builtin(args.fn)
    point = _penta(_parse_json(args.point, "point"), "point")
    check = analytic.check_second_order if args.order == 2 else analytic.check_cr_relations
    # an option left out keeps the check's own default
    kwargs = {k: v for k, v in (("step", args.step), ("tol", args.tol)) if v is not None}
    _emit_json(args, check(f, point, **kwargs).to_dict())


_PATH_SHAPE = 'path file must be {"vertices": [[5 reals], ...], "closed": true or false}'


def _cmd_integrate(args):
    from . import contour

    data = _read_json(args.path, "path file")
    (verts,) = _fields(data, ("vertices",), _PATH_SHAPE)
    closed = data.get("closed", False)
    if not isinstance(verts, list) or not isinstance(closed, bool):
        raise UsageError(_PATH_SHAPE)
    try:
        path = contour.Path(tuple(_penta(v, f"vertex {i}") for i, v in enumerate(verts)),
                            closed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    f = _builtin(args.fn)
    if args.pole is not None:
        pole = _penta(_parse_json(args.pole, "pole"), "pole")
        lhs, rhs, windings = contour._pole_identity(f, path, pole, args.samples, args.tol)
        _emit_json(args, {"lhs": lhs.to_list(), "rhs": rhs.to_list(),
                          "windings": list(windings)})
    else:
        value = contour.integrate(f, path, contour._nodes_per_segment(args.samples, path))
        _emit_json(args, {"integral": value.to_list()})


_POLY_SHAPE = 'polynomial payload must be {"coeffs": [[5 reals], ...]}'


def _cmd_factor(args):
    from . import polyfactor

    doc = _operands(args, 1, 'need a JSON {"coeffs": [[5 reals], ...]} payload')
    (coeffs,) = _fields(doc, ("coeffs",), _POLY_SHAPE)
    if not isinstance(coeffs, list):
        raise UsageError(_POLY_SHAPE)
    if not coeffs:
        raise UsageError("polynomial needs at least one coefficient (degree >= 1)")
    poly = polyfactor.PentaPolynomial(tuple(_penta(a, f"coefficient {i}")
                                            for i, a in enumerate(coeffs)))
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
    failed = [r for r in results if not r.passed]
    total = sum(r.checks for r in results)
    _emit(args, "\n".join([*(r.line() for r in results),
                           f"{len(results) - len(failed)}/{len(results)} suites passed "
                           f"({total} checks, {sum(r.seconds for r in results):.2f}s)"]))
    return 0 if not failed else 1


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's negative-number pattern (a private attribute of CPython's
        # argparse) admits no exponent in 3.10 and 3.11, so it would read -1e-3
        # as an option; it is replaced only where it exists and lacks one
        matcher = getattr(self, "_negative_number_matcher", None)
        if matcher is not None and not matcher.match("-1e-3"):
            self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        # argparse exits 2 by default; usage errors are exit 1 here
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)


# the domains of the numeric options: (description, test, conversion)
_FINITE = ("a finite number", math.isfinite, float)
_POSITIVE = ("a finite number > 0", lambda x: 0.0 < x < math.inf, float)
_COUNT = ("an integer >= 1", lambda n: n >= 1, int)
_TOLERANCE = ("a finite number >= 0", lambda x: 0.0 <= x < math.inf, float)


def _option(sp, name: str, domain: tuple, **kwargs):
    """Add option `name`, whose value the parser checks against `domain`."""
    what, ok, convert = domain

    def check(text: str):
        try:
            x = convert(text)
            if ok(x):
                return x
        except ValueError:
            pass
        # argparse hands an ArgumentError to error() as it is; it would prefix
        # an ArgumentTypeError's message with "argument NAME:"
        raise argparse.ArgumentError(None, f"{name} must be {what}, got {text!r}")

    sp.add_argument(name, type=check, **kwargs)


def _add_io(sp, impl, operands=False, output=True, tol=False, pretty=False):
    """The command's handler and its shared options: inline operands with
    --input, --output, and --tol and --pretty where the command uses them."""
    sp.set_defaults(fn_impl=impl, output=None)
    if operands:
        sp.add_argument("operands", nargs="*", metavar="JSON",
                        help="inline JSON operand(s)")
        sp.add_argument("--input", "-i", help="JSON payload file, or - for stdin")
    if output:
        sp.add_argument("--output", "-o", help="write result here instead of stdout")
    if tol:
        _option(sp, "--tol", _TOLERANCE, help="tolerance override, finite and >= 0")
    if pretty:
        sp.add_argument("--pretty", action="store_true",
                        help="the number as text (x0 + x1 h1 + ...) instead of JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="penta",
                     description="Arithmetic and analysis for 5-dimensional "
                                 "polar complex numbers")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_io(sub.add_parser("mul", help="ring product of two numbers"), _cmd_mul,
            operands=True, pretty=True)
    _add_io(sub.add_parser("inv", help="multiplicative inverse"), _cmd_inv,
            operands=True, tol=True, pretty=True)
    _add_io(sub.add_parser("canonical", help="canonical variables of a number"),
            _cmd_canonical, operands=True)
    _add_io(sub.add_parser("canonical-from", help="number from canonical variables"),
            _cmd_canonical_from, operands=True, pretty=True)
    _add_io(sub.add_parser("polar", help="modulus, amplitude, radii and angles"),
            _cmd_polar, operands=True, tol=True)
    _add_io(sub.add_parser("exp", help="exponential"), _cmd_exp, operands=True, pretty=True)
    _add_io(sub.add_parser("log", help="principal logarithm"), _cmd_log,
            operands=True, pretty=True)

    sp = sub.add_parser("pow", help="real power")
    _option(sp, "exponent", _FINITE)
    _add_io(sp, _cmd_pow, operands=True, pretty=True)

    sp = sub.add_parser("trig", help="trigonometric/hyperbolic function")
    sp.add_argument("--fn", choices=[f.__name__ for f in elementary._LIFTED
                                     if f is not elementary.exp], required=True)
    _add_io(sp, _cmd_trig, operands=True, pretty=True)

    sp = sub.add_parser("cosexp-table",
                        help="CSV table of the five cosexponential functions")
    _option(sp, "--from", _FINITE, dest="start", default=-4.0)
    _option(sp, "--to", _FINITE, dest="stop", default=4.0)
    _option(sp, "--step", _POSITIVE, default=0.05)
    _add_io(sp, _cmd_cosexp_table)

    sp = sub.add_parser("check-analytic",
                        help="derivative-relation report for a builtin function")
    sp.add_argument("fn", help=f"one of {sorted(BUILTIN_FUNCTIONS)}")
    sp.add_argument("point", help="JSON array of 5 reals")
    sp.add_argument("--order", type=int, choices=[1, 2], default=1)
    _option(sp, "--step", _POSITIVE)
    _add_io(sp, _cmd_check_analytic, tol=True)

    sp = sub.add_parser("integrate", help="path integral, optionally with a pole")
    sp.add_argument("--path", required=True, help="JSON path file, or - for stdin")
    sp.add_argument("--fn", required=True, help=f"one of {sorted(BUILTIN_FUNCTIONS)}")
    sp.add_argument("--pole", help="JSON array of 5 reals")
    _option(sp, "--samples", _COUNT, default=4096,
            help="total quadrature node budget, spread evenly over the "
                 "segments (composite Gauss-Legendre); with --pole the "
                 "term f(pole)/(u-pole) is integrated exactly and the "
                 "nodes see only the smooth remainder")
    _add_io(sp, _cmd_integrate, tol=True)

    _add_io(sub.add_parser("factor", help="factor a monic polynomial"), _cmd_factor,
            operands=True)
    _add_io(sub.add_parser("selftest", help="run every identity suite"), _cmd_selftest,
            output=False)

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
