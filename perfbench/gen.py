"""Seeded inputs for the four workloads.

Every input is a plain Python value (floats, tuples, argv lists) made from
the seed alone, so the package only ever sees generated data.  Inputs come
in rounds with a fixed mix of properties, so that runs of different seeds
measure the same mix.  Each item carries the label of its expected outcome:
"in-domain", "extreme-scale" or "near-set" (near the divisor-of-zero set).
The true result of every item is representable, so any error raised on one
is a failure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import oracles

IN_DOMAIN = "in-domain"
EXTREME = "extreme-scale"
NEAR_SET = "near-set"


def _rng(seed: int, stream: str, index: int) -> random.Random:
    return random.Random(f"{seed}/{stream}/{index}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def canonical_element(rng, scale, weak_block=None, weak=1.0) -> tuple:
    """Components of an element with vplus > 0 and both plane radii in
    [0.3, 1] * scale; `weak_block` (0 line, 1 or 2 a plane) is shrunk by
    the factor `weak`."""
    size = [rng.uniform(0.3, 1.0) * scale for _ in range(3)]
    if weak_block is not None:
        size[weak_block] *= weak
    a1 = rng.uniform(0.0, oracles.TWO_PI)
    a2 = rng.uniform(0.0, oracles.TWO_PI)
    z1 = complex(size[1] * math.cos(a1), size[1] * math.sin(a1))
    z2 = complex(size[2] * math.cos(a2), size[2] * math.sin(a2))
    return tuple(float(c) for c in oracles.from_blocks(size[0], z1, z2))


# -- elementwise ------------------------------------------------------------

@dataclass(frozen=True)
class ElementItem:
    label: str
    xu: tuple
    xv: tuple


# one round: 17 in-domain items, 2 extreme-scale (a tenth), 1 near-set (a twentieth)
ELEMENT_ROUND = [IN_DOMAIN] * 17 + [EXTREME] * 2 + [NEAR_SET]


def element_round(seed: int, index: int) -> list[ElementItem]:
    rng = _rng(seed, "elementwise", index)
    labels = list(ELEMENT_ROUND)
    rng.shuffle(labels)
    items = []
    for label in labels:
        xv = canonical_element(rng, _log_uniform(rng, 0.5, 2.0))
        if label == EXTREME:
            xu = canonical_element(rng, _log_uniform(rng, 1e-300, 1e300))
        elif label == NEAR_SET:
            xu = canonical_element(rng, _log_uniform(rng, 1e-3, 1e3),
                                    weak_block=rng.randrange(3),
                                    weak=_log_uniform(rng, 1e-9, 1e-6))
        else:
            xu = canonical_element(rng, _log_uniform(rng, 1e-3, 1e3))
        items.append(ElementItem(label, xu, xv))
    return items


def element_pool(seed: int, rounds: int) -> list[ElementItem]:
    """`rounds` rounds of element_round, one after another."""
    return [item for r in range(rounds) for item in element_round(seed, r)]


# -- contour ----------------------------------------------------------------

@dataclass(frozen=True)
class LoopSpec:
    planes: tuple          # windings (n1, n2) the loop is built to have
    vertices: int
    radius: float
    center: tuple          # centre of the loop
    line_offset: float
    pole: tuple            # u0: the centre moved by at most radius/10 in each winding plane


@dataclass(frozen=True)
class ContourItem:
    label: str
    evaluator: str         # "exp", "sin", "cosh" (builtins) or "poly2", "poly3" (callables)
    loop: LoopSpec


# (windings, vertices): plane 1, plane 2 and both planes, 64 to 1024 vertices
CONTOUR_LOOPS = [((1, 0), 64), ((0, 1), 256), ((1, 1), 1024),
                 ((1, 0), 1024), ((0, 1), 64), ((1, 1), 256)]
BUILTIN_EVALUATORS = ("exp", "sin", "cosh")
CALLABLE_EVALUATORS = ("poly2", "poly3")


def loop_spec(rng, planes, vertices) -> LoopSpec:
    center = tuple(rng.uniform(-0.5, 0.5) for _ in range(5))
    radius = rng.uniform(0.8, 1.2)
    shift = [0j, 0j]
    for k in (0, 1):
        if planes[k]:
            angle = rng.uniform(0.0, oracles.TWO_PI)
            shift[k] = 0.1 * radius * rng.random() * complex(math.cos(angle), math.sin(angle))
    pole = tuple(float(c + d) for c, d in zip(center, oracles.from_blocks(0.0, *shift)))
    return LoopSpec(planes, vertices, radius, center, rng.uniform(0.6, 0.9), pole)


def contour_pool(seed: int) -> list[ContourItem]:
    """Twelve residue identities: each loop once with a builtin evaluator and
    once with a callable defined in the benchmark."""
    rng = _rng(seed, "contour", 0)
    items = []
    for j, (planes, vertices) in enumerate(CONTOUR_LOOPS):
        for evaluator in (BUILTIN_EVALUATORS[j % 3], CALLABLE_EVALUATORS[j % 2]):
            items.append(ContourItem(IN_DOMAIN, evaluator, loop_spec(rng, planes, vertices)))
    return items


# -- factor -----------------------------------------------------------------

@dataclass(frozen=True)
class FactorItem:
    label: str
    degree: int
    kind: str              # "random" or "known"
    coeffs: tuple          # m coefficient component tuples (monic, descending)
    known_blocks: tuple    # for "known": (line roots, plane-1 roots, plane-2 roots)


FACTOR_DEGREES = (8, 16, 32, 64)


def _expand(roots) -> list:
    coeffs = [1.0 + 0j]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0j], [0j] + coeffs)]
    return coeffs


def factor_round(seed: int, index: int) -> list[FactorItem]:
    """Each degree once with random coefficients in [-1, 1]^5 and once
    expanded from known linear factors."""
    rng = _rng(seed, "factor", index)
    items = []
    for m in FACTOR_DEGREES:
        coeffs = tuple(tuple(rng.uniform(-1.0, 1.0) for _ in range(5)) for _ in range(m))
        items.append(FactorItem(IN_DOMAIN, m, "random", coeffs, ()))
        # line roots real, plane roots spread around the unit circle
        line = sorted(rng.uniform(-1.0, 1.0) for _ in range(m))
        planes = []
        for _ in range(2):
            turn = rng.uniform(0.0, oracles.TWO_PI)
            planes.append([complex(rng.uniform(0.8, 1.2) * math.cos(turn + oracles.TWO_PI * k / m),
                                   rng.uniform(0.8, 1.2) * math.sin(turn + oracles.TWO_PI * k / m))
                           for k in range(m)])
        pl, p1, p2 = _expand(line), _expand(planes[0]), _expand(planes[1])
        coeffs = tuple(tuple(float(c) for c in oracles.from_blocks(pl[j].real, p1[j], p2[j]))
                       for j in range(1, m + 1))
        items.append(FactorItem(IN_DOMAIN, m, "known", coeffs,
                                (tuple(line), tuple(planes[0]), tuple(planes[1]))))
    return items


# -- cli --------------------------------------------------------------------

@dataclass(frozen=True)
class CliItem:
    label: str
    command: str           # name used in the per-command metrics
    argv: tuple            # arguments after `penta`
    operands: tuple        # generated numbers the output is checked against
    files: tuple = ()      # (name, JSON payload) written before the call


# rows of the one cosexp table per script: tens of thousands
TABLE_STEP = 4e-4
TABLE_RANGE = (-4.0, 4.0)


def _fmt(x: tuple) -> str:
    return "[" + ",".join(repr(c) for c in x) + "]"


def cli_script(seed: int, index: int) -> list[CliItem]:
    """One pass of the CLI script: every command once."""
    rng = _rng(seed, "cli", index)

    def elem():
        return canonical_element(rng, _log_uniform(rng, 0.3, 3.0))

    def small():
        return canonical_element(rng, _log_uniform(rng, 0.1, 0.5))

    u, v = elem(), elem()
    items = [CliItem(IN_DOMAIN, "mul", ("mul", _fmt(u), _fmt(v)), (u, v))]
    for cmd in ("inv", "canonical", "polar", "exp", "log"):
        x = small() if cmd == "exp" else elem()
        items.append(CliItem(IN_DOMAIN, cmd, (cmd, _fmt(x)), (x,)))
    x = elem()
    items.append(CliItem(IN_DOMAIN, "pow", ("pow", "0.5", _fmt(x)), (x,)))
    fn = rng.choice(("cos", "sin", "cosh", "sinh"))
    x = small()
    items.append(CliItem(IN_DOMAIN, "trig", ("trig", "--fn", fn, _fmt(x)), (fn, x)))
    for order in (1, 2):
        fn = rng.choice(("exp", "sin", "square"))
        x = small()
        items.append(CliItem(IN_DOMAIN, f"check-analytic-{order}",
                             ("check-analytic", fn, _fmt(x), "--order", str(order)),
                             (fn, x, order)))
    loop = loop_spec(rng, (1, 0), 64)
    items.append(CliItem(IN_DOMAIN, "integrate",
                         ("integrate", "--path", "{loop}", "--fn", "exp", "--pole", _fmt(loop.pole)),
                         (loop,), files=(("loop", loop),)))
    coeffs = tuple(tuple(rng.uniform(-1.0, 1.0) for _ in range(5)) for _ in range(8))
    payload = '{"coeffs": [' + ",".join(_fmt(c) for c in coeffs) + "]}"
    items.append(CliItem(IN_DOMAIN, "factor", ("factor", payload), (coeffs,)))
    lo, hi = TABLE_RANGE
    items.append(CliItem(IN_DOMAIN, "cosexp-table",
                         ("cosexp-table", "--from", repr(lo), "--to", repr(hi),
                          "--step", repr(TABLE_STEP), "-o", "{table}"), ()))
    items.append(CliItem(IN_DOMAIN, "selftest", ("selftest",), ()))
    return items


CLI_COMMANDS = [item.command for item in cli_script(0, 0)]
