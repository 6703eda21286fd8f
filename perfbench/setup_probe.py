"""Set-up of one workload in a fresh interpreter.

Usage: setup_probe.py ROOT WORKLOAD

Imports the package from ROOT/src and makes one warm-up call into every
layer the workload uses, then prints time.monotonic_ns() and exits at once.
The parent subtracts the monotonic time at which it started this process,
so interpreter start, imports and first-call costs all count.  With
WORKLOAD "import" it prints how long `import pentacomplex` took instead.
"""

import os
import sys
import time


def warm_elementwise(pc):
    u = pc.PentaComplex(1.0, 0.3, 0.2, 0.1, 0.4)
    w = pc.multiply(u, u)
    pc.to_canonical(w)
    pc.rotated_coords(w)
    pc.inverse(w)
    pc.polar_form(w)
    pc.sin(pc.exp(pc.log(w)))
    pc.pow_real(w, 0.5)


def warm_contour(pc):
    u0 = pc.PentaComplex(0.1, 0.2, -0.1, 0.05, 0.3)
    loop = pc.plane_circle(u0, 1, 1.0, vertices=16)
    pc.residue_formula(pc.exp, loop, u0, samples=16)


def warm_factor(pc):
    poly = pc.PentaPolynomial((pc.PentaComplex(0.1, 0.2, 0.0, 0.1, 0.0),
                               pc.PentaComplex(-1.0, 0.1, 0.2, 0.0, 0.3)))
    pc.expand_factors(pc.factor(poly))


def warm_cli(pc):
    import contextlib
    import io
    from pentacomplex import cli, selftest
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["mul", "[1,2,3,4,5]", "[0,1,0,0,0]"])
    pc.cosexp_values(0.5)
    pc.check_cr_relations(pc.exp, pc.PentaComplex(0.1, 0.2, 0.0, 0.05, -0.1))
    selftest.suite_basis_table()
    warm_elementwise(pc)
    warm_contour(pc)
    warm_factor(pc)


WARM = {"elementwise": warm_elementwise, "contour": warm_contour,
        "factor": warm_factor, "cli": warm_cli}


def main():
    root, workload = sys.argv[1], sys.argv[2]
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.monotonic_ns()
    import pentacomplex as pc
    if workload == "import":
        print(time.monotonic_ns() - t0, flush=True)
    else:
        WARM[workload](pc)
        print(time.monotonic_ns(), flush=True)
    os._exit(0)


if __name__ == "__main__":
    main()
