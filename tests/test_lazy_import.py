"""The scalar core imports no numpy, and every public name still resolves.

`import pentacomplex` loads algebra, canonical, geometry, elementary and
errors; the names of analytic, contour, cosexp and polyfactor, and every
submodule, load on first access through the package's __getattr__.
"""

import os
import subprocess
import sys

import pytest

import pentacomplex

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the public names of the package when it imported every module eagerly
PUBLIC = [
    "AngleUndefined", "CONSTANTS", "CanonicalForm", "CoefficientSpectrum",
    "ComponentPolynomials", "ConvergenceReport", "CosexpVector", "DIM",
    "Degenerate", "DomainTooLarge", "E1", "E1_TILDE", "E2", "E2_TILDE",
    "E_PLUS", "EvaluationFailed", "ExponentialForm", "FirstOrderReport",
    "FormDomain", "H1", "H2", "H3", "H4", "InsufficientTerms",
    "InvalidPairing", "IrreducibleRep", "LinearFactor", "LogDomain",
    "NoConvergence", "NonInvertible", "NonInvertibleLeading",
    "NonInvertibleOnPath", "NotCirculant", "ONE", "OnBoundary", "Overflow",
    "Path", "PentaComplex", "PentaError", "PentaPolynomial", "PlaneProjection",
    "PolarForm", "PoleOnPath", "PowDomain", "PowerCoefficients", "PowerKind",
    "PowerSeries", "QuadraticFactor", "RADICALS", "RadicalConstants",
    "RootSet", "RotatedCoords", "SecondOrderReport", "TransformConstants",
    "ZERO", "ZeroTail", "add", "algebra", "amplitude", "analytic",
    "assemble_roots", "basis_product", "canonical", "canonical_basis",
    "canonical_multiply", "check_cr_relations", "check_second_order",
    "coefficient_spectrum", "component_roots", "contour", "convergence_radii",
    "cos", "cosexp", "cosexp_power", "cosexp_values", "cosh",
    "count_factorizations", "decompose", "elementary", "errors", "exp",
    "exp_basis", "exp_h1_minus_h4", "exp_h1_plus_h4", "expand_factors",
    "exponential_form", "factor", "from_canonical", "from_matrix",
    "g5_closed", "g5_closed_radical", "g5_series", "geometry", "integrate",
    "inverse", "irreducible_rep", "log", "modulus",
    "modulus_amplitude_relation", "modulus_product_bound", "multiply",
    "plane_circle", "polar_form", "polyfactor", "pow_real", "power_coeffs",
    "project", "project_point", "residue_formula", "rotated_coords",
    "rotation_matrix", "series_eval", "series_eval_components", "sin", "sinh",
    "taylor_coefficients", "to_canonical", "to_matrix", "trigonometric_form",
    "winding",
]


def fresh_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


ELEMENTWISE = """
import sys
import pentacomplex as pc
u = pc.PentaComplex(1.0, 0.3, 0.2, 0.1, 0.4)
w = pc.multiply(u, u)
pc.inverse(w)
pc.to_canonical(w)
pc.rotated_coords(w)
pc.polar_form(w)
pc.exp(w)
pc.log(w)
pc.pow_real(w, 0.5)
pc.sin(w)
print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("pentacomplex")))
"""


def test_elementwise_calls_load_no_numpy():
    proc = fresh_python(ELEMENTWISE)
    assert proc.returncode == 0, proc.stderr
    assert eval(proc.stdout) == ["pentacomplex", "pentacomplex.algebra",
                                 "pentacomplex.canonical", "pentacomplex.elementary",
                                 "pentacomplex.errors", "pentacomplex.geometry"]


def test_cli_mul_loads_no_numpy():
    proc = fresh_python("import sys; from pentacomplex.cli import main; "
                        "code = main(['mul', '[1,2,3,4,5]', '[0,1,0,0,0]']); "
                        "print('numpy' in sys.modules, code)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[5.0, 1.0, 2.0, 3.0, 4.0]", "False 0"]


def test_contour_loads_neither_analytic_nor_statistics():
    proc = fresh_python("import sys; import pentacomplex.contour; "
                        "print('pentacomplex.analytic' in sys.modules, "
                        "'statistics' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_cosexp_loads_neither_numpy_nor_fractions():
    # its closed forms are exact in golden integers, so neither fractions
    # nor the decimal module fractions imports is needed
    proc = fresh_python("import sys; import pentacomplex.cosexp; "
                        "print([m in sys.modules for m in ('numpy', 'fractions', 'decimal')])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[False,", "False,", "False]"]


def test_analytic_and_its_component_polynomials_load_no_numpy():
    proc = fresh_python("import sys; import pentacomplex as pc; pc.ComponentPolynomials; "
                        "import pentacomplex.analytic; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_the_numpy_free_modules_load_no_typing():
    # without site, whose .pth files may load typing at interpreter start
    code = ("import sys, pentacomplex, pentacomplex.cli, pentacomplex.analytic, "
            "pentacomplex.cosexp; print('typing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_a_lazy_name_loads_its_module_on_first_access():
    proc = fresh_python("import sys; import pentacomplex as pc; "
                        "before = 'pentacomplex.contour' in sys.modules; pc.winding; "
                        "print(before, 'pentacomplex.contour' in sys.modules, "
                        "'winding' in vars(pc))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True"]


def test_every_public_name_is_still_exported():
    assert set(PUBLIC) <= set(dir(pentacomplex))
    assert sorted(pentacomplex.__all__) == sorted(PUBLIC)
    namespace = {}
    exec("from pentacomplex import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)


def test_lazy_names_are_the_objects_of_their_modules():
    from pentacomplex import analytic, contour, cosexp, polyfactor
    from pentacomplex.analytic import check_cr_relations
    assert pentacomplex.ComponentPolynomials is analytic.ComponentPolynomials
    assert polyfactor.ComponentPolynomials is analytic.ComponentPolynomials
    assert pentacomplex.residue_formula is contour.residue_formula
    assert pentacomplex.factor is polyfactor.factor
    assert pentacomplex.RADICALS is cosexp.RADICALS
    assert pentacomplex.check_cr_relations is check_cr_relations


def test_submodules_resolve_as_attributes():
    for name in ("algebra", "analytic", "canonical", "cli", "contour", "cosexp",
                 "elementary", "errors", "geometry", "polyfactor", "selftest"):
        module = getattr(pentacomplex, name)
        assert module is sys.modules[f"pentacomplex.{name}"]


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pentacomplex.no_such_name
