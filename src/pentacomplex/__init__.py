"""Commutative 5-dimensional polar complex numbers.

Elements have the form u = x0 + h1*x1 + h2*x2 + h3*x3 + h4*x4 with real
components and the cyclic basis rule h_j h_k = h_{(j+k) mod 5}.  The ring
splits canonically into a real line and two complex planes, which gives a
polar/exponential geometry, five interleaved cosexponential functions,
elementary functions, analytic power series, contour integrals with a
residue identity on the two plane projections, and polynomial factorization
into linear or quadratic factors.

Importing the package loads only the scalar core (algebra, canonical,
geometry, elementary, errors), which needs no numpy.  The names of analytic,
contour, cosexp and polyfactor, and every submodule, load on first access.
"""

from importlib import import_module as _import_module

from .algebra import (DIM, H1, H2, H3, H4, ONE, ZERO, PentaComplex, add,
                      basis_product, from_matrix, inverse, multiply, to_matrix)
from .canonical import (E1, E1_TILDE, E2, E2_TILDE, E_PLUS, CanonicalForm,
                        IrreducibleRep, RotatedCoords, canonical_basis,
                        canonical_multiply, from_canonical, irreducible_rep,
                        rotated_coords, rotation_matrix, to_canonical)
from .elementary import (ExponentialForm, cos, cosh, exp, exponential_form,
                         log, modulus_amplitude_relation, pow_real, sin, sinh,
                         trigonometric_form)
from .errors import (AngleUndefined, Degenerate, DomainTooLarge,
                     EvaluationFailed, FormDomain, InsufficientTerms,
                     InvalidPairing, LogDomain, NoConvergence, NonInvertible,
                     NonInvertibleLeading, NonInvertibleOnPath, NotCirculant,
                     OnBoundary, Overflow, PentaError, PoleOnPath, PowDomain,
                     ZeroTail)
from .geometry import (PolarForm, amplitude, modulus, modulus_product_bound,
                       polar_form)

__version__ = "0.1.0"

# public names loaded on first access, by module
_LAZY = {
    "analytic": ("ComponentPolynomials", "ConvergenceReport", "FirstOrderReport",
                 "PowerSeries", "SecondOrderReport", "check_cr_relations",
                 "check_second_order", "coefficient_spectrum", "convergence_radii",
                 "series_eval", "series_eval_components", "taylor_coefficients"),
    "contour": ("Path", "PlaneProjection", "integrate", "plane_circle", "project",
                "project_point", "residue_formula", "winding"),
    "cosexp": ("CosexpVector", "PowerCoefficients", "PowerKind", "cosexp_power",
               "cosexp_values", "exp_basis", "exp_h1_minus_h4", "exp_h1_plus_h4",
               "g5_closed", "g5_closed_radical", "g5_series", "power_coeffs"),
    "polyfactor": ("LinearFactor", "PentaPolynomial",
                   "QuadraticFactor", "RootSet", "assemble_roots",
                   "component_roots", "count_factorizations", "decompose",
                   "expand_factors", "factor"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
# submodules that no public name lives in
_SUBMODULES = {"cli", "selftest"}

__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | _LAZY.keys() | _HOME.keys())


def __getattr__(name: str):
    """Load a lazy public name or a submodule on first access (PEP 562) and
    cache it, so later lookups never come here."""
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _LAZY or name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | __all__)
