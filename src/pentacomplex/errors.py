"""Exception hierarchy for the pentacomplex package.

Domain errors (undefined inverse, angle, logarithm, ...) all derive from
PentaError so callers can distinguish them from programming errors.
"""


class PentaError(Exception):
    """Base class for all pentacomplex domain errors."""


class NotCirculant(PentaError):
    """Matrix passed to from_matrix is not circulant within tolerance."""


class NonInvertible(PentaError):
    """Element is a divisor of zero (or numerically indistinguishable from one)."""


class AngleUndefined(PentaError):
    """A polar angle is undefined because its defining radius vanishes."""

    def __init__(self, which: str, reason: str = ""):
        self.which = which
        self.reason = reason
        super().__init__(f"angle {which!r} undefined" + (f": {reason}" if reason else ""))


class DomainTooLarge(PentaError):
    """Argument outside the guarded evaluation range."""


class LogDomain(PentaError):
    """Logarithm undefined: vplus <= 0 or a plane radius vanishes."""


class PowDomain(PentaError):
    """Non-integer power undefined outside the logarithm domain."""


class FormDomain(PentaError):
    """Exponential/trigonometric form undefined for this element."""


class Overflow(PentaError):
    """Result exceeds the representable floating-point range."""


class InsufficientTerms(PentaError):
    """Too few series coefficients for the requested estimation window."""


class ZeroTail(PentaError):
    """Trailing coefficient vanishes in the measured component; ratio undefined."""


class EvaluationFailed(PentaError):
    """A user-supplied evaluator raised while being sampled."""


class OnBoundary(PentaError):
    """Projected point lies on (or too close to) a polygon edge."""


class PoleOnPath(PentaError):
    """Projected pole is too close to the projected integration loop."""


class NonInvertibleOnPath(PentaError):
    """u - u0 hits a divisor of zero somewhere on the sampled path."""


class NoConvergence(PentaError):
    """Root finding failed: a non-finite root, a root that fails the
    backward-error gate, or a complex line root without its conjugate."""


class InvalidPairing(PentaError):
    """Root pairing is not a bijection or selects an unusable root."""


class Degenerate(PentaError):
    """Repeated (or complex line) roots: factorization count is undefined."""


class NonInvertibleLeading(PentaError):
    """Leading polynomial coefficient is a divisor of zero; cannot normalize."""
