"""Exception types shared across the package.

Every numerical failure derives from ``NumericalError`` (the CLI maps it to
exit code 3) and keeps its builtin base, so ``PoleError`` is still a
``ValueError`` and ``QuadratureError`` still a ``RuntimeError``.
"""


class NumericalError(Exception):
    """A computation failed on structurally valid input."""


class PoleError(NumericalError, ValueError):
    """A gamma-function argument landed on (or within tolerance of) a pole."""


class GammaOverflowError(NumericalError, OverflowError):
    """A value exceeds the representable double range."""


class ConvergenceConditionError(NumericalError, ValueError):
    """Transform parameters or contour abscissas violate a convergence condition."""


class DivergentIntegralError(NumericalError, ValueError):
    """Integral parameters make the integral divergent."""


class QuadratureError(NumericalError, RuntimeError):
    """A quadrature did not converge to the requested tolerance."""


class RootConvergenceError(NumericalError, RuntimeError):
    """Root iteration hit its cap; on the valid domain this signals a bug."""


class ContinuationError(NumericalError, RuntimeError):
    """Branch continuation failed (two root branches collided)."""


class StepTooSmallError(NumericalError, RuntimeError):
    """Finite-difference step is dominated by roundoff."""
