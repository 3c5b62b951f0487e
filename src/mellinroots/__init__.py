"""Principal roots of Z^n + x1*Z^n1 + ... + xp*Z^np - 1 = 0 on the positive orthant.

Three routes to the same number, cross-checked throughout: a Newton oracle
on log Z, the parametric substitution that linearizes the root to
(1 + s)^(-1/n) with its level equation solved for log(1 + s), and a
Mellin-Barnes contour integral of the gamma-ratio kernel.  The two real-axis
routes run one Newton loop, which needs no bracket in the whole double range.
"""

from .errors import (ConvergenceConditionError, ContinuationError,
                     DivergentIntegralError, GammaOverflowError, NumericalError,
                     PoleError, QuadratureError, RootConvergenceError,
                     StepTooSmallError)
from .gamma import gamma_ratio, log_gamma
from .hyper import (LinearFactor, check_functional_equation, pde_residual,
                    series_coefficients, shift_ratio_factors)
from .identities import det_cofactor, det_rank_one, dirichlet_integral
from .mellin import (Contour, QuadResult, default_contour, forward_mellin_check,
                     kernel_value, principal_root_mb)
from .oracle import Problem, all_roots, epsilon_family, principal_root
from .param import (ParamPoint, jacobian_det, principal_root_param, psi_forward,
                    psi_inverse)

__version__ = "0.1.0"

__all__ = [
    "Problem", "ParamPoint", "Contour",
    "QuadResult", "LinearFactor",
    "principal_root", "all_roots", "epsilon_family",
    "psi_forward", "psi_inverse", "jacobian_det",
    "principal_root_param",
    "kernel_value", "forward_mellin_check", "default_contour",
    "principal_root_mb",
    "shift_ratio_factors", "check_functional_equation", "pde_residual",
    "series_coefficients",
    "det_rank_one", "det_cofactor", "dirichlet_integral",
    "log_gamma", "gamma_ratio",
    "NumericalError", "PoleError", "GammaOverflowError", "ConvergenceConditionError",
    "DivergentIntegralError", "QuadratureError", "RootConvergenceError",
    "ContinuationError", "StepTooSmallError",
    "__version__",
]
