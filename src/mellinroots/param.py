"""The parametric change of variables x_i = xi_i * W^{n_i/n - 1}, W = 1 + sum(xi).

Under this substitution the principal root is simply Z = W^{-1/n}, so
inverting the map on the positive orthant solves the equation.  The
inversion reduces to one scalar level equation in s = sum(xi): on each
level set the map is linear, so s is the only unknown.  It is solved for
L = log W = log(1 + s) by oracle._lse_newton, the Newton loop that the
oracle runs too (a step <= 1e-14 max(1, L) stops it, _MAX_NEWTON caps it).

A ParamPoint is built from xi alone; s and W are derived from it once, so
they cannot disagree with it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

from .errors import GammaOverflowError
from .oracle import Problem, Shape, _checked_shape, _finite_nonnegative, _lse_newton

__all__ = [
    "ParamPoint", "psi_forward", "jacobian_det",
    "psi_inverse", "principal_root_param",
]

# up to here W = e^L and the xi summing to W - 1 stay finite, rounding of L included
_LOG_MAX = math.log(sys.float_info.max) - 1e-9


@dataclass(frozen=True)
class ParamPoint:
    """A point xi in [0, inf)^p; s = sum(xi) and W = 1 + s are derived from it.

    xi must be finite and nonnegative with its sum in double range; ValueError otherwise.
    """

    xi: tuple[float, ...]
    s: float = field(init=False)
    W: float = field(init=False)

    def __post_init__(self):
        xi = _finite_nonnegative(self.xi, "xi")
        try:
            s = math.fsum(xi)
        except OverflowError:
            raise ValueError(f"sum(xi) overflows double range, xi = {xi}") from None
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "W", 1.0 + s)


def _check_shape(shape: Shape, p: int) -> Shape:
    if len(shape[1]) != p:
        raise ValueError(f"shape has {len(shape[1])} exponents but point has {p} components")
    return _checked_shape(shape)


def psi_forward(point: ParamPoint, shape: Shape) -> tuple[float, ...]:
    """Map xi to coefficients: x_i = xi_i * (1+s)^{n_i/n - 1}."""
    n, exps = _check_shape(shape, len(point.xi))
    W = point.W
    return tuple(v * W ** (e / n - 1.0) for v, e in zip(point.xi, exps))


def jacobian_det(point: ParamPoint, shape: Shape) -> float:
    """Closed-form Jacobian determinant of the map at xi.

    W^{(n_1+...+n_p)/n - p - 1} * corr, corr = 1 + (1/n) sum n_k xi_k;
    strictly positive on the orthant.  Formed as W^{(n_1+...+n_p)/n - p} *
    (corr / W): both factors lie in (0, 1] since 1 <= corr <= W, so nothing
    overflows, and it underflows only where the determinant does.
    """
    n, exps = _check_shape(shape, len(point.xi))
    W = point.W
    corr = 1.0 + math.fsum(e * v for e, v in zip(exps, point.xi)) / n
    return W ** (sum(exps) / n - len(exps)) * (corr / W)


def _log_level(coeffs: Sequence[float], n: int, exps: Sequence[int]) -> float:
    """L = log W on the level set W = 1 + sum x_i W^{1 - n_i/n}.

    The zero of h(L) = LSE(-L, log x_i - (n_i/n) L), the level equation over
    W, by _lse_newton in -L on lines (0, 1) and (log x_i, n_i/n) from L = 0,
    where h(0) >= 0.  Zero coefficients drop out.
    """
    lines = [(0.0, 1.0)]  # (intercept, slope) in -L of each term's log
    lines += [(math.log(c), e / n) for c, e in zip(coeffs, exps) if c > 0.0]
    return -_lse_newton(lines, 0.0)


def psi_inverse(coeffs: Sequence[float], shape: Shape) -> ParamPoint:
    """Unique xi >= 0 with psi_forward(xi) = coeffs.

    Solves the level equation for L = log W, then back-substitutes
    xi_i = x_i W^{1-n_i/n}.  Raises GammaOverflowError when W = e^L exceeds
    the double range; principal_root_param, which never forms W, still
    solves such coefficients.
    """
    coeffs = tuple(coeffs)
    n, exps = _check_shape(shape, len(coeffs))
    coeffs = _finite_nonnegative(coeffs, "coefficients")
    L = _log_level(coeffs, n, exps)
    if L > _LOG_MAX:
        raise GammaOverflowError(
            f"W = exp({L:g}) exceeds the double range for coeffs={coeffs}")
    return ParamPoint(c * math.exp((1.0 - e / n) * L) for c, e in zip(coeffs, exps))


def principal_root_param(problem: Problem) -> float:
    """Principal root as W^{-1/n} = exp(-L/n), with L = log W from the level equation."""
    return math.exp(-_log_level(problem.coeffs, problem.n, problem.exps) / problem.n)
