"""Forward Mellin-transform identity and inverse Mellin-Barnes evaluation.

The forward side checks, by direct quadrature over the orthant, that the
transform of Z^alpha equals the gamma-ratio kernel

    F(u_1, ..., u_p) = (alpha/n) Gamma(u) prod Gamma(u_i) / Gamma(omega),
    u = alpha/n - sum (n_i/n) u_i,   omega = u + sum u_i + 1.

The inverse side recovers Z^alpha as a p-fold integral of F * prod x_s^{-u_s}
along vertical lines Re u_s = a_s, evaluated by the trapezoid rule, which is
spectrally accurate for analytic integrands decaying on the lines.  The
truncation height comes from the Stirling decay of the kernel: the count of
gamma factors upstairs exceeds downstairs by p, giving exponential decay at
rate at least pi*n_s/n per line (minus |arg x_s| for complex coefficients,
whence the validity sector |arg x_s| < n_s*pi/(2n)).

On the trapezoid grid u_s = a_s + i k_s h the derived arguments are lattice
values too: Im u = -(sum n_s k_s) h/n and Im omega = (sum (n-n_s) k_s) h/n.
Each gamma factor is therefore a table over the occupied range of its integer
index, gathered at the grid points, so log-gamma is evaluated O((n_1+n_2) m)
times rather than once per grid point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceConditionError, QuadratureError
from .gamma import gamma_ratio, log_gamma_array
from .oracle import Problem
from .quadrature import integrate_orthant_log, log_one_plus_sum_exp

__all__ = [
    "MellinParams", "Contour", "QuadResult", "kernel_value",
    "forward_mellin_check", "default_contour", "principal_root_mb",
    "quadratic_mb_check", "contour_integrand",
]

Shape = tuple[int, tuple[int, ...]]

# drop grid points whose Stirling-bound magnitude is below e^-50 of the center
_MASK_CUT = 50.0


@dataclass(frozen=True)
class MellinParams:
    """Transform parameters: power alpha, arguments u_1..u_p, derived u."""

    alpha: float
    u_list: tuple[complex, ...]
    u: complex

    @classmethod
    def for_shape(cls, shape: Shape, alpha: float, u_list: Sequence[complex]) -> "MellinParams":
        n, exps = shape
        alpha = float(alpha)
        u_list = tuple(complex(v) for v in u_list)
        if len(u_list) != len(exps):
            raise ValueError(f"{len(u_list)} arguments for {len(exps)} exponents")
        if alpha <= 0:
            raise ConvergenceConditionError(f"alpha must be positive, got {alpha}")
        u = alpha / n - sum((e / n) * uv for e, uv in zip(exps, u_list))
        if any(uv.real <= 0 for uv in u_list):
            raise ConvergenceConditionError(
                f"all Re u_i must be positive, got {u_list}")
        if u.real <= 0:
            raise ConvergenceConditionError(
                f"Re u = {u.real:g} <= 0: alpha too small for these u_i")
        return cls(alpha=alpha, u_list=u_list, u=u)

    @property
    def omega(self) -> complex:
        return self.u + sum(self.u_list) + 1.0


@dataclass(frozen=True)
class Contour:
    """Vertical-line data: abscissas a_s, truncation height T, nodes per line."""

    abscissas: tuple[float, ...]
    height: float
    nodes_per_line: int

    def __post_init__(self):
        if not all(0 < a < math.inf for a in self.abscissas):
            raise ConvergenceConditionError(
                f"abscissas must be positive and finite, got {self.abscissas}")
        if not 0 < self.height < math.inf:
            raise ConvergenceConditionError(
                f"height must be positive and finite, got {self.height}")
        if self.nodes_per_line < 9 or self.nodes_per_line % 2 == 0:
            raise ConvergenceConditionError("nodes_per_line must be odd and >= 9")

    def validate_for(self, shape: Shape, alpha: float) -> None:
        n, exps = shape
        slack = alpha - math.fsum(e * a for e, a in zip(exps, self.abscissas))
        if slack <= 0:
            raise ConvergenceConditionError(
                f"alpha - sum n_s a_s = {slack:g} must be positive")


@dataclass(frozen=True)
class QuadResult:
    value: complex
    err_estimate: float
    evaluations: int


def kernel_value(shape: Shape, alpha: float, u_list: Sequence[complex]) -> complex:
    """Gamma-ratio kernel at arbitrary pole-free arguments (no convergence check)."""
    n, exps = shape
    u_list = [complex(v) for v in u_list]
    u = alpha / n - sum((e / n) * uv for e, uv in zip(exps, u_list))
    omega = u + sum(u_list) + 1.0
    return (alpha / n) * gamma_ratio([u, *u_list], [omega])


def forward_mellin_check(
    shape: Shape,
    params: MellinParams,
    tol: float = 1e-6,
) -> tuple[complex, complex]:
    """Both sides of the transform identity for Z^alpha.

    The left side integrates Z^alpha * prod x_i^{u_i-1} over the orthant
    numerically, after the parametric substitution turns it into a
    Dirichlet-type integrand in xi; the right side is the gamma-ratio
    kernel.  Returns (lhs, rhs); callers assert |lhs - rhs| <= tol*|rhs|.
    """
    n, exps = shape
    p = len(exps)
    if p > 2:
        raise ValueError("forward check integrates numerically only for p <= 2")
    if any(abs(uv.imag) > 0 for uv in params.u_list):
        raise ValueError("forward check requires real u_i")

    omega = params.omega
    u_re = [uv.real for uv in params.u_list]
    log_ratios = [math.log(e / n) for e in exps]

    def log_f(L: list[np.ndarray]) -> np.ndarray:
        lse_w = log_one_plus_sum_exp(L)                       # ln(1 + sum xi)
        lse_c = log_one_plus_sum_exp(
            [lr + Li for lr, Li in zip(log_ratios, L)])       # ln(1 + sum (n_k/n) xi_k)
        return lse_c - omega.real * lse_w

    lhs, _, _ = integrate_orthant_log(
        u_re, log_f, rel_tol=tol / 3.0,
        max_level=7 if p == 1 else 6)
    rhs = kernel_value(shape, params.alpha, params.u_list)
    return lhs, rhs


def _sector_rate(shape: Shape, x: Sequence[complex]) -> float:
    """Worst-case exponential decay rate of the contour integrand per line."""
    n, exps = shape
    rate = math.inf
    for e, xv in zip(exps, x):
        r = math.pi * e / n - abs(cmath.phase(complex(xv)))
        rate = min(rate, r)
    return rate


def default_contour(
    problem: Problem,
    alpha: float,
    tol: float = 1e-7,
    coeffs: Sequence[complex] | None = None,
) -> Contour:
    """Contour sized from the Stirling decay bound so the tail is < tol/10.

    Abscissas balance the two analyticity-strip constraints (the poles of
    Gamma(u_s) at 0 and of Gamma(u) at 0): a = alpha/(n_1 + sum n_k), capped
    at 1/2; the trapezoid step then resolves the strip to the same tolerance.
    """
    if not 0 < alpha < math.inf:
        raise ConvergenceConditionError(f"alpha must be positive and finite, got {alpha}")
    n, exps = problem.shape
    x = [complex(c) for c in (coeffs if coeffs is not None else problem.coeffs)]
    rate = _sector_rate(problem.shape, x)
    if rate <= 0:
        raise ConvergenceConditionError(
            "coefficients outside the validity sector |arg x_s| < n_s*pi/(2n)")
    a = min(0.5, alpha / (exps[0] + sum(exps)))
    u0 = (alpha - a * sum(exps)) / n
    strip = min(a, min(u0 * n / e for e in exps))
    # x^-u oscillates like exp(-i t ln|x|), which eats into the alias margin
    osc = max(abs(cmath.log(abs(xv))) for xv in x)
    height = (0.8 * math.log(30.0 / tol) + 5.0 + 0.3 * osc) / rate
    step = 3.0 * math.pi * strip / (math.log(30.0 / tol) + 3.0 + 3.0 * strip * osc)
    m = max(9, int(math.ceil(2.0 * height / step)) | 1)
    return Contour(abscissas=(a,) * len(exps), height=height, nodes_per_line=m)


def _line_nodes(T: float, m: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Symmetric trapezoid nodes: t_j = j*h is exactly antisymmetric."""
    h = 2.0 * T / (m - 1)
    t = (np.arange(m) - (m - 1) // 2) * h
    w = np.ones(m)
    w[0] = w[-1] = 0.5
    return t, w, h


def _lattice(coef: Sequence[int], k: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The integer index K = sum coef_s k_s at each point, as a table and a gather.

    Returns (values, index): the multiples of g = gcd(coef) from min K to max K,
    and the position of each point's K among them, so a table over the values
    holds one entry per lattice value spanned.
    """
    g = math.gcd(*coef)
    K = sum((c // g) * ks for c, ks in zip(coef, k))
    lo = int(K.min()) if K.size else 0
    return g * np.arange(lo, int(K.max(initial=lo)) + 1), K - lo


def _log_integrand(shape: Shape, alpha: float, x: Sequence[complex], a: Sequence[float],
                   h: float, k: Sequence[np.ndarray]) -> np.ndarray:
    """log(F(u) * prod x_s^-u_s) at the grid points u_s = a_s + i k_s h.

    On this lattice Im u = -(sum n_s k_s) h/n and Im omega = (sum (n-n_s) k_s) h/n,
    with fixed real parts, so every gamma factor is a table over the integer
    index it depends on (k_s for the line factor log Gamma(u_s) - u_s log x_s),
    evaluated once per lattice value and gathered at the points.  All tables
    go through one log-gamma call: on small grids its fixed cost dominates.
    """
    n, exps = shape
    u0 = alpha / n - sum(e * a_s for e, a_s in zip(exps, a)) / n
    om0 = sum(a, u0) + 1.0
    K_u, i_u = _lattice(exps, k)
    K_om, i_om = _lattice([n - e for e in exps], k)
    lines = [_lattice([1], [ks]) for ks in k]
    zs = [u0 - 1j * (h / n) * K_u, om0 + 1j * (h / n) * K_om,
          *(a_s + 1j * h * K for a_s, (K, _) in zip(a, lines))]
    lg = np.split(log_gamma_array(np.concatenate(zs)), np.cumsum([z.size for z in zs[:-1]]))
    out = lg[0][i_u]
    out += math.log(alpha / n)
    out -= lg[1][i_om]
    for u_s, lg_s, (_, i), xv in zip(zs[2:], lg[2:], lines, x):
        out += (lg_s - u_s * cmath.log(complex(xv)))[i]
    return out


def _stirling_exponent(shape, ts, argx):
    """Leading Stirling log-decay of |integrand| relative to the grid center."""
    n, exps = shape
    im_u = -sum(e * t for e, t in zip(exps, ts)) / n
    im_om = sum(ts, im_u)
    E = (math.pi / 2.0) * (sum(map(np.abs, ts), np.abs(im_u)) - np.abs(im_om))
    return E - sum(t * ax for t, ax in zip(ts, argx))


def _grid_sum(shape, alpha, x, a, T, m, full_grid=False):
    """(h/2 pi)^p times the Stirling-masked trapezoid sum over the p-fold grid.

    Points whose Stirling bound lies below e^-_MASK_CUT of the center are
    dropped.  For real positive x, f(-t) = conj f(t): only the points whose
    first nonzero t_s is positive are summed, the sum is doubled, the center
    added once and the real part kept, so the full m^p mask is never formed.
    Returns (value, points summed).
    """
    p = len(x)
    t, w, h = _line_nodes(T, m)
    c = (m - 1) // 2
    argx = [cmath.phase(complex(v)) for v in x]
    scale = (h / (2.0 * math.pi)) ** p

    def block(axes):
        # masked sum over the tensor block axes[0] x ... x axes[p-1] of node indices
        # the exponent array is not kept alive while the integrand is evaluated
        ts = [t[ix] for ix in np.ix_(*axes)]
        idx = np.nonzero(_stirling_exponent(shape, ts, argx) <= _MASK_CUT)
        logI = _log_integrand(shape, alpha, x, a, h, [ax[i] - c for ax, i in zip(axes, idx)])
        weight = math.prod(w[ax][i] for ax, i in zip(axes, idx))
        return complex(np.sum(np.exp(logI) * weight)), int(idx[0].size)

    every = np.arange(m, dtype=np.int32)  # int32 halves the per-point index arrays
    if full_grid or not all(v.imag == 0.0 and v.real > 0.0 for v in map(complex, x)):
        s, count = block([every] * p)
        return s * scale, count
    mid, positive = every[c:c + 1], every[c + 1:]
    half, count = 0.0 + 0.0j, 1
    for k in range(p):
        s, n_k = block([mid] * k + [positive] + [every] * (p - k - 1))
        half, count = half + s, count + n_k
    center, _ = block([mid] * p)
    return complex(2.0 * half.real + center.real) * scale, count


def principal_root_mb(
    problem: Problem,
    alpha: float = 1.0,
    contour: Contour | None = None,
    tol: float | None = None,
    coeffs: Sequence[complex] | None = None,
) -> QuadResult:
    """Z(x)^alpha by the p-fold vertical-line integral of the kernel.

    The returned value refines the base contour by node doubling and tail
    extension; err_estimate is the a posteriori change under doubling the
    node count and the truncation height.  For real positive coefficients
    the imaginary part of the value is bounded by err_estimate.  ``coeffs``
    overrides the problem's coefficients for evaluation at complex points
    inside the validity sector |arg x_s| < n_s*pi/(2n).
    """
    p = problem.p
    if not 0 < alpha < math.inf:
        raise ConvergenceConditionError(f"alpha must be positive and finite, got {alpha}")
    if p > 2:
        raise ValueError("contour evaluation is implemented for p <= 2 "
                         "(use the parametric solver for higher p)")
    x = [complex(c) for c in (coeffs if coeffs is not None else problem.coeffs)]
    if len(x) != p:
        raise ValueError(f"{len(x)} coefficients for p = {p}")
    if any(c == 0 for c in x):
        raise ConvergenceConditionError(
            "contour evaluation needs strictly positive |x_s| (x^-u undefined at 0)")
    if _sector_rate(problem.shape, x) <= 0:
        raise ConvergenceConditionError(
            "coefficients outside the validity sector |arg x_s| < n_s*pi/(2n)")
    if contour is None:
        contour = default_contour(problem, alpha, tol if tol is not None else 1e-7,
                                  coeffs=x)
    contour.validate_for(problem.shape, alpha)

    a = list(contour.abscissas)
    T, m = contour.height, contour.nodes_per_line
    v_base, n1 = _grid_sum(problem.shape, alpha, x, a, T, m)
    v_fine, n2 = _grid_sum(problem.shape, alpha, x, a, T, 2 * m - 1)
    v_tall, n3 = _grid_sum(problem.shape, alpha, x, a, 2.0 * T, 2 * m - 1)

    value = v_fine + (v_tall - v_base)
    err = abs(v_fine - v_base) + abs(v_tall - v_base) + 1e-15 * (1.0 + abs(value))
    if tol is not None and err > tol:
        raise QuadratureError(
            f"contour integral error estimate {err:g} exceeds requested {tol:g}")
    return QuadResult(value=value, err_estimate=err, evaluations=n1 + n2 + n3)


def quadratic_mb_check(x: float, tol: float = 1e-8) -> tuple[float, float]:
    """Contour-integral value of the quadratic's root against its closed form.

    Evaluates (1/(4 pi i)) * integral over Re z = 1/2 of
    Gamma(z) Gamma((1-z)/2) / Gamma((3+z)/2) * x^-z dz, which is the contour
    integral of the kernel of (2, (1,)) at alpha = 1 (alpha/n = 1/2), and
    compares with -x/2 + sqrt(1 + (x/2)^2), the principal root of
    Z^2 + x Z - 1 = 0.  (The x^-z / Gamma((1-z)/2) combination is forced:
    the frequently misprinted x^z / Gamma((1+z)/2) variant has a double pole
    at z = -1 and is not an algebraic function of x at all.)
    """
    x = float(x)
    if x <= 0:
        raise ValueError("x must be positive")
    rate = math.pi / 2.0
    T = (math.log(30.0 / tol) + 6.0 + abs(math.log(x))) / rate
    step = 2.0 * math.pi * 0.5 / (math.log(30.0 / tol) + 3.0 + abs(math.log(x)))
    m = max(9, int(math.ceil(2.0 * T / step)) | 1)

    def line_sum(TT, mm):
        return _grid_sum((2, (1,)), 1.0, [x], [0.5], TT, mm)[0].real

    v1 = line_sum(T, m)
    v2 = line_sum(2.0 * T, 4 * m - 3)
    err = abs(v2 - v1) + 1e-15
    if err > tol:
        raise QuadratureError(f"truncation error {err:g} above tol {tol:g}")
    closed = -x / 2.0 + math.sqrt(1.0 + (x / 2.0) ** 2)
    return v2, closed


def contour_integrand(
    problem: Problem,
    alpha: float,
    contour: Contour,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw integrand samples along the contour, for tracing.

    Returns (points, values): for p = 1, points has shape (m, 1) holding
    Im u_1; for p = 2, shape (m*m, 2) over the tensor grid in row-major
    order.  Values are kernel * prod x_s^{-u_s} without the (2 pi i)^-p.
    """
    p = problem.p
    if p > 2:
        raise ValueError("contour tracing is implemented for p <= 2")
    contour.validate_for(problem.shape, alpha)
    m = contour.nodes_per_line
    t, _, h = _line_nodes(contour.height, m)
    idx = np.indices((m,) * p).reshape(p, -1)
    logI = _log_integrand(problem.shape, alpha, problem.coeffs, contour.abscissas, h,
                          idx - (m - 1) // 2)
    return t[idx].T, np.exp(logI)
