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
whence the validity sector |arg x_s| < pi*n_s/n, where that rate is positive).

On the trapezoid grid u_s = a_s + i k_s h the derived arguments are lattice
values too: Im u = -(sum n_s k_s) h/n and Im omega = (sum (n-n_s) k_s) h/n.
Each gamma factor is therefore a table over the occupied range of its integer
index, gathered at the grid points, so log-gamma is evaluated O((n_1+n_2) m)
times rather than once per grid point.  The Stirling bound that masks the
grid is piecewise linear along each row of it, so the kept points are found
as a few runs per row in closed form, and only they are evaluated.
"""

from __future__ import annotations

import cmath
import functools
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

# points evaluated by one contour solve, after the mask and the fold (at most
# 2.0 M on criterion-02, 6.1 M on (5, (4, 1)) at tol 1e-12), or by one trace;
# checked before any per-point array is built, each point taking about 60 bytes
_MAX_BLOCK_POINTS = 2 ** 25

# rows of the grid scanned for kept runs by one solve (about 0.1 M for the
# default contour of (3, (2, 1)) at coefficients 1e-300 and 1e300); each takes
# several hundred bytes while its runs are found, before the points are counted
_MAX_ROWS = 2 ** 20


def _check_alpha(alpha: float) -> float:
    if not 0 < alpha < math.inf:
        raise ConvergenceConditionError(f"alpha must be positive and finite, got {alpha}")
    return alpha


def _check_block(points: int) -> None:
    if points > _MAX_BLOCK_POINTS:
        raise QuadratureError(f"contour grid of {points} points exceeds {_MAX_BLOCK_POINTS}")


@dataclass(frozen=True)
class MellinParams:
    """Transform parameters: power alpha, arguments u_1..u_p, derived u."""

    alpha: float
    u_list: tuple[complex, ...]
    u: complex

    @classmethod
    def for_shape(cls, shape: Shape, alpha: float, u_list: Sequence[complex]) -> "MellinParams":
        n, exps = shape
        alpha = _check_alpha(float(alpha))
        u_list = tuple(complex(v) for v in u_list)
        if len(u_list) != len(exps):
            raise ValueError(f"{len(u_list)} arguments for {len(exps)} exponents")
        u = alpha / n - sum((e / n) * uv for e, uv in zip(exps, u_list))
        if not all(0 < uv.real < math.inf and math.isfinite(uv.imag) for uv in u_list):
            raise ConvergenceConditionError(f"u_i must be finite with Re u_i > 0, got {u_list}")
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
    """Decay rate of the contour integrand per line; raises for x_s = 0 or rate <= 0."""
    if any(xv == 0 for xv in x):
        raise ConvergenceConditionError(
            "contour evaluation needs strictly positive |x_s| (x^-u undefined at 0)")
    n, exps = shape
    rate = min(math.pi * e / n - abs(cmath.phase(complex(xv))) for e, xv in zip(exps, x))
    if rate <= 0:
        raise ConvergenceConditionError(
            "coefficients outside the validity sector |arg x_s| < pi*n_s/n")
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
    m = 1 (mod 4), so the grids of step h/2, h and 2h all end at +-T.
    """
    _check_alpha(alpha)
    n, exps = problem.shape
    x = [complex(c) for c in (coeffs if coeffs is not None else problem.coeffs)]
    rate = _sector_rate(problem.shape, x)
    a = min(0.5, alpha / (exps[0] + sum(exps)))
    u0 = (alpha - a * sum(exps)) / n
    strip = min(a, min(u0 * n / e for e in exps))
    # x^-u oscillates like exp(-i t ln|x|), which eats into the alias margin
    osc = max(abs(cmath.log(abs(xv))) for xv in x)
    height = (0.8 * math.log(30.0 / tol) + 5.0 + 0.3 * osc) / rate
    step = 3.0 * math.pi * strip / (math.log(30.0 / tol) + 3.0 + 3.0 * strip * osc)
    m = max(9, 4 * math.ceil(height / (2.0 * step)) + 1)
    return Contour(abscissas=(a,) * len(exps), height=height, nodes_per_line=m)


def _line_nodes(T: float, m: int) -> tuple[np.ndarray, float]:
    """Symmetric trapezoid nodes and step: t_j = j*h is exactly antisymmetric."""
    h = 2.0 * T / (m - 1)
    return (np.arange(m) - (m - 1) // 2) * h, h


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


def _kept_runs(shape, argx, t, lead, lo):
    """Runs of last-axis offsets whose Stirling exponent is at most _MASK_CUT.

    Row r fixes the leading offsets lead[s][r] and spans k_p = lo[r]..c.  Along
    the row the exponent is linear in k_p between the sign changes of k_p,
    K_u = sum n_s k_s and K_omega = sum (n-n_s) k_s, so each of the 4 pieces
    keeps one run.  Where a piece crosses the cut, the crossing interpolated
    from its ends is settled with _stirling_exponent itself, so the runs hold
    exactly the points a per-point mask would keep.  Returns (row, start,
    length) per piece.
    """
    n, exps = shape
    c = (len(t) - 1) // 2
    rows = len(lo)
    K_u = sum((n_s * k for n_s, k in zip(exps, lead)), np.zeros(rows, dtype=np.int64))
    K_om = sum(((n - n_s) * k for n_s, k in zip(exps, lead)), np.zeros(rows, dtype=np.int64))
    # the three sign changes along the row, each rounded up to an integer k_p
    brk = np.sort(np.column_stack(
        [np.zeros(rows, dtype=np.int64), -(K_u // exps[-1]), -(K_om // (n - exps[-1]))]), axis=1)
    first = np.maximum(np.column_stack([lo, brk]), lo[:, None]).ravel()
    last = np.minimum(np.column_stack([brk - 1, np.full(rows, c)]), c).ravel()
    r = np.repeat(np.arange(rows), 4)
    r, first, last = r[first <= last], first[first <= last], last[first <= last]

    def exponent(ri, j):
        return _stirling_exponent(shape, [t[k[ri] + c] for k in lead] + [t[j + c]], argx)

    E_first, E_last = exponent(r, first), exponent(r, last)
    keep_first, keep_last = E_first <= _MASK_CUT, E_last <= _MASK_CUT
    # one end kept: walk from it (a) toward the other (b) to the last kept offset j
    i = np.flatnonzero(keep_first != keep_last)
    a = np.where(keep_first[i], first[i], last[i])
    b = np.where(keep_first[i], last[i], first[i])
    E_a, E_b = np.minimum(E_first[i], E_last[i]), np.maximum(E_first[i], E_last[i])
    d = np.sign(b - a)
    step = np.floor((_MASK_CUT - E_a) / (E_b - E_a) * abs(b - a)).astype(np.int64)
    j = a + d * np.minimum(step, abs(b - a) - 1)
    while (out := exponent(r[i], j) > _MASK_CUT).any():
        j[out] -= d[out]
    while (more := exponent(r[i], j + d) <= _MASK_CUT).any():
        j[more] += d[more]
    first[i], last[i] = np.minimum(a, j), np.maximum(a, j)
    return r, first, np.where(keep_first | keep_last, last - first + 1, 0)


def _grid_sum(shape, alpha, x, a, T, m, full_grid=False):
    """Stirling-masked trapezoid sums over the p-fold grid, from one pass.

    Returns (v_f, v_b, v_c, ring, points summed): (step/2 pi)^p times the sums
    at steps h, 2h and 4h (every node, every second and every fourth from
    t = 0), and (h/2 pi)^p times the sum of |f| on the ring max_s |t_s| = T.
    Points whose Stirling bound lies below e^-_MASK_CUT of the center are
    dropped: the grid is walked in rows along the last axis, each row's kept
    points are a few runs in closed form (_kept_runs), and only those points
    are indexed and evaluated.  For real positive x, f(-t) = conj f(t): the
    rows k_1 >= 0 are summed, row 0 from k_p = 0, with weight 1/2 at the
    center; the sums are doubled and the real part kept.
    """
    p = len(x)
    t, h = _line_nodes(T, m)
    c = (m - 1) // 2
    argx = [cmath.phase(complex(v)) for v in x]
    fold = not full_grid and all(v.imag == 0.0 and v.real > 0.0 for v in map(complex, x))
    lead = [np.arange(0 if fold else -c, c + 1)] if p == 2 else []
    lo = np.full(len(lead[0]) if lead else 1, -c)
    if fold:
        lo[0] = 0
    if len(lo) > _MAX_ROWS:
        raise QuadratureError(f"contour grid of {len(lo)} rows exceeds {_MAX_ROWS}")
    row, start, length = _kept_runs(shape, argx, t, lead, lo)
    count = int(length.sum())
    _check_block(count)
    # int32 halves the per-point index arrays; k_p counts up from each run's start
    k = [np.repeat(kl[row].astype(np.int32), length) for kl in lead]
    k.append(np.repeat((start - (np.cumsum(length) - length)).astype(np.int32), length))
    k[-1] += np.arange(count, dtype=np.int32)
    f = _log_integrand(shape, alpha, x, a, h, k)
    np.exp(f, out=f)
    edge = [np.abs(ks) == c for ks in k]
    ring = np.abs(f[functools.reduce(np.logical_or, edge)]).sum()
    for on_edge in edge:
        f[on_edge] *= 0.5
    if fold:
        f[0] *= 0.5  # the center: row 0 starts there
    # the low bit (two bits) of k_1 | ... | k_p is clear iff every k_s is even (0 mod 4)
    bits = functools.reduce(np.bitwise_or, k)
    s = np.array([f.sum(), f[bits & 1 == 0].sum(), f[bits & 3 == 0].sum(), ring], dtype=complex)
    if fold:
        s = 2.0 * s.real
    s *= (h / (2.0 * math.pi)) ** p * np.array([1, 2 ** p, 4 ** p, 1])
    return complex(s[0]), complex(s[1]), complex(s[2]), float(s[3].real), count


def principal_root_mb(
    problem: Problem,
    alpha: float = 1.0,
    contour: Contour | None = None,
    tol: float | None = None,
    coeffs: Sequence[complex] | None = None,
) -> QuadResult:
    """Z(x)^alpha by the p-fold vertical-line integral of the kernel.

    One pass over 2m-1 nodes per line (step h/2 for the contour's m) gives
    the value v_f and the sub-sums v_b (step h) and v_c (2h).  Halving the
    step squares the error, so err_estimate is d_f^2/d_b (d_f if d_b <= d_f;
    d_f = |v_f - v_b|, d_b = |v_b - v_c|) plus the boundary ring's |f| sum
    continued geometrically at the sector decay rate plus 1e-15 (1 + |v_f|);
    above ``tol`` it raises QuadratureError.  For real positive coefficients
    the imaginary part is bounded by it too.  ``coeffs`` overrides the
    problem's coefficients, for complex points inside the validity sector
    |arg x_s| < pi*n_s/n.
    """
    p = problem.p
    _check_alpha(alpha)
    if p > 2:
        raise ValueError("contour evaluation is implemented for p <= 2 "
                         "(use the parametric solver for higher p)")
    x = [complex(c) for c in (coeffs if coeffs is not None else problem.coeffs)]
    if len(x) != p:
        raise ValueError(f"{len(x)} coefficients for p = {p}")
    rate = _sector_rate(problem.shape, x)
    if contour is None:
        contour = default_contour(problem, alpha, tol if tol is not None else 1e-7,
                                  coeffs=x)
    contour.validate_for(problem.shape, alpha)

    T, m = contour.height, contour.nodes_per_line
    v_f, v_b, v_c, ring, count = _grid_sum(problem.shape, alpha, x, contour.abscissas,
                                           T, 2 * m - 1)
    d_f, d_b = abs(v_f - v_b), abs(v_b - v_c)
    disc = d_f * d_f / d_b if d_b > d_f else d_f
    tail = ring / -math.expm1(-rate * T / (m - 1))
    err = disc + tail + 1e-15 * (1.0 + abs(v_f))
    if tol is not None and err > tol:
        raise QuadratureError(
            f"contour integral error estimate {err:g} exceeds requested {tol:g}")
    return QuadResult(value=v_f, err_estimate=err, evaluations=count)


def quadratic_mb_check(x: float, tol: float = 1e-8) -> tuple[float, float]:
    """principal_root_mb of Z^2 + x Z - 1 = 0 at ``tol``, and its closed form.

    The contour integral is (1/(4 pi i)) * integral over Re z = 1/2 of
    Gamma(z) Gamma((1-z)/2) / Gamma((3+z)/2) * x^-z dz, against
    -x/2 + sqrt(1 + (x/2)^2).  (The x^-z / Gamma((1-z)/2) combination is
    forced: the frequently misprinted x^z / Gamma((1+z)/2) variant has a
    double pole at z = -1 and is not an algebraic function of x at all.)
    """
    res = principal_root_mb(Problem(2, [1], [x]), tol=tol)
    return res.value.real, -x / 2.0 + math.sqrt(1.0 + (x / 2.0) ** 2)


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
    _sector_rate(problem.shape, problem.coeffs)
    contour.validate_for(problem.shape, alpha)
    m = contour.nodes_per_line
    _check_block(m ** p)
    t, h = _line_nodes(contour.height, m)
    idx = np.indices((m,) * p).reshape(p, -1)
    logI = _log_integrand(problem.shape, alpha, problem.coeffs, contour.abscissas, h,
                          idx - (m - 1) // 2)
    return t[idx].T, np.exp(logI)
