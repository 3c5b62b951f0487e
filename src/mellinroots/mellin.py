"""Forward Mellin-transform identity and inverse Mellin-Barnes evaluation.

The forward side checks, by direct quadrature over the orthant, that the
transform of Z^alpha equals the gamma-ratio kernel

    F(u_1, ..., u_p) = (alpha/n) Gamma(u) prod Gamma(u_i) / Gamma(omega),
    u = alpha/n - sum (n_i/n) u_i,   omega = u + sum u_i + 1,

on its strip: alpha > 0, Re u_i > 0 and Re u > 0, all finite.  _kernel_args
forms (u, omega) and _strip checks the strip, for every caller: the kernel,
the forward check, and the contour's abscissas and lattice tables.

The inverse side recovers Z^alpha as a p-fold integral of F * prod x_s^{-u_s}
along vertical lines Re u_s = a_s, evaluated by the trapezoid rule, which is
spectrally accurate for analytic integrands decaying on the lines.  The
truncation height comes from the Stirling decay of the kernel: the count of
gamma factors upstairs exceeds downstairs by p, giving exponential decay at
rate at least pi*n_s/n per line (minus |arg x_s| for complex coefficients,
whence the validity sector |arg x_s| < pi*n_s/n, where that rate is positive).
The step is sized for the value returned, the finest of three nested grids
(steps h_f, 2 h_f and 4 h_f, summed in one pass).  The trapezoid error falls
like C exp(-beta/h), so each halving of the step squares it, and the three
levels' differences give the finest level's error.  err_estimate adds to that
fit the tail beyond the height, the rounding floor 4 eps (h_f/2 pi)^p sum |f|,
and a bound on the points the Stirling mask dropped, whose cut is set from
the same tolerance as the step.

On the trapezoid grid u_s = a_s + i k_s h the derived arguments are lattice
values too: Im u = -(sum n_s k_s) h/n and Im omega = (sum (n-n_s) k_s) h/n.
Each gamma factor is therefore a table over its integer index, a combination
of the k_s with coefficients >= 0: log-gamma runs O((n_1+n_2) m) times, not
once per grid point, and over a rectangle of the grid each table is one
strided view.  The Stirling bound that masks the grid is linear between the
ring points where it bends, so its kept points lie in one polygon, covered by
cache-sized rectangles over bands of a few rows.  A point costs one real exp
of its summed log-magnitude views and a product of its unit-phase views.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .errors import ConvergenceConditionError, QuadratureError
from .gamma import gamma_ratio, log_gamma_array
from .oracle import Problem, Shape, _checked_shape
from .quadrature import integrate_orthant_log, log_one_plus_sum_exp

__all__ = [
    "Contour", "QuadResult", "kernel_value",
    "forward_mellin_check", "default_contour", "principal_root_mb",
    "contour_integrand",
]

# the Stirling mask's cut never exceeds 50: grid points whose Stirling-bound
# magnitude is below e^-50 of the center are always dropped
_MASK_CUT = 50.0

# the tolerance a contour is sized for, and the CLI bounds it by, when none is given
_SIZE_TOL = 1e-7

# |f| <= _MASK_SPREAD e^-E |f(0)| on the grid, E the Stirling exponent
# (_ring_exponent).  The largest |f|/(|f(0)| e^-E) over the points with
# E > 10 was 2.83 at p = 2 and 0.50 at p = 1, over 240 default grids with
# alpha from 0.3 to 3 and x_s from 1e-3 to 1e3.  It grows with alpha (125 on a
# p = 2 grid at alpha = 7), where the other terms of err_estimate dominated in
# every solve tried
_MASK_SPREAD = 4.0

# rounding floor _ROUNDING (h/2 pi)^p sum |f|: a term's summed logs and phase
# (t_s log|x_s| reaches tens) round by several ulps.  The value's error was at
# most 2.05 eps (h/2 pi)^p sum |f| over 270 rounding-bound p = 1 default grids
# (n <= 8, alpha 1 to 3, x from 1e-40 to 1, tol 1e-6 to 1e-12)
_ROUNDING = 4.0 * float(np.finfo(float).eps)

# points of the rectangles one contour solve sums (at most 0.52 M on
# criterion-02, 2.6 M on (5, (4, 1)) at tol 1e-12), checked before any is
# evaluated; memory is fixed per rectangle, so it bounds time (~20 ns a point)
_MAX_SOLVE_POINTS = 2 ** 25

# points of one trace, which holds every point at once: about 73 B a point at
# p = 2 and 427 B at p = 1, and writing its CSV takes about 14 us a row (a
# 1,048,577-node p = 1 trace took 14.9 s and peaked at 407 MB RSS); checked
# before anything is allocated
_MAX_TRACE_POINTS = 2 ** 20

# nodes per line of the grid one solve sums (7,129 at most over 3,000
# random_mb_problem draws, 262,369 for (8, (1,)) at x = 1e+-300); the line's
# nodes, the rows scanned for kept spans (at p = 2) and the lattice tables all
# grow with it, so it is checked before any of them is allocated
_MAX_LINE_NODES = 2 ** 20

# points and rows of one rectangle of the contour sum, whose buffers stay in
# cache; its columns span the mask's polygon over its rows (16 rows covered 1.005
# to 1.10 times their points on the grids measured, no row cap up to 1.5 times)
_BLOCK_POINTS = 2 ** 15
_BLOCK_ROWS = 16


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha < math.inf:
        raise ConvergenceConditionError(f"alpha must be positive and finite, got {alpha}")


def _kernel_args(shape: Shape, alpha: float, u_list: Sequence[complex]) -> tuple[complex, complex]:
    """The kernel's derived arguments u = alpha/n - sum (n_s/n) u_s and omega = u + sum u_s + 1."""
    n, exps = shape
    if len(u_list) != len(exps):
        raise ValueError(f"{len(u_list)} arguments for {len(exps)} exponents")
    u = alpha / n - sum((e / n) * uv for e, uv in zip(exps, u_list))
    return u, u + sum(u_list) + 1.0


def _strip(shape: Shape, alpha: float, u_list: Sequence[complex]) -> tuple[complex, complex]:
    """(u, omega) of _kernel_args on the kernel's strip; ConvergenceConditionError off it.

    The strip, for an alpha _check_alpha passed: each u_s finite with Re u_s > 0, and Re u > 0.
    """
    u, omega = _kernel_args(shape, alpha, u_list)
    if not all(0 < uv.real < math.inf and math.isfinite(uv.imag) for uv in u_list):
        raise ConvergenceConditionError(
            f"u_i must be finite with Re u_i > 0, got {tuple(map(complex, u_list))}")
    if u.real <= 0:
        raise ConvergenceConditionError(
            f"Re u = {u.real:g} <= 0: alpha too small for these u_i")
    return u, omega


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
            raise ValueError("height must be positive and finite")
        if self.nodes_per_line < 9 or self.nodes_per_line % 2 == 0:
            raise ValueError("nodes_per_line must be odd and >= 9")


@dataclass(frozen=True)
class QuadResult:
    value: complex
    err_estimate: float
    evaluations: int


def kernel_value(shape: Shape, alpha: float, u_list: Sequence[complex]) -> complex:
    """Gamma-ratio kernel at arbitrary pole-free arguments (no convergence check)."""
    shape = _checked_shape(shape)
    u_list = [complex(v) for v in u_list]
    u, omega = _kernel_args(shape, alpha, u_list)
    return (alpha / shape[0]) * gamma_ratio([u, *u_list], [omega])


def forward_mellin_check(
    shape: Shape,
    alpha: float,
    u_list: Sequence[complex],
    tol: float = 1e-6,
) -> tuple[complex, complex]:
    """Both sides of the transform identity for Z^alpha.

    The left side integrates Z^alpha * prod x_i^{u_i-1} over the orthant
    numerically, after the parametric substitution turns it into a
    Dirichlet-type integrand in xi; the right side is the gamma-ratio
    kernel.  Returns (lhs, rhs); callers assert |lhs - rhs| <= tol*|rhs|.
    Arguments off the kernel's strip raise ConvergenceConditionError.
    """
    n, exps = shape = _checked_shape(shape)
    _check_alpha(alpha)
    _, omega = _strip(shape, alpha, u_list)
    if len(exps) > 2:
        raise ValueError("forward check integrates numerically only for p <= 2")
    if any(abs(uv.imag) > 0 for uv in u_list):
        raise ValueError("forward check requires real u_i")

    u_re = [uv.real for uv in u_list]
    log_ratios = [math.log(e / n) for e in exps]

    def log_f(L: list[np.ndarray]) -> np.ndarray:
        lse_w = log_one_plus_sum_exp(L)                       # ln(1 + sum xi)
        lse_c = log_one_plus_sum_exp(
            [lr + Li for lr, Li in zip(log_ratios, L)])       # ln(1 + sum (n_k/n) xi_k)
        return lse_c - omega.real * lse_w

    lhs, _, _ = integrate_orthant_log(u_re, log_f, rel_tol=tol / 3.0)
    rhs = kernel_value(shape, alpha, u_list)
    return lhs, rhs


def _ring_exponent(shape: Shape, argx: Sequence[float]) -> tuple[list, list[float]]:
    """The ring max_s |t_s| = 1's corners and, at p = 2, where t_1, t_2, Im u or Im omega
    change sign, as (t_1, t_p) in angular order (t_1 = 0 at p = 1), and at each the Stirling
    exponent E, the log-decay of |integrand| from the grid center: linear between them."""
    n, exps = shape
    ring = [(0.0, 1.0), (0.0, -1.0)]
    if len(exps) == 2:
        ring = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        for a, b in [(1, 0), (0, 1), exps, [n - e for e in exps]]:
            turn = (b / max(a, b), -a / max(a, b))
            ring += [turn, (-turn[0], -turn[1])]
    ring.sort(key=lambda d: math.atan2(d[1], d[0]))
    (e1, ep), (a1, ap) = (0, *exps)[-2:], (0.0, *argx)[-2:]
    im_u = [-(e1 * t1 + ep * tp) / n for t1, tp in ring]
    return ring, [(math.pi / 2.0) * (abs(u) + abs(t1) + abs(tp) - abs(u + t1 + tp))
                  - (t1 * a1 + tp * ap) for u, (t1, tp) in zip(im_u, ring)]


def _setup(problem: Problem, alpha: float, tol: float = _SIZE_TOL,
           coeffs: Sequence[complex] | None = None,
           contour: Contour | None = None) -> SimpleNamespace:
    """The one check and sizing of a contour solve, for principal_root_mb,
    default_contour and contour_integrand: ValueError for p > 2, a bad tol or
    coefficient count, ConvergenceConditionError off the sector or the strip.
    Sizes default_contour's contour for ``tol`` unless ``contour`` is given.
    Returns the shape, alpha, x, the ring (_ring_exponent), the decay rate per
    line, the contour and the half-width of its pole-free strip.
    """
    shape = problem.shape
    n, exps = shape
    _check_alpha(alpha)
    if len(exps) > 2:
        raise ValueError("contour evaluation is implemented for p <= 2 "
                         "(use the parametric solver for higher p)")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    x = [complex(c) for c in (coeffs if coeffs is not None else problem.coeffs)]
    if len(x) != len(exps):
        raise ValueError(f"{len(x)} coefficients for p = {len(exps)}")
    if any(xv == 0 for xv in x):
        raise ConvergenceConditionError(
            "contour evaluation needs strictly positive |x_s| (x^-u undefined at 0)")
    argx = [cmath.phase(xv) for xv in x]
    rate = min(math.pi * e / n - abs(ax) for e, ax in zip(exps, argx))
    if rate <= 0:
        raise ConvergenceConditionError(
            "coefficients outside the validity sector |arg x_s| < pi*n_s/n")
    ring = _ring_exponent(shape, argx)
    if len(exps) == 2 and min(ring[1]) <= 0:
        raise ConvergenceConditionError(
            "coefficients outside the validity domain: the contour integrand "
            "does not decay along every direction of the double integral")
    a = contour.abscissas if contour is not None else (
        min(0.5, alpha / (exps[0] + sum(exps))),) * len(exps)
    # the strip's half-width: the poles of Gamma(u_s) at u_s = 0 and of
    # Gamma(u) at u = 0, one line moved
    u0, _ = _strip(shape, alpha, a)
    strip = min(min(a_s, u0 * n / e) for a_s, e in zip(a, exps))
    if contour is None:
        # x^-u oscillates like exp(-i t ln|x|), which eats into the alias margin
        osc = max(abs(cmath.log(abs(xv))) for xv in x)
        # 30/tol would overflow below 30/DBL_MAX: the sizing saturates there
        margin = math.log(30.0 / max(tol, 30.0 / np.finfo(float).max))
        height = (0.8 * margin + 5.0 + 0.3 * osc) / rate
        fine_step = 2.0 * math.pi * strip / (margin + 2.0 * strip * osc)
        # a tiny alpha narrows the strip and so the step; m stays finite (2^62 + 1
        # at most), so that _grid_sum's cap, not an overflow, refuses the grid
        half = height / (4.0 * fine_step) if fine_step > 0 else math.inf
        m = max(9, 4 * math.ceil(min(half, 2.0 ** 60)) + 1)
        contour = Contour(abscissas=a, height=height, nodes_per_line=m)
    return SimpleNamespace(shape=shape, alpha=alpha, x=x, ring=ring,
                           rate=rate, contour=contour, strip=strip)


def default_contour(
    problem: Problem,
    alpha: float,
    tol: float = _SIZE_TOL,
    coeffs: Sequence[complex] | None = None,
) -> Contour:
    """Contour sized from the Stirling decay bound so the tail is < tol/10.

    Abscissas balance the two analyticity-strip constraints (the poles of
    Gamma(u_s) at 0 and of Gamma(u) at 0): a = alpha/(n_1 + sum n_k), capped
    at 1/2.  The solve sums the fine grid of step h_f = h/2, so h_f is sized
    from the alias error exp(-strip (2 pi/h_f - 2 osc)) <= tol/30 of the
    trapezoid rule on a strip of half-width ``strip``, where |x^-u| grows like
    exp(strip osc) toward its edges.  m = 1 (mod 4), so the grids of step
    h/2, h and 2h all end at +-T.  The inputs are checked as principal_root_mb's.
    """
    return _setup(problem, alpha, tol, coeffs).contour


def _line_nodes(T: float, m: int) -> tuple[np.ndarray, float]:
    """Symmetric trapezoid nodes and step: t_j = j*h is exactly antisymmetric."""
    h = 2.0 * T / (m - 1)
    return (np.arange(m) - (m - 1) // 2) * h, h


def _lattice_tables(shape: Shape, alpha: float, x: Sequence[complex], a: Sequence[float],
                    h: float, ends: Sequence[np.ndarray]) -> list[tuple]:
    """Tables of the integrand's factors over the lattice values the grid spans.

    Each factor of F(u) prod x_s^-u_s depends on one integer index
    K = sum coef_s k_s (coef reduced by its gcd): log Gamma(u) + log(alpha/n),
    -log Gamma(omega) and, per line, log Gamma(u_s) - u_s log x_s.  Each is
    tabulated from the least to the greatest K at the offsets ``ends`` (one
    sequence per axis; every coef_s is >= 0, so a rectangle's corners bound K).
    The tables are slices of one array, formed in one pass: one log-gamma call,
    whose fixed cost dominates on small grids, and one exp for every phase.
    Returns ((c_1, c_p), lo, log_mag, phase) per factor (c_1 = 0 at p = 1),
    the real part of its log and exp(i times its imaginary part) at K - lo.
    """
    n, exps = shape
    u0, om0 = _kernel_args(shape, alpha, a)
    factors = [(exps, u0, -h / n), ([n - e for e in exps], om0, h / n),
               *(([int(r == s) for r in range(len(a))], a_s, h) for s, a_s in enumerate(a))]
    gcds = [math.gcd(*coef) for coef, _, _ in factors]
    coefs = [[cs // g for cs in coef] for g, (coef, _, _) in zip(gcds, factors)]
    K = np.dot(coefs, ends)
    los, his = K.min(axis=1).tolist(), K.max(axis=1).tolist()
    sizes = [hi + 1 - lo for lo, hi in zip(los, his)]
    spans = [slice(sum(sizes[:i]), sum(sizes[:i + 1])) for i in range(len(sizes))]
    z = np.empty(sum(sizes), dtype=complex)
    z_re, z_im = z.real, z.imag
    for (_, re, step), g, lo, hi, at in zip(factors, gcds, los, his, spans):
        z_re[at] = re
        np.multiply(np.arange(g * lo, g * hi + 1, g, dtype=float), step, out=z_im[at])
    lg = log_gamma_array(z)
    lg[spans[0]] += math.log(alpha / n)
    np.negative(lg[spans[1]], out=lg[spans[1]])
    for at, xv in zip(spans[2:], x):
        lg[at] -= z[at] * cmath.log(complex(xv))
    log_mag, phase = lg.real.copy(), np.exp(1j * lg.imag)
    return [((0, *coef)[-2:], lo, log_mag[at], phase[at])
            for coef, lo, at in zip(coefs, los, spans)]


def _rect_integrand(tables: list[tuple], k1: int, kp: int, mag: np.ndarray,
                    phase: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|f| and f/|f| into ``mag`` and ``phase`` at the offsets (k1 + i, kp + j) of their
    shape (k1 = 0 at p = 1), read from each table as a strided view numpy checks."""
    mags, phases = [], []
    for (c1, cp), lo, *pair in tables:
        at = c1 * k1 + cp * kp - lo
        for v, views in zip(pair, (mags, phases)):
            views.append(np.ndarray(mag.shape, v.dtype, v, at * v.itemsize,
                                    (c1 * v.itemsize, cp * v.itemsize)))
    np.add(mags[0], mags[1], out=mag)
    np.multiply(phases[0], phases[1], out=phase)
    for lm, ph in zip(mags[2:], phases[2:]):
        mag += lm
        phase *= ph
    return np.exp(mag, out=mag), phase


def _polygon(setup, t, cut):
    """Vertices (k_1, k_p) of the polygon E <= cut, in offsets of the grid t, clipped to
    its columns |k_p| <= c (Sutherland-Hodgman, one side at a time): d cut/E(d) for the
    ring points d (_ring_exponent), as E is positively homogeneous and linear between them."""
    c = (len(t) - 1) // 2
    scale = cut / t[c + 1]
    poly = [(d1 * scale / e, dp * scale / e) for (d1, dp), e in zip(*setup.ring)]
    for side in (1, -1):  # keep side k_p <= c
        clipped = []
        for (a1, ap), (b1, bp) in zip(poly[-1:] + poly[:-1], poly):
            if (side * ap <= c) != (side * bp <= c):
                clipped.append((a1 + (side * c - ap) / (bp - ap) * (b1 - a1), side * c))
            if side * bp <= c:
                clipped.append((b1, bp))
        poly = clipped
    return np.array(poly)


def _cover(setup, t, fold, cut):
    """(k_1, k_p, rows, columns) of rectangles holding every point with E <= cut.

    The whole box when T max E on the ring is at most the cut; else the rows the
    polygon E <= cut (_polygon) reaches, in bands of min(_BLOCK_ROWS, _BLOCK_POINTS)
    rows, each over the polygon's columns in its rows, cut into pieces of at most
    _BLOCK_POINTS points.  At p = 1 the one row has k_1 = 0; under the fold the
    rows are k_1 >= 0, row 0 a band of its own from k_p = 0.
    """
    c = (len(t) - 1) // 2
    last = c * (len(setup.x) - 1)
    first = 0 if fold else -last
    whole = t[-1] * max(setup.ring[1]) <= cut
    if not whole:
        rows, cols = _polygon(setup, t, cut).T
        # E rounds by a few ulps: 1e-6 of an offset of slack either side
        first = max(first, math.ceil(rows.min() - 1e-6))
        last = min(last, math.floor(rows.max() + 1e-6))
    r0 = [*[0] * fold, *range(first + fold, last + 1, min(_BLOCK_ROWS, _BLOCK_POINTS))]
    r1 = [r - 1 for r in r0[1:]] + [last]
    j0, j1 = [0 if fold and r == 0 else -c for r in r0], [c] * len(r0)
    if not whole:
        a, b = np.array(r0)[:, None], np.array(r1)[:, None]
        drow, dcol = np.roll(rows, -1) - rows, np.roll(cols, -1) - cols
        # the polygon's columns over a band: its vertices in the band and where its
        # edges, but a flat one, cross the band's first and last row
        s = [(r - rows) / np.where(drow == 0, np.nan, drow) for r in (a, b)]
        on = np.hstack([(rows >= a) & (rows <= b), *((v >= 0) & (v <= 1) for v in s)])
        at = np.hstack([np.tile(cols, (len(r0), 1)), *(cols + v * dcol for v in s)])
        # a band the polygon misses gets an empty range
        j0 = np.clip(np.ceil(np.where(on, at, np.inf).min(axis=1) - 1e-6), j0, c + 1)
        j1 = np.clip(np.floor(np.where(on, at, -np.inf).max(axis=1) + 1e-6), -c - 1, c)
    rects = []
    for r, e, lo, hi in zip(r0, r1, j0, j1):
        k, w = e + 1 - r, _BLOCK_POINTS // (e + 1 - r)
        rects += [(r, j, k, min(w, hi + 1 - j)) for j in range(int(lo), int(hi) + 1, w)]
    return np.array(rects, dtype=np.int64).reshape(-1, 4)


def _grid_sum(setup, T, m, tol, full_grid=False):
    """Stirling-masked trapezoid sums over the p-fold grid, from one pass.

    Returns (v_f, v_b, v_c, ring, total, masked, points summed): (step/2 pi)^p
    times the sums at steps h, 2h and 4h (every node, every second and every
    fourth from t = 0); (h/2 pi)^p times the sums of |f| on the ring
    max_s |t_s| = T and over every point summed; and a bound on the
    (h/2 pi)^p-weighted |f| of the points left out: those outside the
    rectangles (_cover) over the polygon of points whose Stirling exponent E
    is at most min(50, log(10 N/tol)), N the points of the (folded) box, where
    |f| <= _MASK_SPREAD e^-E |f(0)|.  Each rectangle (_rect_integrand) gives
    its sums, at 2h and 4h from [i::2, j::2] and [i::4, j::4] slices.  For
    real positive x, f(-t) = conj f(t): the rows k_1 >= 0 are summed, row 0
    from k_p = 0 with weight 1/2 at the center, only Re f is formed, and the
    sums and the bound are doubled.
    """
    x = setup.x
    p = len(x)
    if m > _MAX_LINE_NODES:
        raise QuadratureError(f"contour grid of {m} nodes per line exceeds {_MAX_LINE_NODES}")
    t, h = _line_nodes(T, m)
    c = (m - 1) // 2
    fold = not full_grid and all(v.imag == 0.0 and v.real > 0.0 for v in x)
    n_box = (m ** p + 1) // 2 if fold else m ** p
    # the points left out hold at most _MASK_SPREAD tol/10 |f(0)| (h/2 pi)^p
    mask_cut = min(_MASK_CUT, max(0.0, math.log(10.0 * n_box / tol)))
    rects = _cover(setup, t, fold, mask_cut).tolist()
    sizes = [r * j for _, _, r, j in rects]
    count = sum(sizes)
    if count > _MAX_SOLVE_POINTS:
        raise QuadratureError(f"contour grid of {count} points exceeds {_MAX_SOLVE_POINTS}")
    # (k_1, k_p) of each rectangle's first and last point
    corners = ([(k1, kp) for k1, kp, _, _ in rects]
               + [(k1 + r - 1, kp + j - 1) for k1, kp, r, j in rects])
    tables = _lattice_tables(setup.shape, setup.alpha, x, setup.contour.abscissas, h,
                             [*zip(*corners)][2 - p:])
    parts = []  # per rectangle: the three sums, the ring's and the |f| sum
    bufs = np.empty(max(sizes)), np.empty(max(sizes), dtype=complex)
    for r0, j0, r, j in rects:
        mag, phase = _rect_integrand(tables, r0, j0, *(b[:r * j].reshape(r, j) for b in bufs))
        total, ring = mag.sum(), 0.0
        # edge rows (none at p = 1) and columns: on the ring, with weight 1/2
        top, bottom = int(r0 == -c), int(r0 + r - 1 == c)
        for i in [0] * top + [-1] * bottom:
            ring += mag[i].sum()
            mag[i] *= 0.5
        for i in [0] * (j0 == -c) + [-1] * (j0 + j - 1 == c):
            ring += mag[top:r - bottom, i].sum()
            mag[:, i] *= 0.5
        if fold and r0 == j0 == 0:
            mag[0, 0] *= 0.5  # the center: row 0 starts there
        f = np.multiply(mag, phase.real, out=mag) if fold else np.multiply(phase, mag, out=phase)
        # the sub-grids of steps 2h and 4h start at the first offsets = 0 mod 2 and 4
        parts.append([f.sum(), *(f[-r0 % q::q, -j0 % q::q].sum() for q in (2, 4)), ring, total])
    # pairwise over the rectangles too: a C-ordered copy puts each sum's parts in one row
    sums = np.array(parts, dtype=complex).T.copy().sum(axis=1).tolist()
    # |f(0)|: each table's log-magnitude at K = 0 (the center, at E = 0, is kept)
    f0 = math.exp(sum(log_mag[-k0] for _, k0, log_mag, _ in tables))
    sums.append(_MASK_SPREAD * (n_box - count) * math.exp(-mask_cut) * f0)
    w = (h / (2.0 * math.pi)) ** p
    v_f, v_b, v_c, ring, total, masked = (
        (2.0 * v.real if fold else v) * (w * q) for v, q in zip(sums, (1, 2 ** p, 4 ** p, 1, 1, 1)))
    return complex(v_f), complex(v_b), complex(v_c), ring.real, total.real, masked, count


def _fine_error(d_f: float, d_b: float, rho: float) -> float:
    """Error of the finest of three trapezoid levels from its two differences.

    The error falls like C exp(-beta/h), so each halving of the step squares
    it: with d_b = |v_b - v_c| and d_f = |v_f - v_b| (about the errors of the
    levels of step 4h and 2h), the finest level's is about d_f^3/d_b^2.  The
    factor 10 keeps the fit a bound; where d_b <= d_f the levels have not
    begun to converge and d_f is kept.  The nearest pole, at distance d from
    the lines, makes beta >= 2 pi d, so the last halving gains at most
    rho = exp(-pi d/h_f): 2 rho d_f is kept where the coarse levels met by
    chance (the fit gave 1.3e-10 for 3.3e-10 on (7, (2,)), x = 0.01, alpha 3).
    """
    fit = 10.0 * d_f * (d_f / d_b) ** 2 if d_b > d_f else d_f
    return max(fit, 2.0 * rho * d_f)


def principal_root_mb(
    problem: Problem,
    alpha: float = 1.0,
    contour: Contour | None = None,
    tol: float | None = None,
    coeffs: Sequence[complex] | None = None,
) -> QuadResult:
    """Z(x)^alpha by the p-fold vertical-line integral of the kernel.

    One pass over 2m-1 nodes per line (step h/2 for the contour's m) gives
    the value v_f and the sub-sums v_b (step h) and v_c (2h).  err_estimate
    is the sum of four terms: the fine level's discretisation error fitted
    to the three levels (_fine_error); the boundary ring's |f| sum continued
    geometrically at the sector decay rate; the rounding floor
    4 eps (h/2 pi)^p sum |f|; and the bound on what the Stirling mask dropped.
    Above ``tol`` it raises QuadratureError.  ``tol`` (1e-7 when None) also
    sizes the default contour and the mask's cut.  For real positive
    coefficients the imaginary part is bounded by the estimate too.
    ``coeffs`` overrides the problem's coefficients, for complex points
    inside the validity sector |arg x_s| < pi*n_s/n.
    """
    size_tol = tol if tol is not None else _SIZE_TOL
    setup = _setup(problem, alpha, size_tol, coeffs, contour)
    T, m = setup.contour.height, setup.contour.nodes_per_line
    v_f, v_b, v_c, ring, total, masked, count = _grid_sum(setup, T, 2 * m - 1, size_tol)
    tail = ring / -math.expm1(-setup.rate * T / (m - 1))
    rho = math.exp(-math.pi * setup.strip * (m - 1) / T)
    err = _fine_error(abs(v_f - v_b), abs(v_b - v_c), rho) + tail + _ROUNDING * total + masked
    if tol is not None and not err <= tol:  # a NaN estimate is refused too
        raise QuadratureError(
            f"contour integral error estimate {err:g} exceeds requested {tol:g}")
    return QuadResult(value=v_f, err_estimate=err, evaluations=count)


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
    _setup(problem, alpha, contour=contour)
    m = contour.nodes_per_line
    if m ** p > _MAX_TRACE_POINTS:
        raise QuadratureError(f"contour trace of {m ** p} points exceeds {_MAX_TRACE_POINTS}")
    t, h = _line_nodes(contour.height, m)
    c = (m - 1) // 2
    tables = _lattice_tables(problem.shape, alpha, problem.coeffs, contour.abscissas, h,
                             [np.array([-c, c])] * p)
    mag, phase = _rect_integrand(tables, -c * (p - 1), -c,  # one row at p = 1
                                 *(np.empty((m ** (p - 1), m), dtype=d) for d in (float, complex)))
    idx = np.indices((m,) * p).reshape(p, -1)
    return t[idx].T, (mag * phase).ravel()
