"""Shift structure of the gamma-ratio kernel and the PDE system it induces.

Shifting one kernel argument by n multiplies the kernel by a ratio of polynomials f_s/g_s that
factors completely into linear forms c_1 u_1 + ... + c_p u_p + a with rational c_i (built from
the gamma recurrence); shift_ratio_factors returns them as plain (f_s, g_s) tuples of
LinearFactor, line s at position s.  Because monomials x^{-u} are eigenfunctions of the Euler
operators theta_i = -x_i d/dx_i, those shift relations turn into a system of finite-order PDEs
for y = Z^alpha, which this module verifies by finite differences in log coordinates (where
theta_i = -d/dt_i).  Both checks report their worst value over the lines by _worst, NaN if any
line gives NaN.

For p = 1, series_coefficients gives Mellin's coefficients as finite products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import GammaOverflowError, StepTooSmallError
from .mellin import kernel_value
from .oracle import Problem, Shape, _checked_shape
from .param import psi_inverse

__all__ = [
    "LinearFactor", "shift_ratio_factors",
    "check_functional_equation", "pde_residual", "series_coefficients",
    "fd_weights",
]

# largest k_max series_coefficients takes; O(min(n, k_max)^2 + n k_max), at most 4 s on a Xeon
_KMAX = 2 ** 16


def _worst(values) -> float:
    """The largest of values, NaN as soon as any is NaN, 0.0 for none."""
    return functools.reduce(lambda w, v: v if v > w or math.isnan(v) else w, values, 0.0)


@dataclass(frozen=True)
class LinearFactor:
    """The linear form c_1 u_1 + ... + c_p u_p + a with rational c_i."""

    coeffs: tuple[Fraction, ...]
    offset: float

    def __call__(self, u_list: Sequence[complex]) -> complex:
        return self.offset + sum(float(c) * u for c, u in zip(self.coeffs, u_list))

    def shifted(self, delta: float) -> "LinearFactor":
        return LinearFactor(self.coeffs, self.offset + delta)


def shift_ratio_factors(
    shape: Shape, alpha: float,
) -> list[tuple[tuple[LinearFactor, ...], tuple[LinearFactor, ...]]]:
    """Factor pairs (f_s, g_s) with F(..., u_s + n, ...) = (f_s/g_s) F(u), line s at position s.

    Shifting u_s by n lowers u by n_s and raises u + sum(u) + 1 by
    n - n_s, so the gamma recurrence gives
    f_s = prod_{j=0}^{n-1} (u_s + j),
    g_s = prod_{j=1}^{n_s} (u - j) * prod_{j=1}^{n-n_s} (u + sum(u) + j).
    Every factor is a linear form with rational coefficients.
    """
    n, exps = _checked_shape(shape)
    p = len(exps)
    u_form = LinearFactor(tuple(Fraction(-e, n) for e in exps), alpha / n)
    sum_form = LinearFactor(tuple(Fraction(n - e, n) for e in exps), alpha / n)

    pairs = []
    for s, ns in enumerate(exps):
        basis = tuple(Fraction(1) if i == s else Fraction(0) for i in range(p))
        f = tuple(LinearFactor(basis, float(j)) for j in range(n))
        g = tuple(u_form.shifted(-float(j)) for j in range(1, ns + 1)) + \
            tuple(sum_form.shifted(float(j)) for j in range(1, n - ns + 1))
        pairs.append((f, g))
    return pairs


def check_functional_equation(
    shape: Shape,
    alpha: float,
    u_sample: Sequence[complex],
    kernel_fn: Callable[[Sequence[complex]], complex] | None = None,
) -> float:
    """Worst relative error of the shift relation over all lines at u_sample (NaN if any is)."""
    n, exps = shape
    if kernel_fn is None:
        kernel_fn = lambda ul: kernel_value(shape, alpha, ul)
    pairs = shift_ratio_factors(shape, alpha)
    u = [complex(v) for v in u_sample]
    base = kernel_fn(u)
    errors = []
    for s, (f, g) in enumerate(pairs):
        shifted = list(u)
        shifted[s] += n
        lhs = kernel_fn(shifted)
        ratio = (math.prod((fac(u) for fac in f), start=1 + 0j)
                 / math.prod((fac(u) for fac in g), start=1 + 0j))
        errors.append(abs(lhs - ratio * base) / abs(lhs))
    return _worst(errors)


def fd_weights(order: int, offsets: Sequence[float]) -> np.ndarray:
    """Finite-difference weights for the order-th derivative at 0 (Fornberg)."""
    x = np.asarray(offsets, dtype=float)
    npt = x.size
    if order >= npt:
        raise ValueError("need more points than the derivative order")
    c = np.zeros((npt, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0]
    for i in range(1, npt):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


def _stencil_halfwidth(order: int) -> int:
    # smallest symmetric stencil that is 4th-order accurate for this order
    return (order + 1) // 2 + 1 if order > 0 else 0


@functools.lru_cache(maxsize=None)
def _central_weights(order: int) -> np.ndarray:
    """fd_weights of the minimal 4th-order symmetric stencil for ``order``, read-only."""
    w = _stencil_halfwidth(order)
    weights = fd_weights(order, np.arange(-w, w + 1))
    weights.flags.writeable = False
    return weights


def _expand_factors(factors: Sequence[LinearFactor], p: int) -> dict[tuple[int, ...], float]:
    """Multiply linear factors into monomial coefficients over theta indices."""
    poly = {(0,) * p: 1.0}
    for fac in factors:
        new: dict[tuple[int, ...], float] = {}
        for beta, coef in poly.items():
            if fac.offset != 0.0:
                new[beta] = new.get(beta, 0.0) + coef * fac.offset
            for i, c in enumerate(fac.coeffs):
                if c != 0:
                    b = (*beta[:i], beta[i] + 1, *beta[i + 1:])
                    new[b] = new.get(b, 0.0) + coef * float(c)
        poly = new
    return poly


def _mixed_derivative(grid: np.ndarray, beta: tuple[int, ...], h: float) -> float:
    """D^beta of grid data at the center, minimal 4th-order stencils per axis."""
    out = grid
    for mu in beta:
        k = out.shape[0] // 2
        if mu == 0:
            out = out[k]
            continue
        w = _stencil_halfwidth(mu)
        wts = _central_weights(mu) / h ** mu
        out = np.tensordot(wts, out[k - w: k + w + 1], axes=(0, 0))
    return float(out)


def _apply_theta_poly(poly, grid, h) -> tuple[float, float]:
    """(value, magnitude scale) of poly(theta) applied to grid data at center."""
    total = scale = 0.0
    for beta, coef in poly.items():
        term = coef * (-1.0) ** sum(beta) * _mixed_derivative(grid, beta, h)
        total += term
        scale += abs(term)
    return total, scale


def _root_power_grid(problem: Problem, alpha: float, h: float, H: int) -> np.ndarray:
    t0 = np.log(problem.coeffs)
    grid = np.empty((2 * H + 1,) * problem.p)
    for idx in np.ndindex(*grid.shape):
        coeffs = np.exp(t0 + h * (np.array(idx) - H))
        point = psi_inverse(coeffs, problem.shape)
        grid[idx] = point.W ** (-alpha / problem.n)
    return grid


def _pde_residual_at(problem: Problem, alpha: float, h: float) -> float:
    n, p = problem.n, problem.p
    H = _stencil_halfwidth(n)
    y = _root_power_grid(problem, alpha, h, H)
    offs = np.arange(-H, H + 1)
    residuals = []
    for s, (f, g) in enumerate(shift_ratio_factors(problem.shape, alpha)):
        xs = problem.coeffs[s] * np.exp(h * offs)
        w = y * (xs ** n).reshape((-1,) + (1,) * (p - 1 - s))  # x_s^n * y, x_s along axis s
        lhs, sc1 = _apply_theta_poly(_expand_factors(f, p), y, h)
        rhs, sc2 = _apply_theta_poly(_expand_factors(g, p), w, h)
        residuals.append(abs(lhs - rhs) / max(sc1 + sc2, 1e-300))
    return _worst(residuals)


def pde_residual(problem: Problem, alpha: float, h: float = 1e-2) -> float:
    """Max normalized residual of f_s(theta) y = g_s(theta)(x_s^n y) over s, NaN if any is.

    theta_i = -x_i d/dx_i is applied by 4th-order central differences in log coordinates with
    step h, which must satisfy 0 < h < inf.  Raises StepTooSmallError when halving the step makes
    the residual worse (roundoff domination).
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    if any(c <= 0 for c in problem.coeffs):
        raise ValueError("PDE check needs strictly positive coefficients")
    res = _pde_residual_at(problem, alpha, h)
    res_coarse = _pde_residual_at(problem, alpha, 2.0 * h)
    if res > max(res_coarse, 1e-14):
        raise StepTooSmallError(
            f"residual {res:g} at h={h:g} exceeds {res_coarse:g} at 2h: "
            "step dominated by roundoff")
    return res


@np.errstate(over="ignore", invalid="ignore")  # a non-finite coefficient raises below
def series_coefficients(shape: Shape, alpha: float, k_max: int) -> list[float]:
    """Taylor coefficients of Z(x)^alpha in x (p = 1), by Mellin's finite product.

    With a_k = (alpha + n_1 k)/n, c_k = (-1)^k/k! (alpha/n) prod_{j=1}^{k-1} (a_k - j), which is
    Gamma(a_k)/Gamma(a_k - k + 1) at integer k (DLMF 5.2.5): c_0 = 1 and no pole.  c_k for k < n
    is that product; c_{k+n} is c_k times the exact n-step ratio (-1)^n prod_{i<n_1} (a_k + i)/
    (k+1+i) prod_{i<n-n_1} (a_k - k - i)/(k+n_1+1+i), so an exact zero stays exact.  Each ratio
    and each running product down a class of k mod n is a mantissa in [1/2, 1) times a separate
    power of two (frexp, exact), so only a c_k itself can leave double range.  alpha is finite,
    0 <= k_max <= 2^16; a c_k past double range raises GammaOverflowError.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if len(shape[1]) != 1:
        raise ValueError("residue series is implemented for p = 1 only")
    n, (n1,) = _checked_shape(shape)
    if k_max < 0:
        raise ValueError(f"kmax must be nonnegative, got {k_max}")
    if k_max > _KMAX:
        raise ValueError(f"kmax must be at most {_KMAX}, got {k_max}")
    k = np.arange(k_max + 1.0)  # every factor below is (alpha + an exact integer) * 1/(n m)
    head = np.concatenate([[1.0], (-1.0) ** k[1:n] * alpha / (n * k[1:n])])
    # a_k - j over s_k + 1 - j for j <= s_k = floor(a_k), else over j: monotone partial products
    s = np.clip(np.floor((alpha + n1 * k[:n]) / n), 0, k[:n] - 1)
    for j, lo in enumerate(np.searchsorted(s, k[1:head.size - 1]), 1):  # O(min(n, k_max)^2)
        head[j + 1:lo] *= (alpha + (n1 * k[j + 1:lo] - n * j)) * (1.0 / (n * j))
        head[lo:] *= (alpha + (n1 * k[lo:n] - n * (s[lo:] + 1 - j))) * (1.0 / (n * j))
    kk = k[:-n]  # the k that have a c_{k+n}: none when k_max < n
    inv = 1.0 / (n * k[1:])
    m = np.full(kk.size, (-1.0) ** n)  # c_{k+n}/c_k, kept as m 2^e with m in [1/2, 1) or 0
    e = np.zeros(kk.size, np.int64)
    up = n1 * kk
    for i in range(n1 if kk.size else 0):  # prod_{i<n_1} (a_k + i)/(k+1+i)
        m *= (alpha + (up + n * i)) * inv[i:i + kk.size]
        e += np.frexp(m, out=(m, None))[1]  # m back to [1/2, 1), m 2^e unchanged
    down = (n1 - n) * kk
    for i in range(n - n1 if kk.size else 0):  # prod_{i<n-n_1} (a_k - k - i)/(k+n_1+1+i)
        m *= (alpha + (down - n * i)) * inv[n1 + i:n1 + i + kk.size]
        e += np.frexp(m, out=(m, None))[1]
    head_m, head_e = np.frexp(head)  # one row per k // n, one column per class of k mod n
    m = np.concatenate([head_m, m, np.ones(-m.size % head.size)]).reshape(-1, head.size)
    e = np.concatenate([head_e, e, np.zeros(-e.size % head.size, np.int64)]).reshape(m.shape)
    for lo in range(0, len(m), 512):  # c_{k+n} = c_k * c_{k+n}/c_k down each class, in blocks
        rows = slice(max(lo - 1, 0), lo + 512)  # from row lo - 1, which is done and carries over
        m[rows], de = np.frexp(np.cumprod(m[rows], axis=0))  # 513 factors >= 1/2: no underflow
        e[rows] = np.cumsum(e[rows], axis=0) + de
    c = np.ldexp(m, e).ravel()[:k.size] + 0.0  # no -0.0
    overflow = np.flatnonzero(~np.isfinite(c))
    if overflow.size:
        raise GammaOverflowError(f"series coefficient c[{overflow[0]}] exceeds double range")
    return c.tolist()
