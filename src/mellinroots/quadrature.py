"""Double-exponential quadrature of Mellin-type integrals over the positive orthant.

The half-line rule is tanh-sinh on (0, 1) composed with the rational map
xi = t/(1-t); algebraically the composite nodes collapse to

    xi_j = exp(pi * sinh(j*h)),   w_j = pi * h * cosh(j*h) * xi_j,

a trapezoid rule in the double-exponential variable (Trefethen & Weideman,
SIAM Rev. 56, 2014).  The integrals here are Mellin transforms

    int prod xi_i^(s_i - 1) f(xi) dxi

with f real and positive, and their integrands span hundreds of orders of
magnitude, so the integrator works in log coordinates L = ln xi and takes
the real log of f.  The powers never enter the per-point exponential: per
axis, Re s_i * L + ln w folds into one real vector and Im s_i into a
unit-modulus phase vector exp(i Im s_i L).  The node lattice is walked in
slabs of at most _SLAB_POINTS points: whole runs of the last axis, under a
block of index tuples of the leading axes.  Each slab costs one real exp per
point, a contraction with the last axis's phases and a dot with the leading
axes' phases, so memory does not grow with the level and complex exp runs
only on per-axis vectors.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

__all__ = ["halfline_rule", "log_one_plus_sum_exp", "integrate_orthant_log"]

_TAU_MAX = 6.0
_H0 = 0.5
_SLAB_POINTS = 2 ** 16
# Exponents are raised to this floor before exp: results near the subnormal
# range take exp's slow path (15 to 200 times the cost per point), and a
# floored point adds under 1e-304, so a level of M points moves by under
# M * 1e-304 in absolute terms.
_LOG_FLOOR = -700.0


def halfline_rule(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the half-line rule at a refinement level.

    Returns (L, logw) with L_j = ln(xi_j) and logw_j such that
    sum exp(logw_j + L_j + ln f(xi_j)) approximates the integral of f
    over [0, inf).  Level k halves the step of level k-1.
    """
    h = _H0 / 2 ** level
    j = np.arange(-round(_TAU_MAX / h), round(_TAU_MAX / h) + 1)
    tau = j * h
    L = np.pi * np.sinh(tau)
    logw = np.log(np.pi * h * np.cosh(tau))
    return L, logw


def log_one_plus_sum_exp(log_terms: Sequence[np.ndarray]) -> np.ndarray:
    """ln(1 + sum_k exp(t_k)) for real broadcastable arrays t_k.

    Formed as log1p of the sum, which is finite whenever sum_k exp(max t_k)
    is; every node of the half-line rule has |L| <= pi sinh(6) < 634.  That
    bound is checked on the operands' maxima and QuadratureError is raised
    when it overflows, so the result is never a silent inf.
    """
    with np.errstate(over="ignore"):
        bound = sum(np.exp(np.max(t)) for t in log_terms)
    if not np.isfinite(bound):
        raise QuadratureError("log_one_plus_sum_exp: sum of exp(t_k) overflows")
    acc = sum(np.exp(t) for t in log_terms)
    return np.log1p(acc, out=acc)


def integrate_orthant_log(
    s: Sequence[complex],
    log_f: Callable[[list[np.ndarray]], np.ndarray],
    rel_tol: float,
    min_level: int = 1,
    max_level: int | None = None,
) -> tuple[complex, float, int]:
    """Integrate prod xi_i^(s_i - 1) * exp(log_f(L)) over [0, inf)^p, p = len(s).

    ``log_f`` receives p arrays of log-coordinates L_i = ln xi_i that
    broadcast together to one slab of nodes (the leading axes gathered along
    dimension 0, the last axis along dimension 1) and returns the real log
    of f there.  Refines by halving the step until two successive levels
    agree to rel_tol; returns (value, error_estimate, evaluations), with
    N^p evaluations counted for a level of N nodes per axis.  ``max_level``
    defaults to 8 - p (level k has 24 * 2^k + 1 nodes per axis); when it
    too misses rel_tol, QuadratureError is raised.
    """
    s = [complex(v) for v in s]
    p = len(s)
    if max_level is None:
        max_level = 8 - p
    prev = None
    evals = 0
    for level in range(min_level, max_level + 1):
        L, logw = halfline_rule(level)
        n = L.size
        # xi^(s-1) * w = exp(log_mod) * phase, with w = exp(logw + L) the weight
        log_mod = [v.real * L + logw for v in s]
        phases = [np.exp(1j * v.imag * L) for v in s]
        last = np.stack([phases[-1].real, phases[-1].imag], axis=1)
        heads = n ** (p - 1)
        step = max(1, _SLAB_POINTS // n)
        value = 0j
        for start in range(0, heads, step):
            rest = np.arange(start, min(start + step, heads))
            head_log_mod = np.zeros(rest.size)
            head_phase = np.ones(rest.size, dtype=complex)
            coords = []
            for i in range(p - 1):      # node index of leading axis i
                rest, j = np.divmod(rest, n)
                head_log_mod += log_mod[i][j]
                head_phase *= phases[i][j]
                coords.append(L[j][:, None])
            coords.append(L[None, :])
            slab = np.add(log_f(coords), head_log_mod[:, None])
            slab += log_mod[-1]
            np.maximum(slab, _LOG_FLOOR, out=slab)
            np.exp(slab, out=slab)
            re_im = slab @ last
            value += complex(np.dot(head_phase, re_im[:, 0] + 1j * re_im[:, 1]))
        evals += n ** p
        if prev is not None:
            err = abs(value - prev)
            if err <= rel_tol * max(abs(value), 1e-300):
                return value, err, evals
        prev = value
    raise QuadratureError(
        f"orthant quadrature did not reach rel_tol={rel_tol:g} by level {max_level}")
