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

Levels are walked by cosets.  Level k+1's lattice is made of the 2^p
cosets of level k's lattice, each axis at offset 0 or h/2, and its sum is
theirs over 2^p.  By Poisson summation a sum S minus the same rule moved by
h/2 along axis i is twice the aliasing terms odd in axis i, so the p
one-axis cosets, summed first, probe level k's own error.  When the probe
meets the tolerance level k is returned, having summed only part of level
k+1; otherwise the other cosets complete level k+1, so no probe is wasted.

Most of a level's nodes carry terms far below what the tolerance can see.
The first level therefore records, per axis and node, the sum of the terms'
magnitudes on that node's slice.  From each end of each axis the box drops
the longest run of nodes whose slice sums add up to at most budget / 2p,
and is widened by one node, so by the union bound the first level's dropped
terms sum to at most the budget; a finer level's are a finer Riemann sum of
the same tails.  The budget is e^-2 * max(eps * sum|f|, rel_tol * |S_1| / 8)
(S_1 the first level's sum, rel_tol capped at 1); when the tolerance's
branch is the larger, it is added to every estimate returned.  The cosets
walk only the box.
"""

from __future__ import annotations

import itertools
import math
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
_EPS = float(np.finfo(float).eps)
# The node box may leave out terms summing to e^-2 * _TAIL_SHARE * rel_tol *
# |S_1| (S_1 the first level's sum); the estimate carries that on top.
_TAIL_SHARE = 1.0 / 8.0


def halfline_rule(level: int, shift: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the half-line rule at a refinement level.

    Returns (L, logw) with L_j = ln(xi_j) and logw_j such that
    sum exp(logw_j + L_j + ln f(xi_j)) approximates the integral of f
    over [0, inf).  Level k halves the step h of level k-1 and has nodes
    tau_j = j h, |tau_j| <= 6.  With shift = 1 the nodes are the midpoints
    (j + 1/2) h between those, with the same step and weight formula, so
    the two together are level k+1's nodes.
    """
    h = _H0 / 2 ** level
    n = round(_TAU_MAX / h)
    tau = (np.arange(-n, n + 1 - shift) + shift / 2) * h
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


def _level_sum(axes, log_f, profile=None):
    """The rule's sum over one box of nodes, walked in slabs.

    ``axes`` holds per axis (L, log_mod, phase) over its kept nodes.  Returns
    (value, points, sum_abs).  The slabs' partial sums are added exactly
    (math.fsum), so how the box is cut into slabs moves the value by no more
    than the slabs' own rounding.  With ``profile``, one zeroed array per
    axis, it also adds to each node's entry the magnitudes of the terms on
    that node's slice, and sum_abs is the total of one profile (0 without).
    """
    sizes = [a[0].size for a in axes]
    phase_last = axes[-1][2]
    last = np.stack([phase_last.real, phase_last.imag], axis=1)
    heads = math.prod(sizes[:-1])
    step = max(1, _SLAB_POINTS // sizes[-1])
    parts = []
    for start in range(0, heads, step):
        rest = np.arange(start, min(start + step, heads))
        head_log_mod = np.zeros(rest.size)
        head_phase = np.ones(rest.size, dtype=complex)
        coords, head_nodes = [], []
        for (L, log_mod, phase), n in zip(axes, sizes[:-1]):
            rest, j = np.divmod(rest, n)    # node index on this leading axis
            head_log_mod += log_mod[j]
            head_phase *= phase[j]
            coords.append(L[j][:, None])
            head_nodes.append(j)
        coords.append(axes[-1][0][None, :])
        slab = np.add(log_f(coords), head_log_mod[:, None])
        slab += axes[-1][1]
        np.maximum(slab, _LOG_FLOOR, out=slab)
        np.exp(slab, out=slab)
        if profile is not None:
            profile[-1] += slab.sum(axis=0)
            row_sum = slab.sum(axis=1)
            for prof, j in zip(profile, head_nodes):
                prof += np.bincount(j, row_sum, prof.size)
        re_im = slab @ last
        parts.append(complex(np.dot(head_phase, re_im[:, 0] + 1j * re_im[:, 1])))
    sum_abs = float(profile[-1].sum()) if profile is not None else 0.0
    return _fsum(parts), math.prod(sizes), sum_abs


def _fsum(values):
    """The exactly rounded sum of complex values, part by part."""
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


def _node_box(profile, budget):
    """Per axis, the index range (lo, hi) about the centre node worth keeping.

    From each end of each axis the longest run of nodes whose slice sums
    (``profile``) add up to at most budget / 2p is dropped, and the range is
    then widened by one node on each side, so by the union bound the dropped
    terms sum to at most ``budget``.  A sum that is not finite keeps every
    node.
    """
    mid = profile[0].size // 2
    if not math.isfinite(profile[0].sum()):
        return [(-mid, mid)] * len(profile)
    share = budget / (2 * len(profile))
    box = []
    for prof in profile:
        lo, hi = (int(np.searchsorted(np.cumsum(run), share, side="right"))
                  for run in (prof, prof[::-1]))
        box.append((max(lo - 1, 0) - mid, mid - max(hi - 1, 0)))
    return box


def _axes(s, level, shift=None, box=None):
    """Per axis (L, log_mod, phase) of the rule at ``level``, as _level_sum takes them.

    ``box`` holds per axis the node range (lo, hi) about tau = 0 (every node
    if None).  An axis whose ``shift`` is 1 takes the hi - lo midpoints
    between those nodes instead, so the 2^p shifts of level k over a box make
    up level k+1 over the same box.
    """
    axes = []
    for i, v in enumerate(s):
        d = shift[i] if shift else 0
        L, logw = halfline_rule(level, d)
        mid = L.size // 2
        lo, hi = box[i] if box else (-mid, mid)
        r = slice(mid + lo, mid + hi + 1 - d)
        # xi^(s-1) * w = exp(log_mod) * phase, with w = exp(logw + L) the weight
        axes.append((L[r], v.real * L[r] + logw[r], np.exp(1j * v.imag * L[r])))
    return axes


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
    of f there.  Returns (value, error_estimate, evaluations), the estimate
    being at most rel_tol * |value|; ``evaluations`` counts the points summed.
    ``rel_tol`` must be a nonnegative number (ValueError otherwise).

    Level k (N_k = 24 * 2^k + 1 nodes per axis, sum S_k) is certified by
    its p one-axis cosets S_(e_i), its lattice moved by half a step along
    axis i: S_k - S_(e_i) is twice the aliasing terms odd in axis i (Poisson
    summation), so the estimate is sum_i |S_k - S_(e_i)|, raised to the
    rounding floor 4 eps sum|f| (sum|f| from the first level).  If that
    misses rel_tol, the other 2^p - 1 - p cosets are summed, S_(k+1) is the
    exact sum of all 2^p cosets over 2^p, and S_(k+1) is returned if it is
    within rel_tol of S_k (the gap, raised to the floor, as its estimate);
    otherwise level k+1 is probed in turn.  ``max_level`` (default 8 - p)
    is the finest level returned; its probe missing rel_tol raises QuadratureError.

    The first level sums every node and yields the box the cosets sum: per
    axis, the nodes left once each end's longest run of slices with |f|
    summing to at most budget / 2p is dropped, widened by one node on each
    side, so the dropped terms sum to at most the budget (union bound).
    The budget is e^-2 * max(eps * sum|f|, min(rel_tol, 1) * |S_1| / 8).
    Its tolerance branch, ``trim`` (0 when the rounding branch is larger, as
    at rel_tol = 0), is added to the estimate before it is held against
    rel_tol, so the estimate covers what the box leaves out.
    """
    if not rel_tol >= 0.0:
        raise ValueError(f"rel_tol must be a nonnegative number, got {rel_tol!r}")
    s = [complex(v) for v in s]
    p = len(s)
    if max_level is None:
        max_level = 8 - p
    n = halfline_rule(min_level)[0].size
    profile = [np.zeros(n) for _ in s]
    value, evals, sum_abs = _level_sum(_axes(s, min_level), log_f, profile)
    rounding = math.exp(-2.0) * _EPS * sum_abs
    tail = math.exp(-2.0) * _TAIL_SHARE * min(rel_tol, 1.0) * abs(value)
    trim = tail if tail > rounding else 0.0
    box = _node_box(profile, trim or rounding)
    floor = 4.0 * _EPS * sum_abs
    shifts = sorted(itertools.product((0, 1), repeat=p), key=sum)[1:]   # one-axis first
    for level in range(min_level, max_level + 1):
        scale = 2 ** (level - min_level)
        level_box = [(lo * scale, hi * scale) for lo, hi in box]
        cosets = []
        for shift in shifts:
            coset, points, _ = _level_sum(_axes(s, level, shift, level_box), log_f)
            cosets.append(coset)
            evals += points
            if len(cosets) == p:
                err = max(math.fsum(abs(c - value) for c in cosets), floor) + trim
                if err <= rel_tol * abs(value):
                    return value, err, evals
                if level == max_level:      # the finest level is probed, never completed
                    break
        else:
            finer = _fsum([value, *cosets]) / 2 ** p
            err = max(abs(finer - value), floor) + trim
            if err <= rel_tol * abs(finer):
                return finer, err, evals
            value = finer
    raise QuadratureError(
        f"orthant quadrature did not reach rel_tol={rel_tol:g} by level {max_level}")
