"""Direct tests of the half-line double-exponential rule."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mellinroots import (QuadratureError, dirichlet_integral, forward_mellin_check, identities,
                         log_gamma, mellin, quadrature)
from mellinroots.gamma import gamma_ratio
from mellinroots.quadrature import (_axes, _fsum, _level_sum, _node_box, halfline_rule,
                                    integrate_orthant_log, log_one_plus_sum_exp)
from mellinroots.sampling import random_dirichlet_tuple, random_forward_tuple


def test_rule_integrates_exponential():
    L, logw = halfline_rule(3)
    # integral of e^-xi over [0, inf): weighted sum of exp(logw + L - e^L)
    total = float(np.sum(np.exp(logw + L - np.exp(L))))
    assert total == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("u", [0.3, 1.0, 2.5, 0.5 + 0.4j])
def test_rule_reproduces_gamma(u):
    value, err, evals = integrate_orthant_log(
        [u], lambda L: -np.exp(L[0]), rel_tol=1e-12, max_level=6)
    ref = np.exp(log_gamma(u))
    assert abs(value - ref) <= 1e-11 * abs(ref)
    assert evals > 0


def test_two_dimensional_product():
    # integral of e^-(xi1 + xi2) over the quarter plane = 1
    value, _, _ = integrate_orthant_log(
        [1.0, 1.0], lambda L: -np.exp(L[0]) - np.exp(L[1]), rel_tol=1e-10, max_level=5)
    assert value.real == pytest.approx(1.0, rel=1e-9)


def test_log_one_plus_sum_exp_matches_direct():
    rng = np.random.default_rng(50)
    t = rng.uniform(-5, 5, size=(3, 40))
    got = log_one_plus_sum_exp(list(t))
    ref = np.log1p(np.exp(t).sum(axis=0))
    assert np.allclose(got, ref, rtol=1e-12)


def test_log_one_plus_sum_exp_huge_arguments():
    got = log_one_plus_sum_exp([np.array([700.0]), np.array([650.0])])
    assert np.isfinite(got).all()
    assert got[0] == pytest.approx(700.0, abs=1e-12)


def test_log_one_plus_sum_exp_overflow_raises():
    with pytest.raises(QuadratureError):
        log_one_plus_sum_exp([np.array([800.0])])


def _on_axes(x, p):
    """x as p views, the i-th laid along axis i of a p-dimensional grid."""
    return [x.reshape([-1 if d == i else 1 for d in range(p)]) for i in range(p)]


def _dense_terms(s, log_f, level):
    """The rule's terms at one level as the full complex L^p tensor."""
    L, logw = halfline_rule(level)
    axes = _on_axes(L, len(s))
    exponent = log_f(axes) + sum(
        (v - 1.0) * a + (logw + L).reshape(a.shape) for v, a in zip(s, axes))
    return np.exp(exponent)


def _dense_orthant_sum(s, log_f, level):
    """The rule's sum at one level over every node."""
    return complex(np.sum(_dense_terms(s, log_f, level)))


def _walked_level(s, log_f, level, finer=1):
    """Level + finer as the walk builds it from cosets, and the points that built it.

    With rel_tol = 0 no level is certified, so the walk sums every coset up to
    max_level = level + finer, probes that level and raises; a spy on
    _level_sum keeps each sum: level in full, then the 2^p - 1 cosets of each
    level in turn, then the p one-axis cosets that probe the last level.
    """
    sums = []

    def spy(axes, log_f, profile=None):
        sums.append(_level_sum(axes, log_f, profile))
        return sums[-1]

    with mock.patch.object(quadrature, "_level_sum", spy), pytest.raises(QuadratureError):
        integrate_orthant_log(s, log_f, rel_tol=0.0, min_level=level, max_level=level + finer)
    value, per_level = sums[0][0], 2 ** len(s) - 1
    built = 1 + finer * per_level
    assert len(sums) == built + len(s)
    for k in range(finer):
        cosets = [v for v, _, _ in sums[1 + k * per_level:1 + (k + 1) * per_level]]
        value = _fsum([value, *cosets]) / 2 ** len(s)
    return value, sum(n for _, n, _ in sums[:built])


def _rule_axes(s, level, ranges=None):
    """_level_sum's axes for the rule at ``level``, over every node or over ``ranges``."""
    L, logw = halfline_rule(level)
    return [(L[r], v.real * L[r] + logw[r], np.exp(1j * v.imag * L[r]))
            for v, r in zip(s, ranges or [slice(None)] * len(s))]


# points summed: every coarse node, then the 2^p - 1 cosets over the coarse
# level's box (the full fine levels have 385^2 and 97^3 nodes)
TRIMMED_EVALS = {2: 73_378, 3: 284_110}


@pytest.mark.parametrize("s, omega, level", [
    ([0.4 + 0.3j, 0.7 - 0.2j], 2.5, 3),                 # 385 nodes: 3 slabs
    ([0.4 + 0.3j, 0.6 - 0.25j, 0.5 + 0.15j], 3.0, 1),  # 97 nodes: 14 slabs
])
def test_slab_contraction_matches_dense_sum(s, omega, level):
    def log_f(L):
        return -omega * log_one_plus_sum_exp(L)

    ref = _dense_orthant_sum(s, log_f, level + 1)
    # the fine level as the first level, every node walked in slabs
    value, _, _ = integrate_orthant_log(
        s, log_f, rel_tol=1.0, min_level=level + 1, max_level=level + 2)
    assert abs(value - ref) <= 1e-13 * abs(ref)
    # the fine level built from the coarse level's cosets
    value, evals = _walked_level(s, log_f, level)
    assert abs(value - ref) <= 1e-13 * abs(ref)
    n_coarse, n_fine = (halfline_rule(k)[0].size for k in (level, level + 1))
    assert evals == TRIMMED_EVALS[len(s)] < n_coarse ** len(s) + n_fine ** len(s)


@settings(max_examples=40, deadline=None)
@given(p=st.integers(1, 3), real=st.booleans(),
       re=st.lists(st.floats(0.15, 1.5), min_size=3, max_size=3),
       im=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       gap=st.floats(0.05, 3.0))
@example(p=3, real=False, re=[1.3653899290000076, 0.6839990998669195, 0.99999],
         im=[0.0, 0.0, 1.0], gap=0.05078125)
@example(p=3, real=True, re=[1.0, 1.0, 1.0], im=[0.0, 0.0, 0.0], gap=0.0625)
@example(p=3, real=False, re=[1.5, 1.25, 1.0], im=[0.0, 0.0, 0.0], gap=0.0546875)
def test_trimmed_sum_matches_untrimmed_sum(p, real, re, im, gap):
    # the second level sums only the first level's box; at rel_tol = 0 the
    # nodes it drops add up to about e^-2 eps sum|f|, so the value stays
    # within a few eps sum|f| of the same cosets summed over every node
    s = [complex(a, 0.0 if real else b) for a, b in zip(re[:p], im[:p])]
    omega = sum(re[:p]) + gap

    def log_f(L):
        return -omega * log_one_plus_sum_exp(L)

    level = 5 - p       # 385, 193 and 97 nodes per axis at the trimmed level
    value, _ = _walked_level(s, log_f, level - 1)
    # combined as the walk combines its cosets, so only the trimming separates the two
    untrimmed = _fsum([_level_sum(_axes(s, level - 1, shift), log_f)[0]
                       for shift in itertools.product((0, 1), repeat=p)]) / 2 ** p
    L, logw = halfline_rule(level)
    terms = _dense_terms(s, log_f, level)
    abs_terms = np.abs(terms)
    eps = np.finfo(float).eps
    assert abs(value - untrimmed) <= 16 * eps * np.sum(abs_terms)
    # the walk and the dense reference add each term's exponent (log f, then
    # (s - 1) L + ln w + L per axis) in different orders, and the walk takes
    # Im s L apart into per-axis phases, so a term moves by a few eps times
    # the magnitudes of its exponent's parts
    axes = _on_axes(L, p)
    parts = np.abs(log_f(axes)) + sum(
        abs(v - 1.0) * np.abs(a) + np.abs(logw + L).reshape(a.shape) for v, a in zip(s, axes))
    assert abs(value - np.sum(terms)) <= eps * np.sum(abs_terms * (4 + parts))


@pytest.mark.parametrize("s, omega, level, finer", [
    ([0.3 + 0.2j], 1.4, 1, 3),
    ([0.4 + 0.3j, 0.7 - 0.2j], 2.5, 2, 2),
    ([0.4 + 0.3j, 0.6 - 0.25j, 0.5 + 0.15j], 3.0, 1, 2),
])
def test_coset_walk_sums_the_same_level(s, omega, level, finer):
    # level + finer, built from cosets a level at a time (the box doubling
    # each level), is that level summed directly over the first level's box,
    # up to the slabs' rounding
    def log_f(L):
        return -omega * log_one_plus_sum_exp(L)

    n = halfline_rule(level)[0].size
    profile = [np.zeros(n) for _ in s]
    _, _, sum_abs = _level_sum(_rule_axes(s, level), log_f, profile)
    # at rel_tol = 0 the box may drop e^-2 eps sum|f|, the rounding floor's share
    box = _node_box(profile, math.exp(-2.0) * np.finfo(float).eps * sum_abs)
    mid, scale = (n - 1) * 2 ** (finer - 1), 2 ** finer
    ranges = [slice(mid + lo * scale, mid + hi * scale + 1) for lo, hi in box]
    direct, points, sum_abs = _level_sum(_rule_axes(s, level + finer, ranges), log_f,
                                         [np.zeros(r.stop - r.start) for r in ranges])
    walked, _ = _walked_level(s, log_f, level, finer)
    assert abs(walked - direct) <= 16 * np.finfo(float).eps * sum_abs
    assert points < ((n - 1) * scale - 1) ** len(s)     # the box leaves nodes out


def test_dirichlet_instance_sums_a_trimmed_box():
    # 49^3 + 97^3 + 193^3 = 8,219,379 points untrimmed to level 3; level 2
    # is certified by its three one-axis cosets, which are part of level 3
    value, _, evals = integrate_orthant_log(
        [0.3, 0.5 + 0.2j, 0.8], lambda L: -2.5 * log_one_plus_sum_exp(L),
        rel_tol=1e-6 / 3)
    assert evals == 681_779
    assert abs(value - gamma_ratio([0.3, 0.5 + 0.2j, 0.8, 2.5 - 1.6 - 0.2j], [2.5])) <= 1e-6


def test_box_drops_at_most_its_budget():
    # a p = 3 Dirichlet instance with complex u at the verify suites'
    # tolerance: the tolerance's branch sets the budget, so it is the trim the
    # estimate carries; the terms outside the box sum to at most the budget on
    # the first level (49^3 nodes) and on the next (97^3), whose tails are a
    # finer Riemann sum of the same integrand
    s = [0.3, 0.5 + 0.2j, 0.8]

    def log_f(L):
        return -2.5 * log_one_plus_sum_exp(L)

    seen = []

    def spy(profile, budget):
        seen.append((_node_box(profile, budget), budget))
        return seen[-1][0]

    with mock.patch.object(quadrature, "_node_box", spy):
        _, estimate, _ = integrate_orthant_log(s, log_f, rel_tol=1e-6 / 3)
    [(box, budget)] = seen
    eps = np.finfo(float).eps
    assert budget > math.exp(-2.0) * eps * np.sum(np.abs(_dense_terms(s, log_f, 1)))
    for level in (1, 2):
        terms = np.abs(_dense_terms(s, log_f, level))
        mid, scale = terms.shape[0] // 2, 2 ** (level - 1)
        kept = np.zeros(terms.shape, dtype=bool)
        kept[tuple(slice(mid + lo * scale, mid + hi * scale + 1) for lo, hi in box)] = True
        dropped = math.fsum(terms[~kept])
        assert 0.0 < dropped <= budget
    assert estimate >= budget


def test_orthant_memory_does_not_scale_with_the_lattice():
    # level 3, the first level here, sums all its 193^3 points; a dense
    # complex tensor of them is 115 MB
    tracemalloc.start()
    try:
        integrate_orthant_log(
            [0.5 + 0.1j, 0.6, 0.7 - 0.2j],
            lambda L: -3.0 * log_one_plus_sum_exp(L),
            rel_tol=1.0, min_level=3, max_level=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_unreachable_tolerance_raises():
    with pytest.raises(QuadratureError):
        integrate_orthant_log(
            [0.5], lambda L: -np.exp(L[0]),
            rel_tol=1e-30, max_level=3)


@pytest.mark.parametrize("p, level", [(1, 7), (2, 6)])
def test_default_depth_is_eight_minus_p(p, level):
    # complex exponents, so two levels never agree to the last bit; the last
    # level at p = 2 is 1537^2 points, and with the probe of its two one-axis
    # cosets 2.9 M points are summed in all
    with pytest.raises(QuadratureError, match=f"by level {level}$"):
        integrate_orthant_log(
            [0.4 + 0.1j, 0.6 - 0.2j][:p], lambda L: -2.5 * log_one_plus_sum_exp(L),
            rel_tol=1e-30)


@pytest.mark.parametrize("rel_tol", [math.nan, -1e-6])
def test_bad_tolerance_raises_before_any_level(rel_tol):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return _level_sum(*args, **kwargs)

    with mock.patch.object(quadrature, "_level_sum", spy):
        with pytest.raises(ValueError, match="rel_tol"):
            integrate_orthant_log([0.5] * 3, lambda L: -2.5 * log_one_plus_sum_exp(L), rel_tol)
        with pytest.raises(ValueError, match="rel_tol"):
            dirichlet_integral([0.5] * 3, 2.5, tol=rel_tol)
        with pytest.raises(ValueError, match="rel_tol"):
            forward_mellin_check((3, (2, 1)), 2.0, (0.5, 0.4), tol=rel_tol)
    assert calls == []


@pytest.mark.parametrize("shape, alpha, u", [
    ((6, (5, 1)), 6.854908363579986, (1.1210708390434385, 0.4825521500224513)),
    ((6, (5, 2)), 7.017597607207768, (1.1051470352026969, 0.443441392590941)),
])
def test_forward_mellin_stalls_are_not_certified(shape, alpha, u):
    # levels that stall: on the first, levels 2 and 3 are 5.8e-5 and 6.0e-5
    # from the kernel, so a fit on two level gaps would pass a gap of 6.0e-5
    # (2.5e-6 on the second); the cosets probe a level's own error
    lhs, rhs = forward_mellin_check(shape, alpha, u, tol=1e-6)
    assert abs(lhs - rhs) <= 1e-6 * abs(rhs)


def test_estimate_bounds_the_error_on_verify_draws():
    # the verify suites' draws at their tolerance: dirichlet at p = 2 and 3,
    # the forward transform at p = 2; the gamma forms are good to about
    # 1e-14, which the bound allows on top of the estimate
    returned = []

    def spy(*args, **kwargs):
        returned.append(integrate_orthant_log(*args, **kwargs))
        return returned[-1]

    rng = np.random.default_rng(29)
    draws = [(dirichlet_integral, random_dirichlet_tuple(rng, p)) for p in [2] * 80 + [3] * 24]
    draws += [(forward_mellin_check, random_forward_tuple(rng, 2)) for _ in range(80)]
    # verify --suite mellin --seed 23, draw 6: kernel Re u is 0.085, and only
    # the probe of the depth cap's level (6) certifies it
    draws.append((forward_mellin_check,
                  ((5, (3, 1)), 4.7199808339433496, (1.0513410130861882, 1.1390292458960185))))
    with mock.patch.object(identities, "integrate_orthant_log", spy), \
            mock.patch.object(mellin, "integrate_orthant_log", spy):
        for check, draw in draws:
            numeric, closed = check(*draw, tol=1e-6)
            value, estimate, _ = returned[-1]
            assert value == numeric
            assert abs(numeric - closed) <= estimate + 1e-14 * abs(closed), draw
