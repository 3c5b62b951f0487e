"""Direct tests of the half-line double-exponential rule."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mellinroots import QuadratureError, log_gamma
from mellinroots.gamma import gamma_ratio
from mellinroots.quadrature import (_level_sum, halfline_rule, integrate_orthant_log,
                                    log_one_plus_sum_exp)


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


# points summed: every coarse node, then only the fine nodes in the coarse
# level's box (the full fine levels have 385^2 and 97^3 nodes)
TRIMMED_EVALS = {2: 90_992, 3: 344_386}


@pytest.mark.parametrize("s, omega, level", [
    ([0.4 + 0.3j, 0.7 - 0.2j], 2.5, 3),                 # 385 nodes: 3 slabs
    ([0.4 + 0.3j, 0.6 - 0.25j, 0.5 + 0.15j], 3.0, 1),  # 97 nodes: 14 slabs
])
def test_slab_contraction_matches_dense_sum(s, omega, level):
    def log_f(L):
        return -omega * log_one_plus_sum_exp(L)

    value, _, evals = integrate_orthant_log(
        s, log_f, rel_tol=1.0, min_level=level, max_level=level + 1)
    ref = _dense_orthant_sum(s, log_f, level + 1)
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
def test_trimmed_sum_matches_untrimmed_sum(p, real, re, im, gap):
    # the second level sums only the first level's box; the nodes it drops
    # are each below eps e^-2 sum|f| / N^p, so the value stays within a few
    # eps sum|f| of the same level's sum over every node
    s = [complex(a, 0.0 if real else b) for a, b in zip(re[:p], im[:p])]
    omega = sum(re[:p]) + gap

    def log_f(L):
        return -omega * log_one_plus_sum_exp(L)

    level = 5 - p       # 385, 193 and 97 nodes per axis at the trimmed level
    value, _, _ = integrate_orthant_log(
        s, log_f, rel_tol=math.inf, min_level=level - 1, max_level=level)
    L, logw = halfline_rule(level)
    untrimmed, _, _ = _level_sum(
        [(L, v.real * L + logw, np.exp(1j * v.imag * L)) for v in s], log_f)
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


def test_dirichlet_instance_sums_a_trimmed_box():
    # 49^3 + 97^3 + 193^3 = 8,219,379 points untrimmed to level 3
    value, _, evals = integrate_orthant_log(
        [0.3, 0.5 + 0.2j, 0.8], lambda L: -2.5 * log_one_plus_sum_exp(L),
        rel_tol=1e-6 / 3)
    assert evals == 3_007_639
    assert abs(value - gamma_ratio([0.3, 0.5 + 0.2j, 0.8, 2.5 - 1.6 - 0.2j], [2.5])) <= 1e-6


def test_orthant_memory_does_not_scale_with_the_lattice():
    # level 3 has 193^3 points; a dense complex tensor of them is 115 MB
    tracemalloc.start()
    try:
        integrate_orthant_log(
            [0.5 + 0.1j, 0.6, 0.7 - 0.2j],
            lambda L: -3.0 * log_one_plus_sum_exp(L),
            rel_tol=1.0, min_level=2, max_level=3)
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
    # level at p = 2 is 1537^2 points, about 3 M summed in all
    with pytest.raises(QuadratureError, match=f"by level {level}$"):
        integrate_orthant_log(
            [0.4 + 0.1j, 0.6 - 0.2j][:p], lambda L: -2.5 * log_one_plus_sum_exp(L),
            rel_tol=1e-30)
