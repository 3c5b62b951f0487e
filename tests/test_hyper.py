"""Tests for shift factors, the Euler-operator PDE system, and residue series."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mellinroots import (GammaOverflowError, Problem, StepTooSmallError,
                         check_functional_equation, pde_residual, principal_root,
                         series_coefficients, shift_ratio_factors)
from mellinroots import hyper
from mellinroots.hyper import _worst, fd_weights
from mellinroots.mellin import kernel_value
from mellinroots.param import psi_inverse


def test_fd_weights_classic_stencils():
    assert fd_weights(1, range(-2, 3)) == pytest.approx(
        [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12])
    assert fd_weights(2, range(-2, 3)) == pytest.approx(
        [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12])


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_central_weights_are_built_once_and_read_only(order):
    w = hyper._stencil_halfwidth(order)
    weights = hyper._central_weights(order)
    assert np.array_equal(weights, fd_weights(order, np.arange(-w, w + 1)))
    assert hyper._central_weights(order) is weights
    with pytest.raises(ValueError):
        weights[0] = 0.0


def test_factor_structure_quadratic():
    pairs = shift_ratio_factors((2, (1,)), 1.0)
    assert len(pairs) == 1
    f, g = pairs[0]
    # f = u1 (u1 + 1)
    assert [(fac.coeffs, fac.offset) for fac in f] == [
        ((Fraction(1),), 0.0), ((Fraction(1),), 1.0)]
    # g = (u - 1)(u + u1 + 1) with u = 1/2 - u1/2
    assert [(fac.coeffs, fac.offset) for fac in g] == [
        ((Fraction(-1, 2),), -0.5), ((Fraction(1, 2),), 1.5)]


def test_factor_coefficients_rational():
    for shape, alpha in [((2, (1,)), 1.0), ((5, (4, 2, 1)), 2.0), ((7, (3, 2)), 3.0)]:
        n = shape[0]
        for f, g in shift_ratio_factors(shape, alpha):
            assert len(f) == n and len(g) == n
            assert max(len(f), len(g)) == n
            for fac in f + g:
                for c in fac.coeffs:
                    assert isinstance(c, Fraction)
                    assert (n % c.denominator) == 0


def _ratio(f, g, u):
    return math.prod(fac(u) for fac in f) / math.prod(fac(u) for fac in g)


def test_factor_ratio_matches_kernel_single():
    shape, alpha = (2, (1,)), 1.0
    f, g = shift_ratio_factors(shape, alpha)[0]
    u = [0.7 + 0.0j]
    direct = kernel_value(shape, alpha, [u[0] + 2.0]) / kernel_value(shape, alpha, u)
    assert abs(_ratio(f, g, u) - direct) <= 1e-12 * abs(direct)


def test_factor_ratio_matches_kernel_bulk():
    rng = np.random.default_rng(30)
    for _ in range(50):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(p + 1, 7))
        exps = tuple(int(e) for e in np.sort(
            rng.choice(np.arange(1, n), size=p, replace=False))[::-1])
        shape = (n, exps)
        alpha = float(rng.uniform(0.5, 5.0))
        u = [complex(rng.uniform(0.3, 1.5), rng.uniform(0.2, 1.2)) for _ in range(p)]
        for s, (f, g) in enumerate(shift_ratio_factors(shape, alpha)):
            shifted = list(u)
            shifted[s] += n
            direct = kernel_value(shape, alpha, shifted) / kernel_value(shape, alpha, u)
            assert abs(_ratio(f, g, u) - direct) <= 1e-11 * abs(direct)


def test_functional_equation_samples():
    assert check_functional_equation((2, (1,)), 1.0, [0.6]) <= 1e-11
    assert check_functional_equation((3, (2, 1)), 2.0, [0.5, 0.8]) <= 1e-11


def test_functional_equation_nan_alpha_is_nan():
    with np.errstate(all="ignore"):
        assert math.isnan(check_functional_equation((3, (2, 1)), math.nan, [0.5, 0.8]))
    # a NaN on the first line stays over a larger finite error on the second
    kernel = lambda u: math.nan if u[0].real > 3.0 else 1.0
    assert math.isnan(check_functional_equation((3, (2, 1)), 2.0, [0.5, 0.8], kernel))


def test_functional_equation_scale_invariant():
    # replacing F by 7F leaves the ratio-based check unchanged
    shape, alpha = (3, (2, 1)), 2.0
    u = [0.5 + 0.3j, 0.8 + 0.1j]
    base = check_functional_equation(shape, alpha, u)
    scaled = check_functional_equation(
        shape, alpha, u, kernel_fn=lambda ul: 7.0 * kernel_value(shape, alpha, ul))
    assert scaled == pytest.approx(base, rel=1e-9, abs=1e-13)


def _apply_factors_nested_fd(factors, grid, h):
    """Apply linear theta-factors one at a time with 5-point first derivatives."""
    w5 = fd_weights(1, range(-2, 3)) / h
    out = np.asarray(grid, dtype=float)
    p = out.ndim
    for fac in factors:
        nxt = fac.offset * out
        for axis, c in enumerate(fac.coeffs):
            if c == 0:
                continue
            deriv = np.zeros_like(out)
            core = [slice(2, s - 2) for s in out.shape]
            for k in range(5):
                shifted = [slice(2 + (k - 2), out.shape[i] - 2 + (k - 2)) if i == axis
                           else core[i] for i in range(p)]
                deriv[tuple(core)] += w5[k] * out[tuple(shifted)]
            nxt = nxt + float(c) * (-1.0) * deriv
        out = nxt
    return out


def test_theta_factors_commute():
    # f_s(theta) g_s(theta) y = g_s(theta) f_s(theta) y under nested differencing
    problem = Problem(2, [1], [0.5])
    f, g = shift_ratio_factors(problem.shape, 1.0)[0]
    h = 1e-2
    H = 2 * 5 * 2 + 2  # margin for 4 nested first-order applications
    offs = np.arange(-H, H + 1)
    grid = np.array([psi_inverse([0.5 * math.exp(h * o)], problem.shape).W ** -0.5
                     for o in offs])
    fg = _apply_factors_nested_fd(list(f) + list(g), grid, h)
    gf = _apply_factors_nested_fd(list(g) + list(f), grid, h)
    mid = H
    scale = max(abs(fg[mid]), abs(gf[mid]), 1e-30)
    assert abs(fg[mid] - gf[mid]) / scale <= 1e-6


def test_euler_operator_eigenfunction():
    # the log-coordinate first derivative applied to x^-u gives -u * x^-u + O(h^4)
    u = 1.3
    x0 = 0.8
    errs = []
    for h in [2e-2, 1e-2]:
        offs = np.arange(-2, 3)
        vals = (x0 * np.exp(h * offs)) ** (-u)
        w5 = fd_weights(1, offs) / h
        got = float(w5 @ vals)   # (x d/dx) x^-u in log coordinates
        errs.append(abs(got - (-u) * x0 ** (-u)))
    assert errs[1] <= 1e-6
    assert errs[0] / errs[1] > 8.0  # ~h^4


def test_pde_residual_quadratic():
    assert pde_residual(Problem(2, [1], [0.5]), 1.0, h=1e-2) <= 1e-4


def test_pde_residual_cubic():
    assert pde_residual(Problem(3, [1], [0.4]), 1.0, h=1e-2) <= 1e-4


def test_pde_residual_two_vars():
    assert pde_residual(Problem(4, [3, 1], [0.4, 0.3]), 2.0, h=1e-2) <= 1e-4


def test_pde_degree_matches_equation_order():
    for shape, alpha in [((2, (1,)), 1.0), ((6, (4, 3, 1)), 2.0)]:
        for f, g in shift_ratio_factors(shape, alpha):
            assert max(len(f), len(g)) == shape[0]


def test_pde_h_convergence():
    problem = Problem(3, [2], [0.5])
    r_coarse = pde_residual(problem, 1.0, h=4e-2)
    r_fine = pde_residual(problem, 1.0, h=2e-2)
    assert r_fine <= 1e-4
    assert r_coarse / r_fine > 8.0  # 4th-order shrink


def test_pde_step_too_small():
    with pytest.raises(StepTooSmallError):
        pde_residual(Problem(3, [1], [0.4]), 1.0, h=1e-6)


def test_pde_requires_positive_coeffs():
    with pytest.raises(ValueError):
        pde_residual(Problem(3, [1], [0.0]), 1.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_pde_residual_nonfinite_alpha_is_nan(alpha):
    with np.errstate(all="ignore"):
        assert math.isnan(pde_residual(Problem(3, [2], [0.5]), alpha))


def test_pde_residual_keeps_a_nan_line(monkeypatch):
    # line 0's residual is NaN, line 1's a larger finite 2.5: the worst is NaN
    applied = iter([(math.nan, 1.0), (0.0, 1.0), (5.0, 1.0), (0.0, 1.0)])
    monkeypatch.setattr(hyper, "_apply_theta_poly", lambda poly, grid, h: next(applied))
    assert math.isnan(hyper._pde_residual_at(Problem(3, [2, 1], [0.5, 0.5]), 1.0, 1e-2))


@pytest.mark.parametrize("values, worst", [
    ([], 0.0), ([1.0, 3.0, 2.0], 3.0), ([math.nan, 5.0], math.nan), ([2.0, math.nan, 7.0], math.nan),
])
def test_worst_is_the_largest_or_nan(values, worst):
    got = _worst(iter(values))
    assert got == worst or math.isnan(got) and math.isnan(worst)


@pytest.mark.parametrize("h", [0.0, math.nan])
def test_pde_rejects_bad_step_before_any_grid(h, monkeypatch):
    def no_grid(*args):
        raise AssertionError("grid built")

    monkeypatch.setattr("mellinroots.hyper._root_power_grid", no_grid)
    with pytest.raises(ValueError, match="step h must be positive and finite"):
        pde_residual(Problem(3, [2], [0.5]), 1.0, h=h)


def test_series_prefix_quadratic():
    got = series_coefficients((2, (1,)), 1.0, 6)
    assert got == pytest.approx([1.0, -0.5, 0.125, 0.0, -1.0 / 128.0, 0.0, 1.0 / 1024.0],
                                abs=1e-14)


@pytest.mark.parametrize("exps", [(3,), (2,), (0,), (1.5,)])
def test_series_validates_shape(exps):
    with pytest.raises(ValueError, match="exponent"):
        series_coefficients((2, exps), 1.0, 2)


def test_series_alpha2_consistent_with_convolution():
    c1 = series_coefficients((2, (1,)), 1.0, 10)
    c2 = series_coefficients((2, (1,)), 2.0, 10)
    conv = [sum(c1[j] * c1[k - j] for j in range(k + 1)) for k in range(11)]
    assert c2 == pytest.approx(conv, abs=1e-12)


def test_series_partial_sums_match_oracle():
    rng = np.random.default_rng(31)
    shapes = [(2, (1,)), (3, (1,)), (3, (2,)), (5, (3,)), (7, (2,))]
    x = 0.1
    for n, exps in shapes:
        alpha = float(rng.choice([1.0, 2.0, 3.0]))
        z = principal_root(Problem(n, exps, [x])) ** alpha
        c = series_coefficients((n, exps), alpha, 10)
        partial = math.fsum(ck * x ** k for k, ck in enumerate(c))
        assert abs(partial - z) <= 1e-8


def test_series_error_decreases_in_kmax():
    n, exps, alpha, x = 3, (2,), 1.0, 0.3
    z = principal_root(Problem(n, exps, [x]))
    c = series_coefficients((n, exps), alpha, 12)
    errs = []
    for kmax in range(2, 13, 2):
        partial = math.fsum(ck * x ** k for k, ck in enumerate(c[:kmax + 1]))
        errs.append(abs(partial - z))
    for a, b in zip(errs, errs[1:]):
        assert b <= a * (1.0 + 1e-9) + 5e-16


def test_series_overflow_raises():
    with pytest.raises(GammaOverflowError):
        series_coefficients((2, (1,)), 1e6, 400)


def test_series_rejects_p2():
    with pytest.raises(ValueError):
        series_coefficients((3, (2, 1)), 1.0, 5)


@pytest.mark.parametrize("k_max, message", [
    (-1, "kmax must be nonnegative, got -1"),
    (2 ** 16 + 1, "kmax must be at most 65536, got 65537"),
])
def test_series_rejects_kmax_out_of_range(k_max, message, monkeypatch):
    def no_ratio(*args):
        raise AssertionError("gamma_ratio called")

    monkeypatch.setattr("mellinroots.hyper.gamma_ratio", no_ratio)
    with pytest.raises(ValueError, match=message):
        series_coefficients((2, (1,)), 1.0, k_max)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_series_rejects_nonfinite_alpha(alpha, monkeypatch):
    # it used to return NaN coefficients
    def no_ratio(*args):
        raise AssertionError("gamma_ratio called")

    monkeypatch.setattr("mellinroots.hyper.gamma_ratio", no_ratio)
    with pytest.raises(ValueError, match=f"alpha must be finite, got {alpha}"):
        series_coefficients((2, (1,)), alpha, 3)
