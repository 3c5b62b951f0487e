"""Tests for shift factors, the Euler-operator PDE system, and residue series."""

import math
import tracemalloc
from fractions import Fraction

import mpmath
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


def test_functional_equation_nan_alpha_is_nan(monkeypatch):
    with np.errstate(all="ignore"):
        assert math.isnan(check_functional_equation((3, (2, 1)), math.nan, [0.5, 0.8]))
    # a NaN on the first line stays over a larger finite error on the second
    monkeypatch.setattr(hyper, "kernel_value",
                        lambda shape, alpha, u: math.nan if u[0].real > 3.0 else 1.0)
    assert math.isnan(check_functional_equation((3, (2, 1)), 2.0, [0.5, 0.8]))


def test_functional_equation_scale_invariant(monkeypatch):
    # replacing F by 7F leaves the ratio-based check unchanged
    shape, alpha = (3, (2, 1)), 2.0
    u = [0.5 + 0.3j, 0.8 + 0.1j]
    base = check_functional_equation(shape, alpha, u)
    monkeypatch.setattr(hyper, "kernel_value", lambda *args: 7.0 * kernel_value(*args))
    scaled = check_functional_equation(shape, alpha, u)
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
def test_series_rejects_kmax_out_of_range(k_max, message):
    with pytest.raises(ValueError, match=message):
        series_coefficients((2, (1,)), 1.0, k_max)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, True, "2"])
def test_series_rejects_nonfinite_alpha(alpha):
    # it used to return NaN coefficients, and to compute at 1.0 for True
    if isinstance(alpha, float):
        with pytest.raises(ValueError, match=f"alpha must be finite, got {alpha}"):
            series_coefficients((2, (1,)), alpha, 3)
    else:  # the CLI's rule for alpha, with its message
        with pytest.raises(ValueError) as info:
            series_coefficients((3, (1,)), alpha, 3)
        assert type(info.value) is ValueError
        assert str(info.value) == f"alpha must be a number, got {alpha!r}"


def _is_plus_zero(value):
    return value == 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_series_at_alpha_minus_one(n):
    # Gamma(a_k) at a_k = 0 used to raise PoleError; the finite product has no pole
    assert all(math.isfinite(v) for v in series_coefficients((n, (1,)), -1.0, 12))


def test_series_at_alpha_minus_one_is_exact():
    got = series_coefficients((3, (1,)), -1.0, 4)
    assert got == [1.0, 1 / 3, 1 / 9, 2 / 81, 0.0] and _is_plus_zero(got[4])


@pytest.mark.parametrize("shape", [(2, (1,)), (3, (2,)), (7, (3,))])
def test_series_at_alpha_zero(shape):
    c = series_coefficients(shape, 0.0, 15)
    assert c[0] == 1.0 and all(_is_plus_zero(v) for v in c[1:])


@pytest.mark.parametrize("shape, alpha", [((3, (1,)), 2.5), ((2, (1,)), 1e-3),
                                          ((12, (7,)), -7.5), ((5, (2,)), 1e4)])
def test_series_first_coefficient_is_exactly_one(shape, alpha):
    # the log-gamma form gave 1.000000000000004 on (3, (1,)) at alpha = 2.5
    assert series_coefficients(shape, alpha, 3)[0] == 1.0


def test_series_past_double_range_raises():
    # this call used to return inf and -inf without an error
    with pytest.raises(GammaOverflowError,
                       match=r"series coefficient c\[348\] exceeds double range"):
        series_coefficients((7, (1,)), 7868.813925972945, 353)


def _exact_series(n, n1, alpha, k_max):
    """c_k = (-1)^k/k! (alpha/n) prod_{j=1}^{k-1} (a_k - j) in exact rationals."""
    out = [Fraction(1)]
    for k in range(1, k_max + 1):
        a = (alpha + n1 * k) / n
        prod = math.prod((a - j for j in range(1, k)), start=Fraction(1))
        out.append((-1) ** k * alpha / n * prod / math.factorial(k))
    return out


@pytest.mark.parametrize("n, n1", [(2, 1), (3, 1), (3, 2), (4, 1), (5, 2), (5, 3), (7, 2),
                                   (8, 5), (12, 7)])
def test_series_matches_exact_rationals(n, n1):
    # against the exact value at the double alpha itself, so only the arithmetic is measured
    eps = np.finfo(float).eps
    for alpha in [5 / 2, 1.0, 3.0, 7 / 3, -1 / 2, -1.0, -7 / 2, 1 / 10]:
        c = series_coefficients((n, (n1,)), alpha, 120)
        exact = _exact_series(n, n1, Fraction(alpha), 120)
        for k, (got, want) in enumerate(zip(c, exact, strict=True)):
            if want == 0:
                assert _is_plus_zero(got), (alpha, k, got)
            else:
                bound = 8 * (k + 1) * Fraction(eps) * abs(want)
                assert abs(Fraction(got) - want) <= bound, (alpha, k)


def test_series_sum_at_large_alpha_matches_mpmath():
    # the log-gamma form's 31-term sum was 6.0e-12 off here
    with mpmath.workdps(50):
        x = mpmath.mpf(1e-5)
        want = mpmath.findroot(lambda z: z ** 3 + x * z - 1, 1) ** 10000
        c = series_coefficients((3, (1,)), 1e4, 30)
        got = math.fsum(ck * 1e-5 ** k for k, ck in enumerate(c))
        assert abs(got - want) <= 4 * np.finfo(float).eps * want


def _mp_coefficient(n, n1, alpha, k):
    """c_k = (-1)^k/k! (alpha/n) prod_{j=1}^{k-1} (a_k - j) in 60-digit mpmath."""
    with mpmath.workdps(60):
        a = (mpmath.mpf(alpha) + n1 * k) / n
        return (-1) ** k * mpmath.mpf(alpha) / n * mpmath.rf(a - k + 1, k - 1) / mpmath.factorial(k)


def test_series_partial_products_stay_in_range_at_large_n():
    # taken j = 1, 2, ... over j, the product for c_k (k < n) peaks near 2^{a_k}: past k of about
    # 1050 it left double range here although every |c_k| <= 1
    n, n1, alpha = 1200, 1199, 0.5
    c = series_coefficients((n, (n1,)), alpha, n - 1)
    assert max(abs(v) for v in c) <= 1.0
    for k in (1053, 1199):
        want = _mp_coefficient(n, n1, alpha, k)
        assert abs(c[k] - want) <= 8 * (k + 1) * np.finfo(float).eps * abs(want)


@pytest.mark.parametrize("shape, alpha, k_max, ks", [
    ((526, (1,)), 404607.3782375817, 1110, [835, 836, 1000, 1110]),  # ratios near 1e-472
    ((1557, (288,)), -99676.14091740303, 4245, [1597]),  # ratio 3e-317, a subnormal double
    ((1500, (1000,)), 7.4e5, 1600, [1499, 1500, 1501]),  # its first n_1 factors overflow
    ((1500, (1000,)), 748500.0, 1600, [1499, 1500, 1501]),  # c_1500 = 0: was 0 * inf = NaN
])
def test_series_n_step_ratio_past_double_range(shape, alpha, k_max, ks):
    # c_{k+n}/c_k leaves double range although c_k and c_{k+n} do not: as one double product
    # it gave 0.0 from k = 836 on, 1.6e-7 off, and GammaOverflowError at c[1500] twice
    c = series_coefficients(shape, alpha, k_max)
    for k in ks:
        want = _mp_coefficient(shape[0], shape[1][0], alpha, k)
        if want == 0:
            assert _is_plus_zero(c[k]), k
        else:
            assert abs(c[k] - want) <= 8 * (k + 1) * np.finfo(float).eps * abs(want), k


def test_series_memory_follows_kmax_not_n():
    # padding the classes of k mod n to n columns took 8 n bytes: 80 GB at n = 1e10
    tracemalloc.start()
    try:
        c = series_coefficients((10 ** 7, (1,)), 1.0, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    exact = _exact_series(10 ** 7, 1, Fraction(1), 3)
    assert all(abs(Fraction(v) - w) <= 4 * Fraction(np.finfo(float).eps) * abs(w)
               for v, w in zip(c, exact, strict=True))
