"""Tests for the forward transform identity and the contour-integral solver."""

import cmath
import functools
import math

import numpy as np
import pytest

from mellinroots import (ConvergenceConditionError, Problem, QuadratureError,
                         default_contour, forward_mellin_check, kernel_value,
                         principal_root, principal_root_mb,
                         principal_root_param, quadratic_mb_check)
from mellinroots import mellin, sampling
from mellinroots.mellin import (Contour, MellinParams, _line_nodes, _log_integrand,
                                contour_integrand)

# frozen 40-digit reference values
KERNEL_A1_U05 = 3.496076739056159747286452786521492551577   # (1/2)G(.25)G(.5)/G(1.75)
FORWARD_RHS_A3_U05 = 1.498318602452639891694194051366353950676
QUAD_CLOSED = {
    0.1: 0.9512492197250392863848606074161302710743,
    0.2: 0.9049875621120890270219264912759576186945,
    0.5: 0.7807764064044151374553524639935192562868,
    1.0: 0.6180339887498948482045868343656381177203,
    2.0: 0.4142135623730950488016887242096980785697,
}


def test_kernel_frozen_values():
    params = MellinParams.for_shape((2, (1,)), 1.0, [0.5])
    assert params.u == pytest.approx(0.25)
    value = kernel_value((2, (1,)), params.alpha, params.u_list)
    assert value.real == pytest.approx(KERNEL_A1_U05, rel=1e-13)

    params = MellinParams.for_shape((2, (1,)), 2.0, [1.0])
    assert params.u == pytest.approx(0.5)
    value = kernel_value((2, (1,)), params.alpha, params.u_list)
    assert value.real == pytest.approx(4.0 / 3.0, rel=1e-13)


def test_kernel_conjugate_symmetry():
    shape = (3, (2, 1))
    u = [0.4 + 0.7j, 0.6 - 0.2j]
    a = kernel_value(shape, 2.0, u)
    b = kernel_value(shape, 2.0, [v.conjugate() for v in u])
    assert b == pytest.approx(a.conjugate(), rel=1e-13)


def test_params_validation():
    with pytest.raises(ConvergenceConditionError):
        MellinParams.for_shape((2, (1,)), 1.0, [3.0])       # Re u < 0
    with pytest.raises(ConvergenceConditionError):
        MellinParams.for_shape((2, (1,)), 1.0, [-0.5])      # Re u_1 < 0
    with pytest.raises(ConvergenceConditionError):
        MellinParams.for_shape((2, (1,)), -1.0, [0.5])
    nan, inf = float("nan"), float("inf")
    for alpha, u in [(nan, 0.5), (inf, 0.5), (1.0, nan), (1.0, complex(0.5, inf))]:
        with pytest.raises(ConvergenceConditionError, match="finite"):
            MellinParams.for_shape((2, (1,)), alpha, [u])


def test_forward_check_frozen_p1():
    shape = (2, (1,))
    params = MellinParams.for_shape(shape, 3.0, [0.5])
    lhs, rhs = forward_mellin_check(shape, params, tol=1e-8)
    assert rhs.real == pytest.approx(FORWARD_RHS_A3_U05, rel=1e-13)
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_forward_check_exact_p1():
    # n=3, alpha=4, u1=1: u = 1, rhs = (4/3) Gamma(1)^2 / Gamma(3) = 2/3
    shape = (3, (1,))
    params = MellinParams.for_shape(shape, 4.0, [1.0])
    lhs, rhs = forward_mellin_check(shape, params, tol=1e-8)
    assert rhs.real == pytest.approx(2.0 / 3.0, rel=1e-13)
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_forward_check_p2():
    shape = (3, (2, 1))
    params = MellinParams.for_shape(shape, 9.0, [0.7, 0.6])
    lhs, rhs = forward_mellin_check(shape, params, tol=1e-6)
    assert abs(lhs - rhs) <= 1e-5 * abs(rhs)


def test_forward_check_rejects_p3():
    shape = (5, (3, 2, 1))
    params = MellinParams.for_shape(shape, 9.0, [0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        forward_mellin_check(shape, params)


def test_mb_quadratic_unit():
    problem = Problem(2, [1], [1.0])
    res = principal_root_mb(problem, alpha=1.0)
    assert abs(res.value.real - QUAD_CLOSED[1.0]) <= max(1e-8, res.err_estimate)
    assert abs(res.value.imag) <= res.err_estimate


def test_mb_quadratic_alpha2():
    problem = Problem(2, [1], [0.5])
    res = principal_root_mb(problem, alpha=2.0)
    assert abs(res.value.real - QUAD_CLOSED[0.5] ** 2) <= max(1e-8, res.err_estimate)


def test_mb_p2_matches_param():
    problem = Problem(3, [2, 1], [0.3, 0.4])
    res = principal_root_mb(problem, alpha=1.0)
    assert abs(res.value.real - principal_root_param(problem)) <= max(1e-6, res.err_estimate)


def test_mb_power_consistency():
    problem = Problem(3, [1], [0.7])
    r1 = principal_root_mb(problem, alpha=1.0)
    r2 = principal_root_mb(problem, alpha=2.0)
    combined = r2.err_estimate + 2.0 * abs(r1.value) * r1.err_estimate + r1.err_estimate ** 2
    assert abs(r2.value - r1.value ** 2) <= max(1e-9, combined)


def test_mb_contour_independence():
    problem = Problem(2, [1], [0.8])
    base = default_contour(problem, 1.0)
    shifted = Contour(abscissas=(base.abscissas[0] * 0.6,),
                      height=base.height, nodes_per_line=base.nodes_per_line)
    r1 = principal_root_mb(problem, contour=base)
    r2 = principal_root_mb(problem, contour=shifted)
    assert abs(r1.value - r2.value) <= r1.err_estimate + r2.err_estimate + 1e-9


def test_mb_imaginary_part_vanishes_full_grid(monkeypatch):
    for problem in [Problem(2, [1], [0.6]), Problem(4, [3, 1], [0.5, 1.1])]:
        with monkeypatch.context() as m:
            m.setattr(mellin, "_grid_sum", functools.partial(mellin._grid_sum, full_grid=True))
            res = principal_root_mb(problem, alpha=1.0)
        assert abs(res.value.imag) <= res.err_estimate
        # the conjugate-symmetry fold (t_1 = 0 row, center term) adds nothing
        folded = principal_root_mb(problem, alpha=1.0)
        assert abs(folded.value.real - res.value.real) <= 1e-14 * abs(res.value.real)


def _direct_integrand(shape, alpha, x, u_list):
    """kernel * prod x_s^-u_s from the scalar kernel, point by point."""
    v = kernel_value(shape, alpha, u_list)
    for xv, uv in zip(x, u_list):
        v *= cmath.exp(-uv * cmath.log(xv))
    return v


@pytest.mark.parametrize("problem, alpha, height, nodes", [
    (Problem(3, [2], [0.7]), 2.0, 12.0, 25),
    (Problem(4, [3, 1], [0.5, 1.3]), 1.0, 8.0, 17),
    (Problem(6, [4, 2], [0.9, 0.4]), 3.0, 8.0, 13),  # gcd 2 for both u and omega
])
def test_lattice_integrand_matches_kernel(problem, alpha, height, nodes):
    a = default_contour(problem, alpha).abscissas
    contour = Contour(abscissas=a, height=height, nodes_per_line=nodes)
    pts, vals = contour_integrand(problem, alpha, contour)
    assert np.max(np.abs(pts)) == pytest.approx(height, rel=1e-15)  # the ends |t| = T
    for ts, v in zip(pts, vals):
        ref = _direct_integrand(problem.shape, alpha, problem.coeffs,
                                [a_s + 1j * t for a_s, t in zip(a, ts)])
        assert abs(v - ref) <= 1e-13 * abs(ref)


def test_lattice_integrand_matches_kernel_complex_coefficient():
    shape, alpha, a = (3, (2,)), 1.0, [0.25]
    x = [0.9 * cmath.exp(0.5j * 2 * math.pi / 6)]  # inside |arg x| < pi n_1/n
    t, h = _line_nodes(10.0, 21)
    k = np.arange(21) - 10
    vals = np.exp(_log_integrand(shape, alpha, x, a, h, [k]))
    for tv, v in zip(t, vals):
        ref = _direct_integrand(shape, alpha, x, [a[0] + 1j * tv])
        assert abs(v - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("problem, alpha, evaluations", [
    (Problem(5, [3], [0.7]), 2.0, 165),
    (Problem(3, [2, 1], [0.4, 0.9]), 3.0, 73708),
])
def test_mb_grid_pinned(problem, alpha, evaluations):
    # points summed after the Stirling mask and the conjugate-symmetry fold
    assert principal_root_mb(problem, alpha=alpha).evaluations == evaluations


def _stirling_kept(shape, x, T, m, fold):
    """Reference mask: the offsets (k_1, ..., k_p) whose Stirling exponent is at
    most 50, found point by point over the full m^p tensor, in row-major order;
    with the fold, only those whose first nonzero offset is positive, and 0."""
    n, exps = shape
    t, _ = _line_nodes(T, m)
    ts = [t[ix] for ix in np.ix_(*[np.arange(m)] * len(x))]
    im_u = -sum(e * tv for e, tv in zip(exps, ts)) / n
    im_om = sum(ts, im_u)
    E = (math.pi / 2.0) * (sum(map(np.abs, ts), np.abs(im_u)) - np.abs(im_om))
    E = E - sum(tv * cmath.phase(xv) for tv, xv in zip(ts, x))
    k = np.stack(np.nonzero(E <= 50.0), axis=1) - (m - 1) // 2
    if fold:
        k = k[np.where(k[:, 0] != 0, k[:, 0], k[:, -1]) >= 0]
    return k


@pytest.mark.parametrize("shape, x, full_grid", [
    ((3, (2,)), [0.7], False),
    ((3, (2,)), [0.7], True),
    ((3, (2,)), [0.7 * cmath.exp(1.2j)], False),          # inside |arg x| < 2 pi/3
    ((3, (2, 1)), [0.4, 0.9], False),
    ((3, (2, 1)), [0.4, 0.9], True),
    ((5, (4, 1)), [0.7, 1.3], False),
    ((5, (4, 1)), [0.7, 1.3], True),
    ((5, (4, 2)), [0.5, 1.1], False),                      # gcd 2 for u and omega
    ((5, (4, 2)), [0.5, 1.1], True),
    ((3, (2, 1)), [0.5 * cmath.exp(1.1j), 0.9 * cmath.exp(-0.8j)], False),
    ((4, (3, 1)), [0.7 * cmath.exp(0.9j), 1.3 * cmath.exp(-0.35j)], False),
])
def test_grid_sum_keeps_reference_mask(monkeypatch, shape, x, full_grid):
    x = [complex(v) for v in x]
    problem = Problem(shape[0], list(shape[1]), [abs(v) for v in x])
    contour = default_contour(problem, 1.0, coeffs=x)
    fold = not full_grid and all(v.imag == 0.0 for v in x)
    seen = []

    def spy(*args):
        seen.append(np.stack(args[-1], axis=1))
        return _log_integrand(*args)

    monkeypatch.setattr(mellin, "_log_integrand", spy)
    # each height puts the cut somewhere else along the rows; the last drops points
    for scale, m in [(1.0, 101), (2.5, 201), (3.0, 61)]:
        T = scale * contour.height
        seen.clear()
        *_, count = mellin._grid_sum(shape, 1.0, x, contour.abscissas, T, m, full_grid=full_grid)
        ref = _stirling_kept(shape, x, T, m, fold)
        assert len(seen) == 1 and count == len(ref)
        assert np.array_equal(seen[0], ref), (scale, m)
    assert count < m ** len(x) // (2 if fold else 1)


def test_mb_fully_masked_blocks():
    # h = 250: every off-center node lies below the Stirling cut, so each
    # row's runs are empty but for the center; the one grid sums one point
    coarse = Contour(abscissas=(0.5,), height=1000.0, nodes_per_line=9)
    assert principal_root_mb(Problem(2, [1], [1.0]), contour=coarse).evaluations == 1


def _continued_root(n, n1, x):
    """Principal branch at complex x via Newton homotopy along the argument."""
    z = complex(principal_root(Problem(n, [n1], [abs(x)])))
    phase = cmath.phase(x)
    for k in range(1, 41):
        xt = abs(x) * cmath.exp(1j * phase * k / 40.0)
        for _ in range(60):
            f = z ** n + xt * z ** n1 - 1.0
            df = n * z ** (n - 1) + n1 * xt * z ** (n1 - 1)
            step = f / df
            z -= step
            if abs(step) <= 1e-15 * max(1.0, abs(z)):
                break
    return z


def test_mb_complex_coefficient_in_sector():
    # p = 1: arg(x) strictly inside the sector |arg x| < pi n1/n, where the decay
    # rate pi n1/n - |arg x| is positive; |frac| > 1 lies past n1 pi/(2n)
    for n, n1, r, frac in [(2, 1, 0.9, 0.5), (3, 2, 1.2, -0.6), (5, 3, 0.4, 0.3),
                           (2, 1, 0.9, 1.8), (3, 2, 1.2, -1.8), (3, 1, 0.5, 1.8)]:
        x = r * cmath.exp(1j * frac * n1 * math.pi / (2.0 * n))
        problem = Problem(n, [n1], [r])
        res = principal_root_mb(problem, alpha=1.0, coeffs=[x])
        ref = _continued_root(n, n1, x)
        assert abs(res.value - ref) <= max(1e-6, res.err_estimate)


def test_mb_rejects_out_of_sector():
    problem = Problem(2, [1], [1.0])
    x = cmath.exp(1j * 0.6 * math.pi)  # |arg| > pi/4
    with pytest.raises(ConvergenceConditionError):
        principal_root_mb(problem, coeffs=[x])


def test_mb_rejects_zero_coefficient():
    with pytest.raises(ConvergenceConditionError, match="strictly positive"):
        principal_root_mb(Problem(3, [2, 1], [0.0, 1.0]))
    with pytest.raises(ConvergenceConditionError, match="strictly positive"):
        default_contour(Problem(3, [2, 1], [0.0, 1.0]), 1.0)


def test_contour_integrand_rejects_zero_coefficient():
    contour = Contour(abscissas=(0.25, 0.25), height=10.0, nodes_per_line=21)
    with pytest.raises(ConvergenceConditionError, match="strictly positive"):
        contour_integrand(Problem(3, [2, 1], [0.0, 1.0]), 1.0, contour)


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
def test_mb_rejects_nonpositive_alpha(alpha):
    with pytest.raises(ConvergenceConditionError, match="alpha must be positive and finite"):
        principal_root_mb(Problem(2, [1], [1.0]), alpha=alpha)
    with pytest.raises(ConvergenceConditionError, match="alpha must be positive and finite"):
        default_contour(Problem(2, [1], [1.0]), alpha)


def test_mb_rejects_p3():
    with pytest.raises(ValueError):
        principal_root_mb(Problem(5, [3, 2, 1], [0.5, 0.5, 0.5]))


def test_contour_constraint_violation():
    problem = Problem(2, [1], [1.0])
    bad = Contour(abscissas=(1.5,), height=20.0, nodes_per_line=101)
    with pytest.raises(ConvergenceConditionError):
        principal_root_mb(problem, alpha=1.0, contour=bad)
    with pytest.raises(ConvergenceConditionError):
        Contour(abscissas=(-0.5,), height=20.0, nodes_per_line=101)


@pytest.mark.parametrize("abscissas, height", [
    ((0.5,), float("inf")),
    ((0.5,), float("nan")),
    ((float("nan"),), 20.0),
    ((float("inf"),), 20.0),
])
def test_contour_rejects_non_finite_values(abscissas, height):
    with pytest.raises(ConvergenceConditionError):
        Contour(abscissas=abscissas, height=height, nodes_per_line=9)


def test_mb_refuses_too_many_rows():
    # a tall, fine contour keeps few points but would scan 2^20 + 1 rows first
    contour = Contour(abscissas=(0.25, 0.25), height=1e9, nodes_per_line=2 ** 20 + 1)
    with pytest.raises(QuadratureError, match="rows exceeds"):
        principal_root_mb(Problem(3, [2, 1], [0.5, 1.0]), contour=contour)


def test_mb_tol_enforcement():
    problem = Problem(2, [1], [1.0])
    coarse = Contour(abscissas=(0.5,), height=3.0, nodes_per_line=11)
    with pytest.raises(QuadratureError):
        principal_root_mb(problem, contour=coarse, tol=1e-10)


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
def test_mb_honours_tol(tol):
    # err_estimate bounds the error of the returned value, so tol is met, not refused;
    # the first 20 criterion-02 instances
    rng = np.random.default_rng(1002)
    for _ in range(20):
        problem = sampling.random_mb_problem(rng)
        alpha = float(rng.choice([1.0, 2.0, 3.0]))
        res = principal_root_mb(problem, alpha, tol=tol)
        observed = abs(res.value - principal_root_param(problem) ** alpha)
        assert observed <= res.err_estimate <= tol, (problem, alpha)


def test_mb_deterministic():
    problem = Problem(3, [2, 1], [0.4, 0.9])
    r1 = principal_root_mb(problem, alpha=2.0)
    r2 = principal_root_mb(problem, alpha=2.0)
    assert r1.value == r2.value and r1.err_estimate == r2.err_estimate


@pytest.mark.parametrize("x", [0.1, 0.2, 0.5, 1.0, 2.0])
def test_quadratic_mb_frozen_grid(x):
    mb, closed = quadratic_mb_check(x, tol=1e-8)
    assert closed == pytest.approx(QUAD_CLOSED[x], rel=1e-15)
    assert abs(mb - closed) <= 1e-8


def test_quadratic_mb_small_x_limit():
    mb, _ = quadratic_mb_check(1e-4, tol=1e-8)
    assert abs(mb - 1.0) <= 1e-3


def test_quadratic_mb_rejects_nonpositive():
    for x in [-1.0, float("nan"), float("inf")]:
        with pytest.raises(ValueError):
            quadratic_mb_check(x)
