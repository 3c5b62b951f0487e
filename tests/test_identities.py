"""Tests for the exact determinant, Dirichlet-type integrals, and the
forward-transform decomposition."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from mellinroots import (DivergentIntegralError, dirichlet_integral,
                         forward_mellin_check, gamma_ratio)
from mellinroots.identities import (build_rank_one_matrix, det_cofactor,
                                    det_rank_one)
from mellinroots.mellin import _kernel_args

GAMMA_03_04_03 = 19.85138558242040325305059189524433924442  # G(.3) G(.4) G(.3)


def test_det_identity_matrix():
    assert det_rank_one([Fraction(0)] * 4) == 1


def test_det_two_ones():
    # det [[2,1],[1,2]] = 3
    assert det_rank_one([1, 1]) == 3
    assert det_cofactor(build_rank_one_matrix([1, 1])) == 3


def test_det_example_123():
    y = [1, 2, 3]
    assert det_rank_one(y) == 7
    assert det_cofactor(build_rank_one_matrix(y)) == 7


def test_det_exact_bulk():
    rng = np.random.default_rng(40)
    for _ in range(200):
        p = int(rng.integers(1, 9))
        y = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
             for _ in range(p)]
        assert det_rank_one(y) == det_cofactor(build_rank_one_matrix(y))


@pytest.mark.parametrize("y", [(-1, 1), (-1, -1, 2), (-1,), ()])
def test_det_zero_pivots(y):
    y = [Fraction(v) for v in y]
    assert det_cofactor(build_rank_one_matrix(y)) == det_rank_one(y)


@pytest.mark.parametrize("matrix, det", [
    ([[0, 1], [0, 2]], 0),                      # no pivot in column 0
    ([[0, 1], [1, 0]], -1),                     # one swap
    ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1),     # two swaps
    ([[1, 1, 0], [1, 1, 1], [0, 1, 1]], -1),    # zero pivot after one step
    ([[1, 2, 3], [4, 5, 6], [7, 8, 10]], -3),
    ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]], Fraction(1, 60)),
])
def test_det_general_matrices(matrix, det):
    assert det_cofactor(matrix) == det


def _det_leibniz(a):
    """sum over permutations of sign(perm) * prod a[i][perm[i]]."""
    p = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(p)):
        inversions = sum(perm[i] > perm[j] for i in range(p) for j in range(i + 1, p))
        total += (-1) ** inversions * math.prod((a[i][j] for i, j in enumerate(perm)),
                                                start=Fraction(1))
    return total


@pytest.mark.parametrize("p", range(1, 7))
def test_det_cofactor_matches_leibniz(p):
    rng = np.random.default_rng(60 + p)

    def entry():    # a zero about one time in nine
        return Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 8)))

    for trial in range(12):
        a = [[entry() for _ in range(p)] for _ in range(p)]
        if trial % 3 == 1:      # only the last row has a pivot in column 0: a swap
            for row in a[:-1]:
                row[0] = Fraction(0)
        elif trial % 3 == 2:    # singular: the last row depends on the rows above
            a[-1] = ([Fraction(3, 2) * x - y for x, y in zip(a[0], a[1])] if p > 2
                     else [Fraction(-5, 3) * x for x in a[0]] if p == 2
                     else [Fraction(0)])
        det = det_cofactor(a)
        assert det == _det_leibniz(a)
        if trial % 3 == 2:
            assert det == 0


def test_dirichlet_elementary():
    numeric, form = dirichlet_integral([1.0], 2.0, tol=1e-9)
    assert numeric.real == pytest.approx(1.0, abs=1e-9)
    assert form.real == pytest.approx(1.0, rel=1e-14)


def test_dirichlet_divergent_raises():
    with pytest.raises(DivergentIntegralError):
        dirichlet_integral([0.5, 0.5], 1.0)
    with pytest.raises(DivergentIntegralError):
        dirichlet_integral([-0.2, 0.5], 2.0)


def test_dirichlet_two_vars_frozen():
    numeric, form = dirichlet_integral([0.3, 0.4], 1.0, tol=1e-7)
    assert form.real == pytest.approx(GAMMA_03_04_03, rel=1e-13)
    assert abs(numeric - form) <= 1e-7 * abs(form)


def test_dirichlet_three_vars():
    numeric, form = dirichlet_integral([0.3, 0.5, 0.7], 2.9, tol=1e-6)
    assert abs(numeric - form) <= 1e-6 * abs(form)


def test_dirichlet_complex_parameters():
    numeric, form = dirichlet_integral([0.4 + 0.2j, 0.6 - 0.1j], 2.3, tol=1e-7)
    assert abs(numeric - form) <= 1e-7 * abs(form)


def test_dirichlet_three_vars_complex_parameters():
    numeric, form = dirichlet_integral(
        [0.4 + 0.2j, 0.6 - 0.3j, 0.5 + 0.1j], 2.8, tol=1e-7)
    assert abs(numeric - form) <= 1e-7 * abs(form)


def test_dirichlet_rejects_p4():
    with pytest.raises(ValueError):
        dirichlet_integral([0.5] * 4, 4.0)


def test_dirichlet_reproduces_leading_term():
    # with omega = u + sum(u_i) + 1 the integral is the constant term of the
    # forward-transform decomposition: Gamma(u+1) prod Gamma(u_i) / Gamma(omega)
    n, exps, alpha = 2, (1,), 3.0
    u1 = 0.5
    u = alpha / n - (exps[0] / n) * u1
    omega = u + u1 + 1.0
    numeric, form = dirichlet_integral([u1], omega, tol=1e-9)
    i0 = gamma_ratio([u + 1.0, u1], [omega])
    assert form.real == pytest.approx(i0.real, rel=1e-13)
    assert abs(numeric - i0) <= 1e-9 * abs(i0)


def _decomposition_error(u_list, alpha, shape):
    """Worst relative error of the decomposition I = I_0 + I_1 + ... + I_p.

    The forward transform's (1 + sum (n_i/n) xi_i) factor splits it into I_0,
    carrying the constant, and one Euler-weighted term I_i per coefficient.
    The gamma recurrence collapses them to I_i = (n_i u_i)/(n u) * I_0 and
    the total to (alpha/(n u)) * I_0, which equals the gamma-ratio kernel.
    Every gamma ratio is real, as its arguments are.
    """
    n, exps = shape
    u_list = [float(v) for v in u_list]
    u, omega = _kernel_args(shape, alpha, u_list)
    if u <= 0 or any(v <= 0 for v in u_list):
        raise DivergentIntegralError(
            f"inadmissible parameters: u={u:g}, u_i={u_list}")

    # I_0 via Gamma(omega - sum u_i) = Gamma(u + 1)
    i0_a = gamma_ratio([omega - math.fsum(u_list), *u_list], [omega]).real
    i0_b = gamma_ratio([u + 1.0, *u_list], [omega]).real
    worst = abs(i0_a - i0_b) / abs(i0_b)

    total = i0_b
    for i, (e, uv) in enumerate(zip(exps, u_list)):
        nums = [omega - math.fsum(u_list) - 1.0]
        nums += [u_list[j] + (1.0 if j == i else 0.0) for j in range(len(u_list))]
        ii_direct = (e / n) * gamma_ratio(nums, [omega]).real
        ii_reduced = (e * uv) / (n * u) * i0_b
        worst = max(worst, abs(ii_direct - ii_reduced) / abs(ii_reduced))
        total += ii_direct

    closed = alpha / (n * u) * i0_b
    worst = max(worst, abs(total - closed) / abs(closed))

    kernel_rhs = (alpha / n) * gamma_ratio([u, *u_list], [omega]).real
    return max(worst, abs(total - kernel_rhs) / abs(kernel_rhs))


def test_decomposition_quadratic_example():
    err = _decomposition_error([0.5], 3.0, (2, (1,)))
    assert err <= 1e-12


def test_decomposition_bulk():
    rng = np.random.default_rng(41)
    for _ in range(200):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(p + 1, 9))
        exps = tuple(int(e) for e in np.sort(
            rng.choice(np.arange(1, n), size=p, replace=False))[::-1])
        u_list = rng.uniform(0.2, 1.2, size=p)
        alpha = float(np.dot(exps, u_list) + rng.uniform(0.4, 2.5))
        assert _decomposition_error(list(u_list), alpha, (n, exps)) <= 1e-11


def test_decomposition_rejects_inadmissible():
    with pytest.raises(DivergentIntegralError):
        _decomposition_error([3.0], 1.0, (2, (1,)))


def test_decomposition_consistent_with_quadrature():
    # the gamma-form total equals the numerically integrated transform
    shape, alpha, u1 = (2, (1,)), 3.0, 0.5
    lhs, rhs = forward_mellin_check(shape, alpha, [u1], tol=1e-7)
    assert _decomposition_error([u1], alpha, shape) <= 1e-12
    assert abs(lhs - rhs) <= 1e-6 * abs(rhs)
