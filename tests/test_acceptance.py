"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  Tolerances are pinned here and nowhere
else; runtime caps are asserted where a criterion carries one.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np

from mellinroots import (Problem, all_roots, check_functional_equation,
                         dirichlet_integral, epsilon_family,
                         forward_mellin_check, jacobian_det, pde_residual,
                         principal_root, principal_root_mb,
                         principal_root_param, psi_forward,
                         series_coefficients)
from mellinroots.identities import (build_rank_one_matrix, det_cofactor,
                                    det_rank_one)
from mellinroots.param import ParamPoint
from mellinroots import sampling


def _verdict(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{tag}: {detail}"


def test_criterion_01_root_method_agreement():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        problem = sampling.random_problem(rng, p_max=5, n_max=12, coeff_hi=10.0)
        worst = max(worst, abs(principal_root_param(problem) - principal_root(problem)))
    elapsed = time.perf_counter() - t0
    _verdict("criterion-01 root agreement",
             worst <= 1e-12 and elapsed < 5.0,
             f"worst |param - oracle| = {worst:.3e} (tol 1e-12), {elapsed:.2f}s (cap 5s)")


def test_criterion_02_mellin_barnes_reproduction():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    worst = 0.0
    failures = 0
    for _ in range(100):
        problem = sampling.random_mb_problem(rng)
        alpha = float(rng.choice([1.0, 2.0, 3.0]))
        target = principal_root_param(problem) ** alpha
        res = principal_root_mb(problem, alpha=alpha)
        diff = abs(res.value.real - target)
        worst = max(worst, diff)
        if diff > max(1e-6, res.err_estimate):
            failures += 1
    elapsed = time.perf_counter() - t0
    _verdict("criterion-02 contour reproduction",
             failures == 0 and elapsed < 120.0,
             f"100 instances, worst diff {worst:.3e}, {failures} out of bound, "
             f"{elapsed:.1f}s (cap 120s)")


def test_criterion_03_quadratic_closed_form():
    # The contour integral of Z^2 + x Z - 1 = 0 is (1/(4 pi i)) times the
    # integral over Re z = 1/2 of Gamma(z) Gamma((1-z)/2) / Gamma((3+z)/2)
    # x^-z dz.  The x^-z / Gamma((1-z)/2) combination is forced: the often
    # misprinted x^z / Gamma((1+z)/2) has a double pole at z = -1 and is not
    # an algebraic function of x at all.
    t0 = time.perf_counter()
    worst = 0.0
    for x in [0.1, 0.2, 0.5, 1.0, 2.0]:
        mb = principal_root_mb(Problem(2, [1], [x]), tol=1e-8).value.real
        closed = -x / 2.0 + math.sqrt(1.0 + (x / 2.0) ** 2)
        worst = max(worst, abs(mb - closed))
    elapsed = time.perf_counter() - t0
    _verdict("criterion-03 quadratic closed form",
             worst <= 1e-8 and elapsed < 5.0,
             f"worst |mb - closed| = {worst:.3e} (tol 1e-8), {elapsed:.2f}s (cap 5s)")


def test_criterion_04_forward_transform_identity():
    rng = np.random.default_rng(1004)
    t0 = time.perf_counter()
    worst = 0.0
    for p, count in [(1, 20), (2, 10)]:
        for _ in range(count):
            shape, alpha, u_list = sampling.random_forward_tuple(rng, p)
            lhs, rhs = forward_mellin_check(shape, alpha, u_list, tol=1e-6)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    elapsed = time.perf_counter() - t0
    _verdict("criterion-04 forward identity",
             worst <= 1e-6 and elapsed < 120.0,
             f"worst rel = {worst:.3e} (tol 1e-6), {elapsed:.1f}s (cap 120s)")


def _fd_jacobian(xi, shape):
    p = len(xi)
    J = np.empty((p, p))
    for j in range(p):
        h = 5e-6 * (1.0 + abs(xi[j]))
        up, dn = list(xi), list(xi)
        up[j] += h
        dn[j] -= h
        fp = psi_forward(ParamPoint(up), shape)
        fm = psi_forward(ParamPoint(dn), shape)
        J[:, j] = (np.asarray(fp) - np.asarray(fm)) / (2.0 * h)
    return float(np.linalg.det(J))


def test_criterion_05_jacobian_closed_form():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(500):
        p = int(rng.integers(1, 5))
        shape = sampling.random_shape(rng, p, n_max=9)
        xi = rng.uniform(0.0, 5.0, size=p)
        closed = jacobian_det(ParamPoint(xi), shape)
        worst = max(worst, abs(closed - _fd_jacobian(list(xi), shape)) / abs(closed))
    _verdict("criterion-05 jacobian",
             worst <= 1e-6, f"worst rel = {worst:.3e} (tol 1e-6), 500 points")


def test_criterion_06_rank_one_determinant_exact():
    rng = np.random.default_rng(1006)
    bad = 0
    for _ in range(1000):
        p = int(rng.integers(1, 9))
        y = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
             for _ in range(p)]
        if det_rank_one(y) != det_cofactor(build_rank_one_matrix(y)):
            bad += 1
    _verdict("criterion-06 determinant exact",
             bad == 0, f"{bad} mismatches over 1000 rational vectors (tol 0)")


def test_criterion_07_dirichlet_integral():
    rng = np.random.default_rng(1007)
    worst = 0.0
    # the two-variable special case with omega = 1 first, then random tuples
    numeric, closed = dirichlet_integral([0.3, 0.4], 1.0, tol=1e-7)
    worst = max(worst, abs(numeric - closed) / abs(closed))
    for i in range(30):
        p = i % 3 + 1
        u, omega = sampling.random_dirichlet_tuple(rng, p)
        numeric, closed = dirichlet_integral(u, omega, tol=1e-7)
        worst = max(worst, abs(numeric - closed) / abs(closed))
    _verdict("criterion-07 dirichlet integral",
             worst <= 1e-6, f"worst rel = {worst:.3e} (tol 1e-6), 31 tuples")


def test_criterion_08_functional_equation():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(10):
        p = int(rng.integers(1, 4))
        shape = sampling.random_shape(rng, p)
        alpha = float(rng.uniform(0.5, 4.0))
        for _ in range(50):
            u = [complex(rng.uniform(0.3, 1.5), rng.uniform(0.2, 1.0))
                 for _ in range(p)]
            worst = max(worst, check_functional_equation(shape, alpha, u))
    _verdict("criterion-08 shift relation",
             worst <= 1e-11,
             f"worst rel = {worst:.3e} (tol 1e-11), 10 shapes x 50 samples")


def test_criterion_09_pde_residual_and_h_convergence():
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(10):
        problem, alpha = sampling.random_pde_problem(rng)
        worst = max(worst, pde_residual(problem, alpha, h=1e-2))
    # 4th-order shrink until roundoff on a fixed instance
    problem = Problem(3, [2], [0.5])
    r1 = pde_residual(problem, 1.0, h=4e-2)
    r2 = pde_residual(problem, 1.0, h=2e-2)
    r3 = pde_residual(problem, 1.0, h=1e-2)
    shrink_ok = (r1 / r2 > 8.0) and (r2 / r3 > 8.0 or r3 < 1e-9)
    _verdict("criterion-09 operator system",
             worst <= 1e-4 and shrink_ok,
             f"worst residual = {worst:.3e} (tol 1e-4); "
             f"shrink {r1:.2e} -> {r2:.2e} -> {r3:.2e}")


def _match_multisets(a, b):
    b = list(b)
    worst = 0.0
    for z in a:
        j = min(range(len(b)), key=lambda k: abs(z - b[k]))
        worst = max(worst, abs(z - b[j]))
        b.pop(j)
    return worst


def test_criterion_10_epsilon_family():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(100):
        problem = sampling.random_small_problem(rng)
        worst = max(worst, _match_multisets(
            epsilon_family(problem), all_roots(problem)))
    _verdict("criterion-10 root-of-unity family",
             worst <= 1e-9, f"worst multiset distance = {worst:.3e} (tol 1e-9)")


def test_criterion_11_conformal_map_identity():
    rng = np.random.default_rng(1011)
    worst = 0.0
    for _ in range(200):
        w = complex(rng.uniform(-3.0, 3.0),
                    rng.uniform(-math.pi + 1e-9, math.pi - 1e-9))
        # x = xi W^(n_1/n - 1), W = 1 + xi, on the principal branch; n_1/n = 1/2
        xi = -1.0 + cmath.exp(w)
        got = xi * cmath.exp(-0.5 * cmath.log(1.0 + xi))
        worst = max(worst, abs(got - 2.0 * cmath.sinh(w / 2.0)))
    _verdict("criterion-11 conformal identity",
             worst <= 1e-12, f"worst |diff| = {worst:.3e} (tol 1e-12), 200 points")


def test_criterion_12_residue_series():
    rng = np.random.default_rng(1012)
    shapes = [(2, (1,)), (3, (1,)), (3, (2,)), (5, (3,)), (7, (2,))]
    x = 0.1
    worst = 0.0
    for n, exps in shapes:
        alpha = float(rng.choice([1.0, 2.0, 3.0]))
        target = principal_root(Problem(n, exps, [x])) ** alpha
        coeffs = series_coefficients((n, exps), alpha, 10)
        partial = math.fsum(c * x ** k for k, c in enumerate(coeffs))
        worst = max(worst, abs(partial - target))
    _verdict("criterion-12 residue series",
             worst <= 1e-8, f"worst |partial - oracle| = {worst:.3e} (tol 1e-8)")
