"""Tests for the Newton/companion-matrix root oracle."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from mellinroots import (ContinuationError, ParamPoint, Problem, all_roots, epsilon_family,
                         kernel_value, principal_root, psi_forward, psi_inverse,
                         shift_ratio_factors)
from mellinroots.oracle import _checked_shape

GOLDEN_CONJ = 0.6180339887498948482045868343656381177203  # (-1+sqrt(5))/2


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem(2, [2], [1.0])          # exponent not below n
    with pytest.raises(ValueError):
        Problem(4, [1, 2], [1.0, 1.0])  # not decreasing
    with pytest.raises(ValueError):
        Problem(4, [2], [1.0, 1.0])     # length mismatch
    with pytest.raises(ValueError):
        Problem(4, [2], [-1.0])         # negative coefficient


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_problem_rejects_nonfinite_coefficient(bad):
    with pytest.raises(ValueError, match="finite"):
        Problem(2, [1], [bad])
    with pytest.raises(ValueError, match="finite"):
        Problem(3, [2, 1], [0.5, bad])


@pytest.mark.parametrize("n, exps", [
    (2.9, [1]), (3, [1.7]), (4, [3, 1.5]), (math.nan, [1]), (math.inf, [1]), ("3", [1]),
])
def test_problem_rejects_nonintegral_degree_and_exponents(n, exps):
    with pytest.raises(ValueError, match="must be an integer"):
        Problem(n, exps, [1.0] * len(exps))


def test_problem_accepts_integral_floats_and_numpy_integers():
    problem = Problem(np.int64(4), [3.0, np.int32(1)], [0.5, 0.5])
    assert problem.shape == (4, (3, 1))
    assert all(type(v) is int for v in (problem.n, *problem.exps))


# every place a shape enters: Problem, the rule itself, and three functions
# that take a bare shape (n, exps), each given one entry per exponent
SHAPE_TAKERS = {
    "Problem": lambda n, exps: Problem(n, exps, [0.5] * len(exps)).shape,
    "_checked_shape": lambda n, exps: _checked_shape((n, exps)),
    "psi_forward": lambda n, exps: psi_forward(ParamPoint([0.5] * len(exps)), (n, exps)),
    "kernel_value": lambda n, exps: kernel_value((n, exps), 2.0, [0.3] * len(exps)),
    "shift_ratio_factors": lambda n, exps: shift_ratio_factors((n, exps), 2.0),
}
ORDER = "exponents must satisfy 0 < n_p < ... < n_1 < n, got n={}, exps={}"


@pytest.mark.parametrize("taker", SHAPE_TAKERS)
@pytest.mark.parametrize("n, exps, message", [
    (3.0, (2.0, 1), None),                                   # integral floats
    (np.int64(4), (np.int32(3), np.int64(1)), None),         # numpy integers
    (2.9, (1,), "degree n must be an integer, got 2.9"),
    (3, (True,), "exponent must be an integer, got True"),     # JSON true
    (False, (1,), "degree n must be an integer, got False"),
    (0, (1,), "degree n must be positive, got 0"),
    (3, (), "at least one lower-order term is required"),
    (4, (1, 2), ORDER.format(4, (1, 2))),                    # unordered
    (4, (2, 2), ORDER.format(4, (2, 2))),                    # repeated
    (3, (3, 1), ORDER.format(3, (3, 1))),                    # n_1 = n
    (3, (4,), ORDER.format(3, (4,))),                        # n_1 > n
    (3, (2, 0), ORDER.format(3, (2, 0))),                    # n_p = 0
    (3, (2, -1), ORDER.format(3, (2, -1))),                  # n_p < 0
])
def test_one_shape_rule(taker, n, exps, message):
    # Problem and every shape-taking function accept and refuse the same
    # shapes, with the same error
    call = SHAPE_TAKERS[taker]
    if message is None:
        call(n, exps)
        shape = _checked_shape((n, exps))
        assert shape == (int(n), tuple(map(int, exps)))
        assert all(type(v) is int for v in (shape[0], *shape[1]))
    else:
        with pytest.raises(ValueError) as info:
            call(n, exps)
        assert type(info.value) is ValueError and str(info.value) == message


# every place a real input enters, with the name its message gives the values;
# each takes (0.5, value) and returns the floats it stored, or maps back to them
REAL_TAKERS = {
    "Problem": ("coefficients", lambda c: Problem(3, (2, 1), c).coeffs),
    "psi_inverse": ("coefficients", lambda c: psi_forward(psi_inverse(c, (3, (2, 1))), (3, (2, 1)))),
    "ParamPoint": ("xi", lambda c: ParamPoint(c).xi),
}


@pytest.mark.parametrize("taker", REAL_TAKERS)
@pytest.mark.parametrize("value, refused", [
    (3, False), (np.float32(0.25), False), (Fraction(1, 3), False), (0, False),
    (math.nan, True), (math.inf, True), (-math.inf, True), (-1.0, True),
    (True, True),              # a JSON true used to pass as 1.0
    ("0.5", True),             # a JSON string used to pass through float()
    (np.True_, True), (b"0.5", True), (None, True),
])
def test_one_coefficient_rule(taker, value, refused):
    # Problem, psi_inverse and ParamPoint accept and refuse the same values,
    # with the same error
    what, call = REAL_TAKERS[taker]
    if not refused:
        got = call((0.5, value))
        assert all(type(v) is float for v in got)
        assert got == pytest.approx((0.5, float(value)), rel=1e-14)
    else:
        with pytest.raises(ValueError) as info:
            call((0.5, value))
        assert type(info.value) is ValueError
        assert str(info.value) == f"{what} must be finite and nonnegative numbers, got {value!r}"


def test_principal_root_at_zero_coeffs():
    assert principal_root(Problem(5, [3, 1], [0.0, 0.0])) == 1.0


def test_principal_root_quadratic_golden():
    assert principal_root(Problem(2, [1], [1.0])) == pytest.approx(GOLDEN_CONJ, abs=1e-13)


def test_principal_root_half():
    # Z = 0.5 solves Z^2 + 1.5 Z - 1 = 0 exactly
    assert principal_root(Problem(2, [1], [1.5])) == pytest.approx(0.5, abs=1e-13)


def test_residual_bulk():
    rng = np.random.default_rng(10)
    for _ in range(10_000):
        p = int(rng.integers(1, 6))
        n = int(rng.integers(p + 1, 13))
        exps = np.sort(rng.choice(np.arange(1, n), size=p, replace=False))[::-1]
        coeffs = rng.uniform(0.0, 10.0, size=p)
        problem = Problem(n, exps, coeffs)
        z = principal_root(problem)
        assert abs(problem._poly(z)) <= 1e-12


def test_monotone_in_each_coefficient():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(p + 1, 10))
        exps = np.sort(rng.choice(np.arange(1, n), size=p, replace=False))[::-1]
        coeffs = rng.uniform(0.05, 5.0, size=p)
        base = principal_root(Problem(n, exps, coeffs))
        j = int(rng.integers(0, p))
        bumped = coeffs.copy()
        bumped[j] += rng.uniform(0.1, 2.0)
        assert principal_root(Problem(n, exps, bumped)) < base


def test_range_property():
    rng = np.random.default_rng(12)
    for _ in range(200):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(p + 1, 10))
        exps = np.sort(rng.choice(np.arange(1, n), size=p, replace=False))[::-1]
        coeffs = rng.uniform(0.0, 8.0, size=p) * rng.integers(0, 2, size=p)
        z = principal_root(Problem(n, exps, coeffs))
        assert 0.0 < z <= 1.0
        assert (z == 1.0) == bool(np.all(coeffs == 0.0))


def _nearest(roots, z):
    return min(roots, key=lambda r: abs(r - z))


def test_all_roots_quadratic():
    problem = Problem(2, [1], [0.0])
    roots = all_roots(problem)
    got = sorted(r.real for r in roots)
    assert got == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert _nearest(roots, principal_root(problem)) == pytest.approx(1.0, abs=1e-12)


def test_all_roots_cubic_roots_of_unity():
    roots = all_roots(Problem(3, [1], [0.0]))
    expected = sorted((cmath.exp(2j * math.pi * k / 3) for k in range(3)),
                      key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    got = sorted(roots, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    for g, e in zip(got, expected):
        assert abs(g - e) <= 1e-10


def test_all_roots_vieta():
    problem = Problem(4, [2, 1], [0.3, 0.2])
    roots = all_roots(problem)
    # z^4 + 0.3 z^2 + 0.2 z - 1: sum = 0, product = (-1)^4 * (-1)
    assert sum(roots) == pytest.approx(0.0, abs=1e-10)
    prod = 1.0 + 0.0j
    for r in roots:
        prod *= r
    assert prod == pytest.approx(-1.0, abs=1e-10)
    for r in roots:
        assert abs(problem._poly(r)) <= 1e-10 * (1.0 + sum(problem.coeffs))


def test_all_roots_residuals_bulk():
    # |poly(root)| <= 1e-10 (1 + sum coeffs), floored at the evaluation
    # roundoff scale sum |c_k| |z|^k * eps (unavoidable for |z| >> 1 roots)
    rng = np.random.default_rng(14)
    for _ in range(200):
        p = int(rng.integers(1, 6))
        n = int(rng.integers(p + 1, 13))
        exps = np.sort(rng.choice(np.arange(1, n), size=p, replace=False))[::-1]
        problem = Problem(n, exps, rng.uniform(0.0, 10.0, size=p))
        roots = all_roots(problem)
        for r in roots:
            scale = (abs(r) ** n + 1.0
                     + sum(c * abs(r) ** e for c, e in zip(problem.coeffs, problem.exps)))
            bound = max(1e-10 * (1.0 + sum(problem.coeffs)), 100.0 * 2.3e-16 * scale)
            assert abs(problem._poly(r)) <= bound
        zp = principal_root(problem)
        principal = _nearest(roots, zp)
        assert principal.imag == pytest.approx(0.0, abs=1e-12)
        assert principal.real == pytest.approx(zp, abs=1e-10)


def test_epsilon_family_zero_coeffs():
    fam = epsilon_family(Problem(4, [2], [0.0]))
    expected = [cmath.exp(2j * math.pi * k / 4) for k in range(4)]
    for e in expected:
        assert min(abs(e - f) for f in fam) <= 1e-12


def test_epsilon_family_quadratic_frozen():
    fam = epsilon_family(Problem(2, [1], [0.1]))
    vals = sorted(f.real for f in fam)
    assert vals[0] == pytest.approx(-1.051249219725039286, abs=1e-12)
    assert vals[1] == pytest.approx(0.951249219725039286, abs=1e-12)


def _match_multisets(a, b):
    b = list(b)
    worst = 0.0
    for z in a:
        j = min(range(len(b)), key=lambda k: abs(z - b[k]))
        worst = max(worst, abs(z - b[j]))
        b.pop(j)
    return worst


def test_epsilon_family_matches_all_roots_cubic():
    problem = Problem(3, [2, 1], [0.1, 0.1])
    assert _match_multisets(epsilon_family(problem), all_roots(problem)) <= 1e-9


def test_epsilon_family_matches_all_roots():
    rng = np.random.default_rng(13)
    for _ in range(100):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(p + 1, 9))
        exps = np.sort(rng.choice(np.arange(1, n), size=p, replace=False))[::-1]
        coeffs = rng.uniform(0.01, 0.4, size=p)
        coeffs *= 0.45 / max(0.45, coeffs.sum())
        problem = Problem(n, exps, coeffs)
        assert _match_multisets(epsilon_family(problem), all_roots(problem)) <= 1e-9


def test_epsilon_family_precondition():
    with pytest.raises(ValueError):
        epsilon_family(Problem(3, [1], [0.6]))


def test_newton_reports_convergence_and_stops_on_zero_derivative():
    from mellinroots.oracle import _newton

    q = Problem(2, [1], [1.0])
    z, converged = _newton(q, 1.0, 64, 1e-15)
    assert converged and z == pytest.approx(GOLDEN_CONJ, rel=1e-15)
    assert _newton(q, 1.0, 1, 1e-15) == (0.6666666666666667, False)
    # Z^2 + 0*Z - 1 has P'(0) = 0: Newton from 0 stops there, unconverged
    assert _newton(Problem(2, [1], [0.0]), 0j, 64, 1e-15) == (0j, False)
