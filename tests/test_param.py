"""Tests for the parametric map, its Jacobian, and the level-equation inverse."""

import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mellinroots import (GammaOverflowError, ParamPoint, Problem, RootConvergenceError,
                         jacobian_det, principal_root, principal_root_param, psi_forward,
                         psi_inverse)
from mellinroots.sampling import random_shape


def test_param_point_invariants():
    pt = ParamPoint([1.0, 2.0])
    assert pt.s == 3.0 and pt.W == 4.0
    with pytest.raises(ValueError):
        ParamPoint([-1.0])
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="xi must be finite and nonnegative"):
            ParamPoint([1.0, bad])
        with pytest.raises(ValueError, match="xi must be finite and nonnegative"):
            ParamPoint(xi=(bad,))
    with pytest.raises(ValueError, match="xi must be finite and nonnegative"):
        ParamPoint([math.inf, -math.inf])
    with pytest.raises(ValueError, match=r"sum\(xi\) overflows double range"):
        ParamPoint([1e308, 1e308])
    with pytest.raises(ValueError, match=r"sum\(xi\) overflows double range"):
        ParamPoint(xi=(1e308, 1e308))


def test_param_point_takes_only_xi():
    # s and W are derived from xi, never passed
    with pytest.raises(TypeError, match="unexpected keyword argument 's'"):
        ParamPoint((1.0,), s=2.0)


def test_forward_fixed_point():
    assert psi_forward(ParamPoint([0.0, 0.0]), (3, (2, 1))) == (0.0, 0.0)


def test_forward_quadratic():
    # xi = 3, n = 2: x = 3 * 4^(-1/2) = 1.5
    x = psi_forward(ParamPoint([3.0]), (2, (1,)))
    assert x[0] == pytest.approx(1.5, rel=1e-15)


def test_forward_two_vars():
    x = psi_forward(ParamPoint([1.0, 1.0]), (3, (2, 1)))
    assert x[0] == pytest.approx(3.0 ** (-1.0 / 3.0), rel=1e-14)
    assert x[1] == pytest.approx(3.0 ** (-2.0 / 3.0), rel=1e-14)


def test_jacobian_at_zero():
    assert jacobian_det(ParamPoint([0.0, 0.0, 0.0]), (5, (4, 2, 1))) == 1.0


def test_jacobian_quadratic_closed_value():
    # 4^(1/2 - 2) * (1 + 3/2) = 0.3125
    got = jacobian_det(ParamPoint([3.0]), (2, (1,)))
    assert got == pytest.approx(0.3125, rel=1e-14)


def _fd_jacobian(xi, shape):
    p = len(xi)
    J = np.empty((p, p))
    for j in range(p):
        h = 5e-6 * (1.0 + abs(xi[j]))
        up = list(xi)
        dn = list(xi)
        up[j] += h
        dn[j] -= h
        fp = psi_forward(ParamPoint(up), shape)
        fm = psi_forward(ParamPoint(dn), shape)
        J[:, j] = (np.asarray(fp) - np.asarray(fm)) / (2.0 * h)
    return float(np.linalg.det(J))


def test_jacobian_representable_at_huge_xi():
    # W^(1/2 - 2) alone underflows; the determinant, about 5e-155, does not
    xi = mpmath.mpf(1e308)
    with mpmath.workdps(40):
        want = float((1 + xi) ** mpmath.mpf(-1.5) * (1 + xi / 2))
    got = jacobian_det(ParamPoint([1e308]), (2, (1,)))
    assert abs(got - want) <= 1e-13 * want


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(20)
    for _ in range(200):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(p + 1, 9))
        exps = np.sort(rng.choice(np.arange(1, n), size=p, replace=False))[::-1]
        xi = rng.uniform(0.0, 5.0, size=p)
        shape = (n, tuple(int(e) for e in exps))
        closed = jacobian_det(ParamPoint(xi), shape)
        assert closed > 0.0
        assert abs(closed - _fd_jacobian(list(xi), shape)) <= 1e-6 * abs(closed)


def test_inverse_fixed_point():
    pt = psi_inverse([0.0, 0.0], (4, (3, 1)))
    assert pt.xi == (0.0, 0.0) and pt.s == 0.0 and pt.W == 1.0


def test_inverse_quadratic_closed_value():
    # x = 1.5 (n=2): s^2 = 2.25 (1+s) has positive root s = 3
    pt = psi_inverse([1.5], (2, (1,)))
    assert pt.s == pytest.approx(3.0, rel=1e-13)
    assert pt.xi[0] == pytest.approx(3.0, rel=1e-13)


def test_inverse_matches_quadratic_closed_form():
    # p = 1, n = 2: psi^-1(z) = -1 + (z/2 + sqrt(1 + (z/2)^2))^2
    rng = np.random.default_rng(21)
    for z in rng.uniform(0.0, 50.0, size=200):
        pt = psi_inverse([z], (2, (1,)))
        expected = -1.0 + (z / 2.0 + math.sqrt(1.0 + (z / 2.0) ** 2)) ** 2
        assert pt.xi[0] == pytest.approx(expected, rel=1e-11)


def test_round_trip_bulk():
    rng = np.random.default_rng(22)
    for _ in range(10_000):
        p = int(rng.integers(1, 7))
        n = int(rng.integers(p + 1, 13))
        exps = np.sort(rng.choice(np.arange(1, n), size=p, replace=False))[::-1]
        shape = (n, tuple(int(e) for e in exps))
        xi = rng.uniform(0.0, 100.0, size=p)
        x = psi_forward(ParamPoint(xi), shape)
        back = psi_inverse(x, shape)
        for a, b in zip(back.xi, xi):
            assert abs(a - b) <= 1e-11 * (1.0 + abs(b))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=3))
def test_round_trip_property(xi):
    p = len(xi)
    shape = (p + 2, tuple(range(p + 1, 1, -1)))
    x = psi_forward(ParamPoint(xi), shape)
    back = psi_inverse(x, shape)
    for a, b in zip(back.xi, xi):
        assert abs(a - b) <= 1e-10 * (1.0 + abs(b))


def test_substitution_identity():
    # x = psi(xi) and Z = W^(-1/n) satisfy the equation to near machine precision
    rng = np.random.default_rng(23)
    for _ in range(2000):
        p = int(rng.integers(1, 7))
        n = int(rng.integers(p + 1, 13))
        exps = np.sort(rng.choice(np.arange(1, n), size=p, replace=False))[::-1]
        shape = (n, tuple(int(e) for e in exps))
        pt = ParamPoint(rng.uniform(0.0, 100.0, size=p))
        x = psi_forward(pt, shape)
        z = pt.W ** (-1.0 / n)
        assert abs(Problem(n, exps, x)._poly(z)) <= 1e-13


def test_level_set_preservation():
    # forward images satisfy sum x_i (1+s)^(1 - n_i/n) = s
    rng = np.random.default_rng(24)
    for _ in range(500):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(p + 1, 10))
        exps = np.sort(rng.choice(np.arange(1, n), size=p, replace=False))[::-1]
        shape = (n, tuple(int(e) for e in exps))
        pt = ParamPoint(rng.uniform(0.0, 20.0, size=p))
        x = psi_forward(pt, shape)
        s = math.fsum(xv * pt.W ** (1.0 - e / n) for xv, e in zip(x, exps))
        assert s == pytest.approx(pt.s, rel=1e-12, abs=1e-12)


def test_principal_root_param_examples():
    assert principal_root_param(Problem(4, [2, 1], [0.0, 0.0])) == pytest.approx(1.0, abs=1e-15)
    assert principal_root_param(Problem(2, [1], [1.5])) == pytest.approx(0.5, abs=1e-14)


def test_principal_root_param_matches_oracle():
    rng = np.random.default_rng(25)
    for _ in range(500):
        p = int(rng.integers(1, 6))
        n = int(rng.integers(p + 1, 13))
        exps = np.sort(rng.choice(np.arange(1, n), size=p, replace=False))[::-1]
        problem = Problem(n, exps, rng.uniform(0.0, 10.0, size=p))
        assert abs(principal_root_param(problem) - principal_root(problem)) <= 1e-12


@st.composite
def _wide_problems(draw):
    p = draw(st.integers(1, 5))
    n = draw(st.integers(p + 1, 12))
    exps = sorted(draw(st.sets(st.integers(1, n - 1), min_size=p, max_size=p)), reverse=True)
    logs = draw(st.lists(st.floats(-300.0, 300.0), min_size=p, max_size=p))
    return Problem(n, exps, [10.0 ** v for v in logs])


@settings(max_examples=300, deadline=None)
@given(_wide_problems())
def test_param_matches_oracle_on_wide_orthant(problem):
    # log-uniform coefficients from 1e-300 to 1e300: the whole orthant in double range
    zo = principal_root(problem)
    assert abs(principal_root_param(problem) - zo) <= 1e-12 * zo


def _relative_error(problem, z):
    """|z - Z| / Z to first order, |f(z)| / (z f'(z)) evaluated in 50-digit mpmath."""
    with mpmath.workdps(50):
        z = mpmath.mpf(z)
        terms = [(mpmath.mpf(1), problem.n)]
        terms += [(mpmath.mpf(c), e) for c, e in zip(problem.coeffs, problem.exps)]
        f = sum(c * z ** e for c, e in terms) - 1
        return float(abs(f) / sum(e * c * z ** e for c, e in terms))


@pytest.mark.parametrize("n, exps, coeffs", [
    (12, (1,), (1e12,)),                       # param: could not bracket
    (12, (1,), (1.8869286842301278e+139,)),   # param: could not bracket
    (12, (11, 3), (5.193751436298543e+40, 8.041343280189311e+88)),  # param: -inf + inf in fsum
    (6, (5, 4), (2.086897227207153e+229, 6.596961927416397e+231)),  # param: -inf + inf in fsum
    (4, (3,), (5.6418624849944076e+45,)),      # param: did not converge
    (12, (9, 7, 3), (4.879930064563728e-14, 1.0296763483644121e+117, 1732400997.5619488)),
    (12, (11,), (1e300,)),                     # oracle: bisection cap; W overflows
    (5, (4, 2, 1), (1e250, 0.0, 1e-280)),      # a zero among large ones
    (7, (6, 1), (0.0, 1e300)),
])
def test_real_axis_routes_on_wide_coefficients(n, exps, coeffs):
    problem = Problem(n, exps, coeffs)
    zo, zp = principal_root(problem), principal_root_param(problem)
    assert 0.0 < zo < 1.0
    assert _relative_error(problem, zo) <= 1e-12
    assert _relative_error(problem, zp) <= 1e-12
    assert abs(zp - zo) <= 1e-12 * zo


def test_real_axis_routes_all_zero_coefficients():
    problem = Problem(12, (11, 5, 1), (0.0, 0.0, 0.0))
    assert principal_root(problem) == principal_root_param(problem) == 1.0


def test_real_axis_routes_need_few_newton_steps(monkeypatch):
    # both routes run oracle._lse_newton; at 12 steps, far under its cap of
    # 200, none of 2,000 log-uniform draws over 1e+-300 (a tenth of the
    # coefficients zero) is cut short; over 6,000 draws, half of them uniform
    # on [0, 10], the oracle took at most 6 steps and param 7
    monkeypatch.setattr("mellinroots.oracle._MAX_NEWTON", 12)
    rng = np.random.default_rng(33)
    for _ in range(2000):
        p = int(rng.integers(1, 6))
        n, exps = random_shape(rng, p, n_max=12)
        coeffs = 10.0 ** rng.uniform(-300.0, 300.0, size=p)
        coeffs[rng.random(p) < 0.1] = 0.0
        problem = Problem(n, exps, coeffs)
        principal_root(problem)
        principal_root_param(problem)


@pytest.mark.parametrize("route", [principal_root, principal_root_param])
def test_real_axis_routes_raise_at_the_step_cap(route, monkeypatch):
    monkeypatch.setattr("mellinroots.oracle._MAX_NEWTON", 1)
    with pytest.raises(RootConvergenceError, match="Newton did not converge in 1 steps"):
        route(Problem(2, (1,), (1.0,)))


def test_psi_inverse_past_double_range():
    # L = log W = (12/11) log 1e300 > log(DBL_MAX): no ParamPoint, but the root exists
    problem = Problem(12, (11,), (1e300,))
    with pytest.raises(GammaOverflowError, match="double range"):
        psi_inverse(problem.coeffs, problem.shape)
    assert _relative_error(problem, principal_root_param(problem)) <= 1e-12
    # at the edge of the range a point is finite, or the error is typed
    edge = math.sqrt(sys.float_info.max)
    for k in range(-400, 400):
        try:
            point = psi_inverse([edge * (1.0 + k * 1e-16)], (2, (1,)))
        except GammaOverflowError:
            continue
        assert math.isfinite(point.W)


def test_psi_inverse_rejects_nonfinite_coefficients():
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            psi_inverse([0.5, bad], (3, (2, 1)))


def _psi_complex(xi: complex, shape) -> complex:
    """The map x = xi W^(n_1/n - 1), W = 1 + xi, for p = 1 on the principal branch."""
    n, (n1,) = shape
    return xi * cmath.exp((n1 / n - 1.0) * cmath.log(1.0 + xi))


def test_complex_map_conformal_identity():
    # psi(-1 + e^(s+it)) = 2 sinh((s+it)/2) for the quadratic shape
    rng = np.random.default_rng(26)
    for _ in range(200):
        s = rng.uniform(-3.0, 3.0)
        t = rng.uniform(-math.pi + 1e-6, math.pi - 1e-6)
        w = complex(s, t)
        got = _psi_complex(-1.0 + cmath.exp(w), (2, (1,)))
        assert abs(got - 2.0 * cmath.sinh(w / 2.0)) <= 1e-12


def test_complex_map_rejects_cut():
    # on 1 + xi <= 0 the principal branch jumps: the limits from above and
    # below the cut at xi = -2 are 2i and -2i, so the map is defined off it only
    above = _psi_complex(complex(-2.0, 1e-300), (2, (1,)))
    below = _psi_complex(complex(-2.0, -1e-300), (2, (1,)))
    assert above == pytest.approx(2j, abs=1e-12)
    assert below == pytest.approx(-2j, abs=1e-12)
