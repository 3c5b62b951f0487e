"""Tests for the complex log-gamma core and overflow-safe ratios."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mellinroots import (GammaOverflowError, PoleError, Problem, gamma_ratio, log_gamma,
                         principal_root_mb)
from mellinroots import gamma, mellin
from mellinroots.gamma import POLE_TOL, is_pole, log_gamma_array

# high-precision reference values (40-digit arbitrary-precision evaluation)
LOG_GAMMA_3_4I = complex(-1.756626784603784110530604181623275785157,
                         4.742664438034657928194889407550022740888)
LOG_SQRT_PI = 0.5723649429247000870717136756765293558236
RATIO_125_05_275 = 0.9988790683017599277961293675775693004506


def test_log_gamma_at_one():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)


def test_log_gamma_at_half():
    assert log_gamma(0.5).real == pytest.approx(LOG_SQRT_PI, rel=1e-14)
    assert log_gamma(0.5).imag == 0.0


def test_log_gamma_complex_frozen():
    got = log_gamma(3 + 4j)
    assert abs(got - LOG_GAMMA_3_4I) <= 1e-13 * (1 + abs(LOG_GAMMA_3_4I))


def test_log_gamma_real_positive_is_real():
    rng = np.random.default_rng(1)
    for x in rng.uniform(1e-3, 40.0, size=200):
        assert log_gamma(complex(x)).imag == 0.0


def test_recurrence_bulk():
    # |lg(z+1) - lg(z) - log z| small over 10^4 random right-half-plane points
    rng = np.random.default_rng(2)
    z = rng.uniform(0.5, 50.0, size=10_000) + 1j * rng.uniform(-50.0, 50.0, size=10_000)
    lg = log_gamma_array(z)
    lg1 = log_gamma_array(z + 1.0)
    resid = np.abs(lg1 - lg - np.log(z))
    assert np.all(resid <= 1e-12 * (1.0 + np.abs(lg)))


def test_reflection_identity():
    # Gamma(z) Gamma(1-z) sin(pi z) / pi = 1
    rng = np.random.default_rng(3)
    count = 0
    while count < 2000:
        z = complex(rng.uniform(-10, 10), rng.uniform(-8, 8))
        if abs(z.imag) < 0.05 and abs(z.real - round(z.real)) < 0.05:
            continue
        count += 1
        val = cmath.exp(log_gamma(z) + log_gamma(1 - z)) * cmath.sin(math.pi * z) / math.pi
        assert abs(val - 1.0) <= 1e-10


@settings(max_examples=300, deadline=None)
@given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=40.0,
                          allow_nan=False, allow_infinity=False))
def test_conjugate_symmetry(z):
    if abs(z.imag) < 1e-6 and z.real <= 0.5:
        return  # skip the cut and pole neighborhoods
    assert log_gamma(z.conjugate()) == pytest.approx(log_gamma(z).conjugate(), rel=1e-12, abs=1e-12)


def _bits(values):
    return np.asarray(values, dtype=np.complex128).view(np.int64).tolist()


def _one_pass_sample():
    # both half-planes, both sides of Re z = 1/2 and the positive real axis;
    # off the axis every point is at least 1e-3 from it, so none is near a
    # pole or the cut
    rng = np.random.default_rng(16)
    n = 1500
    re = np.concatenate([rng.uniform(-15, 15, n), 0.5 + rng.uniform(-0.1, 0.1, n)])
    im = rng.choice([-1, 1], 2 * n) * rng.uniform(1e-3, 40, 2 * n)
    return np.concatenate([re + 1j * im, rng.uniform(1e-3, 0.5, 200),
                           rng.uniform(0.5, 40, 200).astype(complex)])


def test_array_matches_scalar_bit_for_bit():
    z = _one_pass_sample()
    assert _bits(log_gamma_array(z)) == _bits([log_gamma(v) for v in z])


def test_conjugation_is_exact_off_the_axis():
    z = _one_pass_sample()
    z = z[z.imag != 0.0]
    assert _bits(log_gamma_array(z.conj())) == _bits(log_gamma_array(z).conj())


def test_gamma_ratio_is_the_in_order_sum_of_scalar_log_gammas():
    z = _one_pass_sample()
    z = z[np.abs(z) < 12]
    rng = np.random.default_rng(17)
    for _ in range(300):
        num = list(rng.choice(z, rng.integers(0, 4)))
        den = list(rng.choice(z, rng.integers(0, 3)))
        total = 0.0 + 0.0j
        for v in num:
            total += log_gamma(v)
        for v in den:
            total -= log_gamma(v)
        assert _bits([gamma_ratio(num, den)]) == _bits([cmath.exp(total)])


@pytest.mark.parametrize("z", [0.0, -1.0, -3.0, -7 + 1e-14j, -2.0 + 0.5e-12])
def test_pole_raises(z):
    with pytest.raises(PoleError):
        log_gamma(z)


_POLE_OFFSETS = [0.0, 4e-13, -4e-13, 7e-13j, -7e-13j, 7e-13, 2e-12]


@pytest.mark.parametrize("k", [0, -1, -2, -3])
@pytest.mark.parametrize("d", _POLE_OFFSETS)
def test_is_pole_is_the_rule_log_gamma_raises_on(k, d):
    z = k + d
    try:
        log_gamma(z)
        raises = False
    except PoleError:
        raises = True
    assert bool(is_pole(z)) == raises == (abs(d) < POLE_TOL)


def test_is_pole_elementwise():
    z = np.array([k + d for k in (0, -1, -2, -3) for d in _POLE_OFFSETS])
    assert is_pole(z).tolist() == [bool(is_pole(v)) for v in z]


def test_gamma_ratio_identity():
    assert gamma_ratio([2.0], [2.0]) == pytest.approx(1.0, rel=1e-14)


def test_gamma_ratio_factorial():
    # Gamma(5)/Gamma(3) = 24/2
    assert gamma_ratio([5.0], [3.0]) == pytest.approx(12.0, rel=1e-13)


def test_gamma_ratio_frozen():
    got = gamma_ratio([1.25, 0.5], [2.75])
    assert got.real == pytest.approx(RATIO_125_05_275, rel=1e-13)
    assert abs(got.imag) <= 1e-14


def test_gamma_ratio_survives_underflowing_factors():
    # high on a vertical line each factor underflows; the ratio is 1/z exactly
    z = 0.5 + 500j
    got = gamma_ratio([z], [z + 1.0])
    assert got == pytest.approx(1.0 / z, rel=1e-12)


def test_gamma_ratio_overflow_raises():
    with pytest.raises(GammaOverflowError):
        gamma_ratio([400.0], [2.0])


def test_overflowing_log_gamma_of_a_finite_argument_raises():
    # inf - inf in the series used to return NaN in place of a value
    with pytest.raises(GammaOverflowError):
        gamma_ratio([1e308], [1e308 + 1])
    with pytest.raises(GammaOverflowError):
        mellin.kernel_value((2, (1,)), 1e308, [0.3])
    # a non-finite argument still gives a non-finite result, without a warning
    assert not np.isfinite(log_gamma_array([math.nan, math.inf, complex(1.0, math.inf)])).any()


def test_gamma_ratio_pole_raises_either_side():
    with pytest.raises(PoleError):
        gamma_ratio([-2.0], [1.0])
    with pytest.raises(PoleError):
        gamma_ratio([1.0], [-2.0])


def test_against_arbitrary_precision_grid():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = np.random.default_rng(4)
    for _ in range(300):
        z = complex(rng.uniform(-20, 20), rng.uniform(-40, 40))
        if min(abs(z + k) for k in range(0, 25)) < 1e-3:
            continue
        ref = mpmath.loggamma(mpmath.mpc(z.real, z.imag))
        ref = complex(float(ref.real), float(ref.imag))
        assert abs(log_gamma(z) - ref) <= 5e-14 * (1.0 + abs(ref))


def _mp_log_gamma(z):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = mpmath.loggamma(mpmath.mpc(z.real, z.imag))
        return complex(float(ref.real), float(ref.imag))


@pytest.mark.parametrize("problem, alpha, coeffs", [
    (Problem(5, [3], [0.7]), 2.0, None),
    (Problem(4, [3, 1], [0.5, 1.1]), 1.0, None),
    (Problem(3, [2], [0.9]), 1.0, [0.9 * cmath.exp(0.5j)]),   # |arg x| < pi n_1/n
])
def test_lattice_tables_against_arbitrary_precision(monkeypatch, problem, alpha, coeffs):
    # the arguments of the contour's own tables on default solves: p = 1, p = 2
    # and a complex coefficient inside the sector
    seen = []

    def spy(z):
        seen.append(np.array(z))
        return log_gamma_array(z)

    monkeypatch.setattr(mellin, "log_gamma_array", spy)
    principal_root_mb(problem, alpha, coeffs=coeffs)
    (z,) = seen
    assert (z.real > 0).all()
    z = z[::max(1, z.size // 1500)]
    got = log_gamma_array(z)
    for v, g in zip(z, got):
        ref = _mp_log_gamma(v)
        assert abs(g - ref) <= 5e-14 * (1.0 + abs(ref)), v


def test_branch_unwrap_bound():
    # log prod_{j<8} (z + j) takes its branch from 8 arg(z + 7/2): sound while
    # D = sum_j arg(z + j) - 8 arg(z + 7/2) stays well inside (-pi, pi)
    re = np.concatenate([np.geomspace(1e-9, 50.0, 60), np.linspace(0.1, 3.0, 30)])
    im = np.concatenate([np.geomspace(1e-6, 1e4, 200), np.linspace(0.0, 5.0, 101)])
    im = np.concatenate([im, -im])
    z = (re[:, None] + 1j * im[None, :]).ravel()
    D = sum(np.angle(z + j) for j in range(8)) - 8.0 * np.angle(z + 3.5)
    assert np.abs(D).max() <= 1.7
    direct = sum(np.log(z + j) for j in range(8))
    assert np.abs(gamma._log_rising8(z) - direct).max() <= 1e-12 * (1.0 + np.abs(direct)).max()


def test_far_right_half_plane_is_finite_and_accurate():
    # the shift's product would overflow past |z| ~ 1e38; the series then runs at z
    z = np.array([r * cmath.exp(1j * phi)
                  for r in 10.0 ** np.arange(0, 301, 6)
                  for phi in (0.0, 0.6, -1.2, math.pi / 2 - 1e-9)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = log_gamma_array(z)
    assert np.isfinite(got).all()
    for v, g in zip(z, got):
        ref = _mp_log_gamma(v)
        assert abs(g - ref) <= 5e-14 * (1.0 + abs(ref)), v
    # near and far elements in one call match calls one at a time
    assert _bits(got) == _bits([log_gamma(v) for v in z])


def test_empty_array():
    for empty in ([], np.zeros(0, dtype=complex), np.zeros((0, 3))):
        got = log_gamma_array(empty)
        assert got.dtype == np.complex128 and got.shape == np.shape(empty)
