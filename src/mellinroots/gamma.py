"""Complex log-gamma and overflow-safe gamma ratios.

Everything downstream (transform kernels, Dirichlet-type integrals; the p = 1
series takes finite products instead) is a ratio of gamma factors evaluated far
up a vertical line, where the individual |Gamma| values underflow or overflow
long before the ratio does.  All ratios are therefore formed in log space.

``log_gamma`` is the principal branch: analytic on C minus (-inf, 0] and
real on the positive real axis.  The pole rule (is_pole) is applied to
every element first; then one pass picks the branch by Re z alone.  On
Re z > 0 it is Stirling's series (DLMF 5.11.1, eight terms) at z + 8, less
log prod_{j<8} (z + j), whose branch is recovered in closed form (past
|z| = 1e10, where that product nears overflow, the series runs at z itself).
On Re z <= 0 it is the reflection formula, with the same series at 1 - z
and a log-sine formed in the upper half-plane.  A finite argument whose
log-gamma overflows raises GammaOverflowError.  ``gamma_ratio`` is one such call.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .errors import GammaOverflowError, PoleError

__all__ = ["POLE_TOL", "log_gamma", "log_gamma_array", "gamma_ratio", "is_pole"]

POLE_TOL = 1e-12

# B_2k / (2k (2k - 1)), k = 1..8: Stirling's series for log Gamma(w) is
# (w - 1/2) log w - w + log sqrt(2 pi) + sum_k c_k w^(1 - 2k).  For |ph w| <= pi/2
# the remainder is at most sec^18(ph w / 2) times the first neglected term
# |B_18| / (306 |w|^17) (DLMF 5.11(ii)); at Re w >= 8 that is below 8e-17
_STIRLING = (0.08333333333333333, -0.002777777777777778, 0.0007936507936507937,
             -0.0005952380952380953, 0.0008417508417508417, -0.0019175269175269176,
             0.00641025641025641, -0.029550653594771242)
_LOG_SQRT_2PI = 0.9189385332046727
_LOG_PI = math.log(math.pi)
_TWO_PI = 2.0 * math.pi

# the shift's product, about |z|^8, stays in double range below |z| of about 1e38;
# past _FAR the series runs at z itself, where its remainder is below 1e-160
_FAR = 1e10

# elements per pass: a complex temporary of 4096 elements (64 KB) stays below
# glibc's mmap threshold, so a long array reuses heap memory instead of
# faulting in fresh pages for each of its some thirty temporaries
_CHUNK = 4096

# exp() overflows past ~709.78; leave margin for the final multiply.
_EXP_OVERFLOW = 709.0


def is_pole(z) -> np.ndarray:
    """Elementwise: True within POLE_TOL of a nonpositive integer.

    The one pole rule: log_gamma_array, and so log_gamma and gamma_ratio,
    raise PoleError exactly where it holds.
    """
    z = np.asarray(z, dtype=np.complex128)
    k = np.round(z.real)
    return (k <= 0) & (np.abs(z - k) < POLE_TOL)


def _log_abs_arg(w: np.ndarray) -> np.ndarray:
    # principal log from a real log and arctan2, far cheaper than complex log
    out = np.empty_like(w)
    np.log(np.abs(w), out=out.real)
    np.arctan2(w.imag, w.real, out=out.imag)
    return out


def _stirling(w: np.ndarray) -> np.ndarray:
    # log Gamma(w) for Re w >= 8, or Re w > 0 and |w| >= _FAR; complex products
    # are formed out of place, which numpy rounds the same at every array
    # length (an in-place product on a one-element array rounds differently)
    r = 1.0 / w
    v = r * r
    s = _STIRLING[-1] * v
    for c in _STIRLING[-2:0:-1]:
        s = (s + c) * v
    s = (s + _STIRLING[0]) * r
    return (w - 0.5) * (_log_abs_arg(w) - 1.0) + (_LOG_SQRT_2PI - 0.5) + s


def _log_rising8(z: np.ndarray) -> np.ndarray:
    # sum_{j<8} log(z + j) for Re z > 0, from the product, whose factors pair as
    # (z + j)(z + 7 - j) = q + j (7 - j) with q = z (z + 7).  The product's log
    # is log|p| + i (arg p + 2 pi k).  Lemma: with zeta = z + 7/2, and every
    # arg below in (-pi/2, pi/2) so that no sum of two wraps,
    # D = sum_j arg(z + j) - 8 arg(zeta) = sum_{d = 1/2, 3/2, 5/2, 7/2} arg(1 - d^2/zeta^2);
    # |d^2/zeta^2| <= (d/3.5)^2 <= 1 and |arg(1 - x)| <= arcsin|x| give
    # |D| < 2.32 < pi (1.697 at most on a fine grid, near z = 0.67i), so k is
    # (8 arg(zeta) - arg p) / 2 pi, rounded
    q = z * (z + 7.0)
    p = (q * (q + 6.0)) * ((q + 10.0) * (q + 12.0))
    out = _log_abs_arg(p)
    turns = np.rint((8.0 * np.arctan2(z.imag, z.real + 3.5) - out.imag) / _TWO_PI)
    out.imag += _TWO_PI * turns
    return out


def _log_gamma_right(z: np.ndarray) -> np.ndarray:
    # principal log Gamma on Re z > 0; on the positive real axis every
    # imaginary part formed here is an exact +0, so the result is real there
    far = np.abs(z) >= _FAR
    if not np.count_nonzero(far):
        return _stirling(z + 8.0) - _log_rising8(z)
    out = np.empty_like(z)
    out[far] = _stirling(z[far])
    out[~far] = _log_gamma_right(z[~far])
    return out


def _logsinpi_upper(z: np.ndarray) -> np.ndarray:
    # continuous log(sin(pi z)) for Im z >= 0:
    # sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z}),  |e^{2 i pi z}| <= 1
    q = np.exp(2j * math.pi * z)
    return -1j * math.pi * z + complex(-math.log(2.0), math.pi / 2) + np.log1p(-q)


def _log_gamma_flat(z: np.ndarray) -> np.ndarray:
    # log_gamma_array on a one-dimensional array
    if np.count_nonzero(is_pole(z)):
        raise PoleError("log_gamma argument at a nonpositive integer")
    left = z.real <= 0.0
    if not np.count_nonzero(left):  # every table of the contour
        return _log_gamma_right(z)
    out = _log_gamma_right(np.where(left, 1.0 - z, z))
    zl = z[left]
    lower = zl.imag < 0.0
    logsin = _logsinpi_upper(np.where(lower, np.conj(zl), zl))
    logsin[lower] = np.conj(logsin[lower])
    out[left] = _LOG_PI - logsin - out[left]
    return out


def log_gamma_array(z) -> np.ndarray:
    """Principal-branch log-gamma, elementwise over a complex array.

    Raises PoleError if is_pole holds for any element, and GammaOverflowError if
    a finite element's log-gamma overflows; a non-finite element's is not finite.
    """
    z = np.asarray(z, dtype=np.complex128)
    flat = z.reshape(-1)
    out = np.empty_like(flat)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, flat.size, _CHUNK):
            out[i:i + _CHUNK] = _log_gamma_flat(flat[i:i + _CHUNK])
    if not np.isfinite(out).all() and (np.isfinite(flat) & ~np.isfinite(out)).any():
        raise GammaOverflowError("log-gamma of a finite argument exceeds double range")
    return out.reshape(z.shape)


def log_gamma(z: complex) -> complex:
    """Principal-branch log Gamma(z); real for real z > 0."""
    return complex(log_gamma_array(np.asarray(complex(z)))[()])


def gamma_ratio(numerators: Sequence[complex], denominators: Sequence[complex]) -> complex:
    """prod Gamma(numerators) / prod Gamma(denominators), formed in log space.

    Never overflows while the ratio itself is representable.  Raises
    PoleError if any argument (either side) is at a pole of its factor and
    GammaOverflowError if the ratio exceeds double range.
    """
    lg = log_gamma_array([*numerators, *denominators]).tolist()
    total = 0.0 + 0.0j
    for v in lg[:len(numerators)]:
        total += v
    for v in lg[len(numerators):]:
        total -= v
    if total.real > _EXP_OVERFLOW:
        raise GammaOverflowError(
            f"gamma ratio magnitude exp({total.real:.1f}) exceeds double range")
    return cmath.exp(total)
