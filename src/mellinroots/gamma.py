"""Complex log-gamma and overflow-safe gamma ratios.

Everything downstream (transform kernels, residue series, Dirichlet-type
integrals) is a ratio of gamma factors evaluated far up a vertical line,
where the individual |Gamma| values underflow or overflow long before the
ratio does.  All ratios are therefore formed in log space.

``log_gamma`` is the principal branch: analytic on C minus (-inf, 0] and
real on the positive real axis.  One pass picks the branch by Re z alone:
a Lanczos rational approximation (g = 607/128, 15 coefficients) runs once,
at z where Re z >= 0.5 and at 1 - z elsewhere; only the Re z < 0.5 elements
(the only ones that can be poles) then take the reflection formula, with a
log-sine formed in the upper half-plane.  ``gamma_ratio`` is one such call.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .errors import GammaOverflowError, PoleError

__all__ = ["POLE_TOL", "log_gamma", "log_gamma_array", "gamma_ratio", "is_pole"]

POLE_TOL = 1e-12

# Lanczos coefficients for g = 607/128 (15-term set); relative error of the
# resulting Gamma is ~1e-15 on Re z >= 0.5.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182,
    57.156235665862923517, -59.597960355475491248, 14.136097974741747174,
    -0.49191381609762019978, 0.33994649984811888699e-4,
    0.46523628927048575665e-4, -0.98374475304879564677e-4,
    0.15808870322491248884e-3, -0.21026444172410488319e-3,
    0.21743961811521264320e-3, -0.16431810653676389022e-3,
    0.84418223983852743293e-4, -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])
_LOG_SQRT_2PI = 0.91893853320467274178
_LOG_PI = math.log(math.pi)

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


def _lanczos(z: np.ndarray) -> np.ndarray:
    # valid for Re z >= 0.5 only
    zm1 = z - 1.0
    s = np.full_like(z, _LANCZOS_C[0])
    for k in range(1, _LANCZOS_C.size):
        s += _LANCZOS_C[k] / (zm1 + k)
    t = zm1 + (_LANCZOS_G + 0.5)
    return _LOG_SQRT_2PI + (zm1 + 0.5) * np.log(t) - t + np.log(s)


def _logsinpi_upper(z: np.ndarray) -> np.ndarray:
    # continuous log(sin(pi z)) for Im z >= 0:
    # sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z}),  |e^{2 i pi z}| <= 1
    q = np.exp(2j * math.pi * z)
    return -1j * math.pi * z + complex(-math.log(2.0), math.pi / 2) + np.log1p(-q)


def log_gamma_array(z) -> np.ndarray:
    """Principal-branch log-gamma, elementwise over a complex array.

    Raises PoleError if is_pole holds for any element.
    """
    z = np.asarray(z, dtype=np.complex128)
    shape = z.shape
    z = np.atleast_1d(z)
    left = z.real < 0.5
    zl = z[left]
    if np.any(is_pole(zl)):     # a pole has Re z <= 0
        raise PoleError("log_gamma argument at a nonpositive integer")

    out = _lanczos(np.where(left, 1.0 - z, z))
    lower = zl.imag < 0.0
    logsin = _logsinpi_upper(np.where(lower, np.conj(zl), zl))
    logsin[lower] = np.conj(logsin[lower])
    out[left] = _LOG_PI - logsin - out[left]

    positive_real = (z.imag == 0.0) & (z.real > 0.0)
    out.imag[positive_real] = 0.0
    return out.reshape(shape)


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
