"""Ground-truth roots of Z^n + x1*Z^n1 + ... + xp*Z^np - 1 = 0.

This module never touches the parametric substitution or any contour
integral: the principal root comes from Newton on log Z, which needs no
bracket and covers every coefficient vector in double range; the full root
set comes from the companion matrix.  It is the independent referee
every other solver in the package is checked against.

Stated once here: the shape rule (_checked_shape), the rule for real inputs
(_finite_nonnegative) and the log-sum-exp Newton loop that param runs too (_lse_newton).
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ContinuationError, RootConvergenceError

__all__ = ["Problem", "principal_root", "all_roots", "epsilon_family"]

_MAX_NEWTON = 200
_NOT_NUMBERS = (bool, np.bool_, str, bytes)

Shape = tuple[int, tuple[int, ...]]


def _integer(value, what: str) -> int:
    """value as an int; ints, numpy integers and integral floats (3.0) pass, bools do not."""
    integral = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if integral and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _finite_nonnegative(values, what: str) -> tuple[float, ...]:
    """values as floats, each no bool or str and finite and >= 0 by float(); else ValueError."""
    out = []
    for v in values:
        try:
            c = math.nan if isinstance(v, _NOT_NUMBERS) else float(v)
        except (TypeError, ValueError):  # float() refuses it
            c = math.nan
        if not 0.0 <= c < math.inf:
            raise ValueError(f"{what} must be finite and nonnegative numbers, got {v!r}")
        out.append(c)
    return tuple(out)


def _checked_shape(shape) -> Shape:
    """shape = (n, exps) with int entries if it obeys the shape rule; ValueError otherwise.

    The rule: n and each exponent are integers (see _integer), n >= 1, p >= 1
    and 0 < n_p < ... < n_1 < n.
    """
    n, exps = shape
    n, exps = _integer(n, "degree n"), tuple(_integer(e, "exponent") for e in exps)
    if n < 1:
        raise ValueError(f"degree n must be positive, got {n}")
    if not exps:
        raise ValueError("at least one lower-order term is required")
    if not all(a > b for a, b in zip((n, *exps), (*exps, 0))):
        raise ValueError(
            f"exponents must satisfy 0 < n_p < ... < n_1 < n, got n={n}, exps={exps}")
    return n, exps


@dataclass(frozen=True)
class Problem:
    """Equation data: degree n, exponents n1 > ... > np, coefficients x >= 0.

    The constant term is always -1, the leading coefficient always 1, so a
    problem is fully described by (n, exps, coeffs).
    """

    n: int
    exps: tuple[int, ...]
    coeffs: tuple[float, ...]

    def __post_init__(self):
        n, exps = _checked_shape((self.n, self.exps))
        coeffs = tuple(self.coeffs)
        if len(coeffs) != len(exps):
            raise ValueError(f"got {len(coeffs)} coefficients for {len(exps)} exponents")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "coeffs", _finite_nonnegative(coeffs, "coefficients"))

    @property
    def p(self) -> int:
        return len(self.exps)

    @property
    def shape(self) -> Shape:
        return (self.n, self.exps)

    def _poly(self, z: complex) -> complex:
        val = z ** self.n - 1.0
        for c, e in zip(self.coeffs, self.exps):
            val += c * z ** e
        return val

    def _dpoly(self, z: complex) -> complex:
        val = self.n * z ** (self.n - 1)
        for c, e in zip(self.coeffs, self.exps):
            val += c * e * z ** (e - 1)
        return val

    def monic_coefficients(self) -> np.ndarray:
        """Dense coefficient vector [1, c_{n-1}, ..., c_0] (highest first)."""
        c = np.zeros(self.n + 1)
        c[0] = 1.0
        for x, e in zip(self.coeffs, self.exps):
            c[self.n - e] += x
        c[self.n] = -1.0
        return c


def principal_root(problem: Problem) -> float:
    """The unique root in (0, 1] with Z -> 1 as all coefficients -> 0.

    _lse_newton in y = log Z on F(y) = LSE(n y, log x_i + n_i y) = log(Z^n + sum x_i Z^n_i)
    from y0 = min(0, min_i -log(x_i)/n_i), where F(y0) >= 0.  Zero coefficients drop out.
    """
    lines = [(0.0, problem.n)]  # (intercept, slope) in y of each term's log
    lines += [(math.log(c), e) for c, e in zip(problem.coeffs, problem.exps) if c > 0.0]
    return math.exp(_lse_newton(lines, min(-b / s for b, s in lines)))


def _lse_newton(lines, y: float) -> float:
    """The zero of F(y) = LSE(b_j + s_j y) over lines (b_j, s_j), by Newton from y.

    With every s_j > 0 and F(y) >= 0 at a start y <= 0, Newton descends
    monotonically, with no bracket, in double range.  It stops once a step is
    <= 1e-14 max(1, -y); after _MAX_NEWTON steps it raises RootConvergenceError.
    """
    for _ in range(_MAX_NEWTON):
        a = [b + s * y for b, s in lines]
        top = max(a)
        w = [math.exp(v - top) for v in a]
        total = sum(w)
        # F / F' with F = top + log(total) and F' = sum s_j w_j / total
        step = (top + math.log(total)) * total / sum(s * wj for (_, s), wj in zip(lines, w))
        y -= step
        if step <= 1e-14 * max(1.0, -y):
            return y
    raise RootConvergenceError(f"Newton did not converge in {_MAX_NEWTON} steps on lines {lines}")


def _newton(problem: Problem, z: complex, steps: int, tol: float) -> tuple[complex, bool]:
    """Newton on the polynomial from z, at most ``steps`` steps: (z, converged).

    It has converged once a step is <= tol * max(|z|, 1); a zero derivative
    stops it unconverged.
    """
    for _ in range(steps):
        df = problem._dpoly(z)
        if df == 0:
            return z, False
        step = problem._poly(z) / df
        z = z - step
        if abs(step) <= tol * max(abs(z), 1.0):
            return z, True
    return z, False


def all_roots(problem: Problem) -> tuple[complex, ...]:
    """All n complex roots via the companion matrix, polished by Newton."""
    c = problem.monic_coefficients()
    n = problem.n
    comp = np.zeros((n, n))
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -c[1:][::-1]
    raw = np.linalg.eigvals(comp)
    return tuple(_newton(problem, complex(z), 64, 1e-16)[0] for z in raw)


def epsilon_family(problem: Problem) -> list[complex]:
    """The n roots as eps * Z~(eps^{n1} x1, ..., eps^{np} xp) over eps^n = 1.

    Each member is found by Newton on the original polynomial from the
    initial guess eps (equivalently, continuation of the principal branch
    under the root-of-unity symmetry).  Requires small coefficients so the
    branches stay separated.
    """
    total = math.fsum(problem.coeffs)
    if total >= 0.5:
        raise ValueError(
            f"epsilon_family requires sum(coeffs) < 0.5, got {total}")
    n = problem.n
    out: list[complex] = []
    for k in range(n):
        z, converged = _newton(problem, cmath.exp(2j * math.pi * k / n), _MAX_NEWTON, 1e-15)
        if not converged or abs(problem._poly(z)) > 1e-9 * (1.0 + math.fsum(map(abs, problem.coeffs))):
            raise ContinuationError(
                f"branch continuation failed from eps=exp(2 pi i {k}/{n})")
        out.append(z)

    for i in range(n):
        for j in range(i + 1, n):
            if abs(out[i] - out[j]) < 1e-8:
                raise ContinuationError(
                    f"branches {i} and {j} collided at {out[i]}")
    return out
