"""Ground-truth roots of Z^n + x1*Z^n1 + ... + xp*Z^np - 1 = 0.

This module never touches the parametric substitution or any contour
integral: the principal root comes from safeguarded Newton on (0, 1], the
full root set from the companion matrix.  It is the independent referee
every other solver in the package is checked against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContinuationError, RootConvergenceError

__all__ = ["Problem", "RootSet", "principal_root", "all_roots", "epsilon_family"]

_MAX_NEWTON = 200


@dataclass(frozen=True)
class Problem:
    """Equation data: degree n, exponents n1 > ... > np, coefficients x >= 0.

    The constant term is always -1, the leading coefficient always 1, so a
    problem is fully described by (n, exps, coeffs).
    """

    n: int
    exps: tuple[int, ...]
    coeffs: tuple[float, ...]

    def __init__(self, n: int, exps: Sequence[int], coeffs: Sequence[float]):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "exps", tuple(int(e) for e in exps))
        object.__setattr__(self, "coeffs", tuple(float(c) for c in coeffs))
        self._validate()

    def _validate(self) -> None:
        if self.n < 1:
            raise ValueError(f"degree n must be positive, got {self.n}")
        p = len(self.exps)
        if p < 1:
            raise ValueError("at least one lower-order term is required")
        if len(self.coeffs) != p:
            raise ValueError(
                f"got {len(self.coeffs)} coefficients for {p} exponents")
        if not all(self.n > self.exps[0] and self.exps[i] > self.exps[i + 1]
                   for i in range(p - 1)) or self.exps[-1] <= 0 or self.exps[0] >= self.n:
            raise ValueError(
                f"exponents must satisfy 0 < n_p < ... < n_1 < n, got n={self.n}, exps={self.exps}")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError(f"coefficients must be finite, got {self.coeffs}")
        if any(c < 0 for c in self.coeffs):
            raise ValueError(f"coefficients must be nonnegative, got {self.coeffs}")

    @property
    def p(self) -> int:
        return len(self.exps)

    @property
    def shape(self) -> tuple[int, tuple[int, ...]]:
        return (self.n, self.exps)

    def residual(self, z: complex) -> complex:
        """Z^n + sum x_i Z^{n_i} - 1, compensated summation for real z."""
        if isinstance(z, complex) and z.imag != 0.0:
            return self._poly(z)
        zr = float(z.real) if isinstance(z, complex) else float(z)
        terms = [zr ** self.n, -1.0]
        terms += [c * zr ** e for c, e in zip(self.coeffs, self.exps)]
        return math.fsum(terms)

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


@dataclass(frozen=True)
class RootSet:
    roots: tuple[complex, ...]
    principal_index: int = field(default=0)

    @property
    def principal(self) -> complex:
        return self.roots[self.principal_index]


def principal_root(problem: Problem) -> float:
    """The unique root in (0, 1] with Z -> 1 as all coefficients -> 0.

    Newton from 1 with a bisection safeguard; the polynomial is strictly
    increasing on (0, inf) with value -1 at 0, so the bracket (0, 1] holds.
    """
    if all(c == 0.0 for c in problem.coeffs):
        return 1.0
    lo, hi = 0.0, 1.0
    z = 1.0
    for _ in range(_MAX_NEWTON):
        f = problem.residual(z)
        if f > 0.0:
            hi = z
        elif f < 0.0:
            lo = z
        else:
            return z
        df = problem._dpoly(z).real
        step = f / df
        z_new = z - step
        if not lo < z_new < hi:
            z_new = 0.5 * (lo + hi)
        if abs(z_new - z) <= 5e-16 * abs(z):
            return z_new
        z = z_new
    raise RootConvergenceError(
        f"principal root iteration did not converge for {problem}")


def _polish(problem: Problem, z: complex) -> complex:
    for _ in range(64):
        f = problem._poly(z)
        df = problem._dpoly(z)
        if df == 0:
            break
        step = f / df
        z = z - step
        if abs(step) <= 1e-16 * max(abs(z), 1.0):
            break
    return z


def all_roots(problem: Problem) -> RootSet:
    """All n complex roots via the companion matrix, polished by Newton."""
    c = problem.monic_coefficients()
    n = problem.n
    comp = np.zeros((n, n))
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -c[1:][::-1]
    raw = np.linalg.eigvals(comp)
    roots = tuple(_polish(problem, complex(z)) for z in raw)

    zp = principal_root(problem)
    idx = min(range(n), key=lambda i: abs(roots[i] - zp))
    return RootSet(roots=roots, principal_index=idx)


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
        eps = cmath.exp(2j * math.pi * k / n)
        z = eps
        converged = False
        for _ in range(_MAX_NEWTON):
            f = problem._poly(z)
            df = problem._dpoly(z)
            step = f / df
            z = z - step
            if abs(step) <= 1e-15 * max(abs(z), 1.0):
                converged = True
                break
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
