"""Seeded random instance generators shared by the CLI suites and the tests."""

from __future__ import annotations

import numpy as np

from .oracle import Problem

__all__ = [
    "random_problem", "random_small_problem", "random_mb_problem",
    "random_forward_tuple", "random_dirichlet_tuple", "random_shape",
    "random_pde_problem",
]


def random_shape(rng: np.random.Generator, p: int, n_max: int = 6) -> tuple[int, tuple[int, ...]]:
    n = int(rng.integers(p + 1, n_max + 1))
    exps = np.sort(rng.choice(np.arange(1, n), size=p, replace=False))[::-1]
    return n, tuple(int(e) for e in exps)


def random_problem(
    rng: np.random.Generator,
    p_max: int = 5,
    n_max: int = 12,
    coeff_hi: float = 10.0,
) -> Problem:
    p = int(rng.integers(1, p_max + 1))
    n, exps = random_shape(rng, p, n_max)
    coeffs = rng.uniform(0.0, coeff_hi, size=p)
    return Problem(n, exps, coeffs)


def random_small_problem(rng: np.random.Generator, p_max: int = 3, n_max: int = 8) -> Problem:
    """Coefficient sum below 0.5, as the branch-continuation family needs."""
    p = int(rng.integers(1, p_max + 1))
    n, exps = random_shape(rng, p, n_max)
    coeffs = rng.uniform(0.01, 0.4, size=p)
    coeffs *= 0.45 / max(0.45, coeffs.sum())
    return Problem(n, exps, coeffs)


def random_mb_problem(rng: np.random.Generator) -> Problem:
    """p <= 2 instance with coefficients in [0.1, 2] for contour evaluation."""
    p = int(rng.integers(1, 3))
    n, exps = random_shape(rng, p, n_max=5 if p == 2 else 8)
    coeffs = rng.uniform(0.1, 2.0, size=p)
    return Problem(n, exps, coeffs)


def random_forward_tuple(rng: np.random.Generator, p: int):
    """(shape, alpha, u_list) admissible for the forward transform identity."""
    shape = random_shape(rng, p)
    n, exps = shape
    u_list = rng.uniform(0.2, 1.2, size=p)
    alpha = float(np.dot(exps, u_list) + rng.uniform(0.4, 2.5))
    return shape, alpha, tuple(float(v) for v in u_list)


def random_dirichlet_tuple(rng: np.random.Generator, p: int):
    """(u_list, omega) with Re u_i > 0 and Re(omega - sum u) > 0."""
    u = rng.uniform(0.15, 1.0, size=p).astype(complex)
    if rng.random() < 0.5:
        u = u + 1j * rng.uniform(-0.4, 0.4, size=p)
    omega = float(u.real.sum() + rng.uniform(0.3, 3.0))
    return tuple(complex(v) for v in u), omega


def random_pde_problem(rng: np.random.Generator) -> tuple[Problem, float]:
    p = int(rng.integers(1, 3))
    n, exps = random_shape(rng, p, n_max=4)
    coeffs = rng.uniform(0.2, 1.0, size=p)
    alpha = float(rng.choice([1.0, 2.0, 3.0]))
    return Problem(n, exps, coeffs), alpha
