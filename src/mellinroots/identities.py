"""Exact and numeric identities backing the transform machinery.

Three independent facts: the rank-one determinant det(I + 1 y^T) = 1 + sum y
(exact, rational arithmetic), the Dirichlet-type orthant integral equal to a
gamma ratio, and the term-by-term decomposition that reduces the forward
transform to those Dirichlet integrals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DivergentIntegralError
from .gamma import gamma_ratio
from .mellin import _kernel_args
from .oracle import _checked_shape
from .quadrature import integrate_orthant_log, log_one_plus_sum_exp

__all__ = [
    "det_rank_one", "det_cofactor", "build_rank_one_matrix",
    "dirichlet_integral", "i0_ii_decomposition_check",
]

Shape = tuple[int, tuple[int, ...]]


def build_rank_one_matrix(y: Sequence[Fraction]) -> list[list[Fraction]]:
    """M[i][j] = delta_ij + y_i: identity plus a rank-one row pattern."""
    y = [Fraction(v) for v in y]
    p = len(y)
    return [[y[i] + (1 if i == j else 0) for j in range(p)] for i in range(p)]


def det_rank_one(y: Sequence[Fraction]) -> Fraction:
    """Closed-form determinant of build_rank_one_matrix(y): 1 + sum y, exact."""
    return Fraction(1) + sum((Fraction(v) for v in y), Fraction(0))


def det_cofactor(matrix: Sequence[Sequence[Fraction | int]]) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination, O(p^3).

    The entries are Fractions or ints, read through their numerator and
    denominator.  The matrix is scaled to integers by the lcm d of its
    denominators, so det = det(d A) / d^p.  Step k updates the trailing block as
    a_ij <- (a_ij a_kk - a_ik a_kj) / (previous pivot), a division that
    Sylvester's identity makes exact in integers; the last pivot is the
    determinant.  A zero pivot is swapped with a lower row (flipping the
    sign), and a column with no nonzero pivot makes the determinant 0.
    (Bareiss, Math. Comp. 22, 1968.)
    """
    p = len(matrix)
    if p == 0:
        return Fraction(1)
    d = math.lcm(*(v.denominator for row in matrix for v in row))
    a = [[v.numerator * (d // v.denominator) for v in row] for row in matrix]
    sign, prev = 1, 1
    for k in range(p - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, p) if a[r][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, p):
            for j in range(k + 1, p):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return Fraction(sign * a[-1][-1], d ** p)


def dirichlet_integral(
    u: Sequence[complex],
    omega: float,
    tol: float = 1e-8,
) -> tuple[complex, complex]:
    """Orthant integral of prod xi_i^{u_i-1} / (1 + sum xi)^omega vs gamma form.

    Returns (numeric, gamma_form) with gamma_form =
    prod Gamma(u_i) * Gamma(omega - sum u_i) / Gamma(omega).  Convergence at
    infinity needs Re(omega - sum u_i) > 0 (the printed hypothesis
    omega > max Re u_i is weaker than the integral actually requires);
    violation raises DivergentIntegralError.
    """
    u = [complex(v) for v in u]
    if len(u) > 3:
        raise ValueError("numeric Dirichlet integral implemented for p <= 3")
    if any(v.real <= 0 for v in u):
        raise DivergentIntegralError(f"all Re u_i must be positive, got {u}")
    rest = omega - sum(u)
    if rest.real <= 0:
        raise DivergentIntegralError(
            f"Re(omega - sum u_i) = {rest.real:g} <= 0: integral diverges at infinity")

    numeric, _, _ = integrate_orthant_log(
        u, lambda L: -omega * log_one_plus_sum_exp(L), rel_tol=tol / 3.0)
    return numeric, gamma_ratio([*u, rest], [omega])


def i0_ii_decomposition_check(
    u_list: Sequence[float],
    alpha: float,
    shape: Shape,
) -> float:
    """Verify the decomposition I = I_0 + I_1 + ... + I_p of the forward transform.

    I_0 carries the constant of the (1 + sum (n_i/n) xi_i) factor and each
    I_i one Euler-weighted term; the gamma recurrence collapses them to
    I_i = (n_i u_i)/(n u) * I_0 and the total to (alpha/(n u)) * I_0, which
    equals the gamma-ratio kernel.  Returns the worst relative error over
    those identities, every gamma ratio taken by gamma_ratio (real, as its
    arguments are).
    """
    shape = _checked_shape(shape)
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
    worst = max(worst, abs(total - kernel_rhs) / abs(kernel_rhs))
    return worst
