"""Exact and numeric identities backing the transform machinery.

Two independent facts: the rank-one determinant det(I + 1 y^T) = 1 + sum y
(exact, rational arithmetic), and the Dirichlet-type orthant integral equal
to a gamma ratio.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DivergentIntegralError
from .gamma import gamma_ratio
from .quadrature import integrate_orthant_log, log_one_plus_sum_exp

__all__ = [
    "det_rank_one", "det_cofactor", "build_rank_one_matrix",
    "dirichlet_integral",
]


def build_rank_one_matrix(y: Sequence[Fraction]) -> list[list[Fraction]]:
    """M[i][j] = delta_ij + y_i: identity plus a rank-one row pattern."""
    y = [Fraction(v) for v in y]
    return [[yi + 1 if i == j else yi for j in range(len(y))] for i, yi in enumerate(y)]


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
