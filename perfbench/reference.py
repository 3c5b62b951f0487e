"""Reference principal roots, computed apart from mellinroots.

The principal root of Z^n + x_1 Z^n_1 + ... + x_p Z^n_p - 1 is the one root
in (0, 1].  In t = log Z the polynomial

    f(t) = e^{n t} + sum_k x_k e^{n_k t} - 1

is strictly increasing for x_k >= 0, with f(0) = sum x_k >= 0 and f -> -1 as
t -> -inf, so bisection on t brackets the root over the whole double range
of coefficients (1e-300 to 1e300 included).  A double-precision bisection
on the sign of log(sum of terms) narrows the bracket cheaply; mpmath then
checks that bracket at DPS digits and bisects it down to 10^-DIGITS.

Nothing here imports mellinroots.  Run this file to self-test the solver
against roots known by construction.
"""

from __future__ import annotations

import math
import random
import sys

from mpmath import mp, mpf
from mpmath.libmp import (from_float, fzero, mpf_add, mpf_exp, mpf_lt,
                          mpf_mul, mpf_pow_int, mpf_shift, mpf_sub, round_nearest)

DPS = 40       # working digits
DIGITS = 32    # the bracket in log Z is narrowed to 10^-DIGITS
_PREC = 136    # bits, about DPS digits

__all__ = ["principal_root", "self_test"]


def _log_terms_sign(t: float, n: int, logx: list[float], exps: list[int]) -> float:
    """Sign-carrying log(e^{n t} + sum x_k e^{n_k t}) in doubles, overflow-free."""
    logs = [n * t] + [lx + e * t for lx, e in zip(logx, exps)]
    top = max(logs)
    return top + math.log(math.fsum(math.exp(v - top) for v in logs))


def _float_bracket(n, exps, coeffs) -> tuple[float, float]:
    logx = [math.log(c) for c in coeffs]
    lo = -1.0
    while _log_terms_sign(lo, n, logx, exps) >= 0.0:
        lo *= 2.0
    hi = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _log_terms_sign(mid, n, logx, exps) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _negative(t, n, exps, coeffs) -> bool:
    """f(t) < 0, evaluated on raw mpmath values (tuples) at _PREC bits."""
    z = mpf_exp(t, _PREC, round_nearest)
    total = mpf_pow_int(z, n, _PREC, round_nearest)
    for x, e in zip(coeffs, exps):
        term = mpf_mul(x, mpf_pow_int(z, e, _PREC, round_nearest), _PREC, round_nearest)
        total = mpf_add(total, term, _PREC, round_nearest)
    return mpf_lt(total, _ONE)


_ONE = from_float(1.0)


def principal_root(n: int, exps, coeffs) -> mpf:
    """The root in (0, 1] of Z^n + sum x_k Z^{n_k} - 1, to 10^-DIGITS relative."""
    exps = [int(e) for e in exps]
    with mp.workdps(DPS):
        x = [mpf(c) for c in coeffs]
        terms = [(xv, e) for xv, e in zip(x, exps) if xv != 0]
        if not terms:
            return mpf(1)
        xs = [xv for xv, _ in terms]
        es = [e for _, e in terms]
        flo, fhi = _float_bracket(n, es, [float(xv) for xv in xs])
        xs = [xv._mpf_ for xv in xs]
        pad = 1e-12 * max(1.0, abs(flo))
        lo, hi = from_float(flo - pad), from_float(min(0.0, fhi + pad))
        if not (_negative(lo, n, es, xs) and not _negative(hi, n, es, xs)):
            lo, hi = from_float(-1.0), fzero
            while not _negative(lo, n, es, xs):
                lo = mpf_shift(lo, 1)
        width = (mpf(10) ** (-DIGITS))._mpf_
        while mpf_lt(width, mpf_sub(hi, lo)):
            mid = mpf_shift(mpf_add(lo, hi, _PREC, round_nearest), -1)
            if _negative(mid, n, es, xs):
                lo = mid
            else:
                hi = mid
        return +mp.exp(mpf(mpf_shift(mpf_add(lo, hi, _PREC, round_nearest), -1)))


def self_test(count: int = 24, seed: int = 2021) -> list[str]:
    """Check the solver against roots known by construction; return failures.

    The quadratic Z^2 + x Z - 1 has the closed-form principal root
    -x/2 + sqrt(1 + x^2/4).  Other instances are built backward from a chosen
    Z0 in (0, 1): pick x_2..x_p, then x_1 = (1 - Z0^n - sum x_k Z0^{n_k}) / Z0^{n_1}.
    """
    failures = []
    tol = mpf(10) ** (-30)
    with mp.workdps(DPS):
        for x in ("1e-3", "0.5", "1", "2", "1e3", "1e150"):
            xv = mpf(x)
            with mp.workdps(2 * DPS + 400):  # the closed form cancels ~2 log10(x) digits
                closed = +(-xv / 2 + mp.sqrt(1 + xv ** 2 / 4))
            got = principal_root(2, [1], [xv])
            if abs(got - closed) > tol * closed:
                failures.append(f"quadratic x={x}: {got} vs {closed}")
        rng = random.Random(seed)
        for _ in range(count):
            p = rng.randint(1, 5)
            n = rng.randint(p + 1, 12)
            exps = sorted(rng.sample(range(1, n), p), reverse=True)
            z0 = mpf(rng.uniform(0.02, 0.98))
            room = 1 - z0 ** n
            rest = [mpf(rng.uniform(0.0, 1.0)) for _ in exps[1:]]
            spent = sum(xv * z0 ** e for xv, e in zip(rest, exps[1:]))
            rest = [xv * room / (2 * spent) for xv in rest] if spent > room / 2 else rest
            spent = sum((xv * z0 ** e for xv, e in zip(rest, exps[1:])), mpf(0))
            x1 = (room - spent) / z0 ** exps[0]
            got = principal_root(n, exps, [x1, *rest])
            if abs(got - z0) > tol * z0:
                failures.append(f"backward n={n} exps={exps} z0={z0}: got {got}")
    return failures


if __name__ == "__main__":
    bad = self_test()
    for line in bad:
        print(line)
    print("reference self-test:", "FAIL" if bad else "ok")
    sys.exit(1 if bad else 0)
