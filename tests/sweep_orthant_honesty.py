"""Sweep the orthant quadrature's error estimate against the gamma forms.

    python tests/sweep_orthant_honesty.py --draws 800 [--seed 0] [--tol 1e-6]

Draws instances as the `verify` suites `dirichlet` and `mellin` do (the
`sampling` generators), --draws per suite and p (half as many for dirichlet
at p = 1), and runs each through `dirichlet_integral` or
`forward_mellin_check` at --tol.  The value and estimate returned by
`integrate_orthant_log` are recorded on the way.  Prints per suite and p:
the points summed by the draws that return, the `verify` misses (relative
gap to the library's gamma form above --tol, or a QuadratureError, each
such draw listed), the draws whose error exceeds the estimate, with the
worst ratio of error over estimate, and the seconds taken by the slowest
draw (its check alone, the mpmath reference not counted), which shows the
cost of draws that reach the depth cap.  The error is taken against the gamma
form in 30-digit mpmath, since the library's own form is good to about
1e-14; errors and estimates both below 1e-14 of it are not counted against
the estimate.  Exits 1 if any draw's error exceeds its estimate, 0 otherwise;
misses and QuadratureErrors are reported but do not fail the sweep.  Not
collected by pytest; about a minute at --draws 800.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mellinroots import QuadratureError, identities, mellin, sampling  # noqa: E402

mp.mp.dps = 30
ROUNDING = 1e-14      # relative rounding level of the library's gamma forms


def exact_dirichlet(u, omega):
    u, omega = [mp.mpc(v) for v in u], mp.mpf(omega)
    return complex(mp.fprod(map(mp.gamma, u)) * mp.gamma(omega - mp.fsum(u)) / mp.gamma(omega))


def exact_kernel(shape, alpha, u_list):
    n, exps = shape
    u_list = [mp.mpf(v) for v in u_list]
    u = mp.mpf(alpha) / n - mp.fsum(mp.mpf(e) / n * v for e, v in zip(exps, u_list))
    omega = u + mp.fsum(u_list) + 1
    return complex(mp.mpf(alpha) / n * mp.gamma(u) * mp.fprod(map(mp.gamma, u_list))
                   / mp.gamma(omega))


SUITES = [            # (name, p, module calling the quadrature, draw, check, exact)
    *(("dirichlet", p, identities, sampling.random_dirichlet_tuple,
       identities.dirichlet_integral, exact_dirichlet) for p in (1, 2, 3)),
    *(("mellin", p, mellin, sampling.random_forward_tuple,
       mellin.forward_mellin_check, exact_kernel) for p in (1, 2)),
]


def sweep(module, draw, check, exact, rng, draws, tol):
    """Counts and worst ratio over ``draws`` instances of one suite and p."""
    real = module.integrate_orthant_log
    seen = []

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append(out)
        return out

    stats = {"points": 0, "misses": 0, "raised": [], "over": 0, "worst": 0.0, "worst_at": None,
             "slowest": 0.0}
    module.integrate_orthant_log = recorded
    try:
        for _ in range(draws):
            instance = draw(rng)
            seen.clear()
            t0 = time.perf_counter()
            try:
                lhs, rhs = check(*instance, tol=tol)
            except QuadratureError:
                stats["raised"].append(instance)
                stats["misses"] += 1
                continue
            finally:
                stats["slowest"] = max(stats["slowest"], time.perf_counter() - t0)
            _, est, points = seen[-1]
            stats["points"] += points
            if not abs(lhs - rhs) <= tol * abs(rhs):
                stats["misses"] += 1
            ref = exact(*instance)
            err = abs(lhs - ref)
            floor = ROUNDING * abs(ref)
            if err > est and max(err, est) > floor:
                stats["over"] += 1
            ratio = err / est if est > 0 else math.inf
            if err > floor and ratio > stats["worst"]:
                stats["worst"], stats["worst_at"] = ratio, instance
    finally:
        module.integrate_orthant_log = real
    return stats


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--draws", type=int, default=800)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tol", type=float, default=1e-6)
    args = ap.parse_args(argv)
    print(f"{'suite':10}{'p':>2}{'draws':>7}{'points':>15}{'misses':>8}{'errors':>8}"
          f"{'err>est':>9}{'worst err/est':>15}{'slowest s':>11}")
    over = 0
    for index, (name, p, module, draw, check, exact) in enumerate(SUITES):
        draws = args.draws // 2 if (name, p) == ("dirichlet", 1) else args.draws
        rng = np.random.default_rng((args.seed, index))
        st = sweep(module, lambda g: draw(g, p), check, exact, rng, draws, args.tol)
        over += st["over"]
        print(f"{name:10}{p:>2}{draws:>7}{st['points']:>15,}{st['misses']:>8}"
              f"{len(st['raised']):>8}{st['over']:>9}{st['worst']:>15.3g}{st['slowest']:>11.3f}",
              flush=True)
        if st["worst_at"] is not None:
            print(f"{'':12}worst at {st['worst_at']}")
        for instance in st["raised"]:
            print(f"{'':12}QuadratureError at {instance}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
