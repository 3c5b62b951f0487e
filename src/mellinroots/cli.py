"""Command-line front end: solve instances, run verification suites, emit reports.

Subcommands
-----------
root           solve one instance (or a --spec batch) by any method
verify         run a seeded property suite; nonzero exit on failure
contour-trace  dump integrand samples along the contour as CSV
series         print the p = 1 Taylor coefficients of Z^alpha

Reports are JSON (--json) with a fixed field order; all randomness comes
from one seeded generator echoed in the report, so identical seeds and
flags reproduce the report byte for byte (timing fields aside).
Exit codes: 0 ok, 1 verification failure, 2 bad input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import GammaOverflowError, NumericalError
from .hyper import _worst, check_functional_equation, fd_weights, pde_residual, series_coefficients
from .identities import (build_rank_one_matrix, det_cofactor, det_rank_one,
                         dirichlet_integral)
from .mellin import (_SIZE_TOL, contour_integrand, default_contour, forward_mellin_check,
                     principal_root_mb)
from .oracle import (_NOT_NUMBERS, Problem, _finite_nonnegative, all_roots, epsilon_family,
                     principal_root)
from .param import ParamPoint, jacobian_det, principal_root_param, psi_forward
from . import sampling

def _jsonable(v):
    """json.dumps default: a complex as [re, im], numpy values as floats, a Fraction as text."""
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, (np.generic, np.ndarray)):
        return np.asarray(v, dtype=float).tolist()
    if isinstance(v, Fraction):
        return str(v)
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def _entry(name, method, value, err=None, tol=None, passed=None, **extra):
    e = {"name": name, "method": method, "value": value, "error_estimate": err}
    if tol is not None:
        e["tolerance"] = tol
        e["passed"] = bool(passed)
    e.update(extra)
    return e


class _Report:
    def __init__(self, command: str, inputs: dict, seed=None):
        self.data = {"command": command, "inputs": inputs}
        if seed is not None:
            self.data["seed"] = seed
        self.data["results"] = []
        self.data["timing"] = {}
        self._t0 = time.perf_counter()

    def add(self, entry: dict) -> None:
        self.data["results"].append(entry)

    def step(self, name: str, t_start: float) -> None:
        self.data["timing"][name] = time.perf_counter() - t_start

    def finish(self) -> dict:
        self.data["timing"]["total"] = time.perf_counter() - self._t0
        return self.data

    @property
    def failed(self) -> bool:
        return any(r.get("passed") is False for r in self.data["results"])


def _emit(report: dict, args) -> None:
    if args.json or args.out:
        text = json.dumps(report, indent=2, default=_jsonable)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return
    for r in report["results"]:
        line = f"{r['name']:<34s} {r['method']:<10s} {r['value']}"
        if r.get("error_estimate") is not None:
            line += f"  err={r['error_estimate']:.3g}"
        if "passed" in r:
            line += f"  [{'PASS' if r['passed'] else 'FAIL'} tol={r['tolerance']:g}]"
        print(line)
    print(f"total {report['timing']['total']:.3f} s")


def _parse_list(text: str, kind: type) -> list:
    return [kind(tok) for tok in text.split(",") if tok.strip() != ""]


def _resolve_tol(flag: float | None, fallback: float) -> float:
    """--tol if given, else fallback; finite and >= 0 by the rule for real inputs."""
    return _finite_nonnegative([flag if flag is not None else fallback], "tolerance")[0]


def _finite_alpha(alpha) -> float:
    if isinstance(alpha, _NOT_NUMBERS):  # a JSON true or "2"
        raise ValueError(f"alpha must be a number, got {alpha!r}")
    if not math.isfinite(alpha := float(alpha)):
        raise ValueError(f"alpha must be finite, got {alpha}")
    return alpha


def _problem_from_args(args) -> Problem:
    return Problem(args.n, _parse_list(args.exps, int), _parse_list(args.coeffs, float))


# ----------------------------- root -----------------------------------------

def _root_power(problem: Problem, method: str, alpha: float,
                mb_tol: float) -> tuple[float, float]:
    """(Z^alpha, error estimate) by one method; ``mb_tol`` sizes and bounds the contour."""
    if method == "mb":
        res = principal_root_mb(problem, alpha=alpha, tol=mb_tol)
        return res.value.real, res.err_estimate
    # looked up per call, so a solver rebound on this module is the one run
    z = {"param": principal_root_param, "oracle": principal_root}[method](problem)
    try:
        return z ** alpha, 1e-13  # accuracy bound of Newton in log space
    except OverflowError as exc:
        raise GammaOverflowError(
            f"{method}: root {z!r} to the power alpha = {alpha!r} overflows") from exc


def _solve_one(problem: Problem, methods: list[str], alpha: float, tol: float,
               mb_tol: float, report: _Report, label: str = "") -> list[NumericalError]:
    """Solve by each method and compare the values; return the errors raised.

    A method that raises a NumericalError gets a NaN entry carrying the error
    and takes no part in the comparisons.  ``mb_tol`` sizes and bounds the
    contour.
    """
    values, errors = {}, []
    for method in methods:
        t0 = time.perf_counter()
        name = f"{label}root^alpha[{method}]"
        try:
            value, err = _root_power(problem, method, alpha, mb_tol)
        except NumericalError as exc:
            errors.append(exc)
            report.add(_entry(name, method, math.nan, error=str(exc)))
        else:
            values[method] = (value, err)
            report.add(_entry(name, method, value, err=err))
        report.step(f"{label}{method}", t0)

    for (name_a, (a, ea)), (name_b, (b, eb)) in itertools.combinations(values.items(), 2):
        diff, bound = abs(a - b), max(tol, ea + eb)
        report.add(_entry(f"{label}|{name_a} - {name_b}|", "compare", diff,
                          tol=bound, passed=diff <= bound))
    return errors


def _read_spec(path: str, alpha: float) -> list[tuple[Problem, float]]:
    """(problem, alpha) pairs from a JSON list of {n, exps, coeffs[, alpha]} objects."""
    with open(path) as fh:
        instances = json.load(fh)
    if not isinstance(instances, list):
        raise ValueError(f"spec {path} must hold a JSON list of instances")
    problems = []
    for k, d in enumerate(instances):
        if not (isinstance(d, dict) and {"n", "exps", "coeffs"} <= d.keys()):
            raise ValueError(f"spec entry [{k}] must be an object with keys n, exps, coeffs")
        try:
            a = _finite_alpha(d.get("alpha", alpha))
            problems.append((Problem(d["n"], d["exps"], d["coeffs"]), a))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"spec entry [{k}]: {exc}") from exc
    return problems


def cmd_root(args) -> int:
    tol = _resolve_tol(args.tol, 1e-9)
    # the contour is sized for, and its estimate bounded by, --tol or its own default
    mb_tol = args.tol if args.tol is not None else _SIZE_TOL
    alpha = _finite_alpha(args.alpha)
    if args.spec:
        problems = _read_spec(args.spec, alpha)
        inputs = {"spec": args.spec, "method": args.method, "tol": tol}
    else:
        problems = [(_problem_from_args(args), alpha)]
        inputs = {**dataclasses.asdict(problems[0][0]),
                  "alpha": alpha, "method": args.method, "tol": tol}
    report = _Report("root", inputs)

    errors, solved = [], False
    for k, (problem, a) in enumerate(problems):
        label = f"[{k}]" if len(problems) > 1 else ""
        if args.method == "all":
            methods = ["param", "oracle"] + (["mb"] if problem.p <= 2 else [])
        else:
            methods = [args.method]
        raised = _solve_one(problem, methods, a, tol, mb_tol, report, label)
        errors += raised
        solved = solved or len(raised) < len(methods)

    # a report with no value in it is not written; the first error is the exit
    if solved or not errors:
        _emit(report.finish(), args)
    if errors:
        raise errors[0]
    return 1 if report.failed else 0


# ----------------------------- verify ---------------------------------------

def _replay(suite: str, seed: int, count: int, tol: float) -> str:
    return f"mellinroots verify --suite {suite} --seed {seed} --count {count} --tol {tol!r}"


def _driver(name, sample, measure, describe):
    """run(rng, count, tol, report, replay): draw each instance, measure, record misses.

    A measure that is not <= tol (NaN included) is a miss with its own entry;
    a measure that raises a NumericalError is a NaN miss carrying the error.
    The summary entry carries the worst measure, NaN if any was NaN.
    """
    def run(rng, count, tol, report, replay):
        measures = []
        for i in range(count):
            instance = sample(rng, i)
            try:
                m, extra = measure(instance, tol), {}
            except NumericalError as exc:
                m, extra = math.nan, {"error": str(exc)}
            measures.append(m)
            if not m <= tol:
                report.add(_entry(f"{name}[{i}]", name, m, tol=tol, passed=False,
                                  instance=describe(instance), replay=replay, **extra))
        worst = _worst(measures)
        report.add(_entry(name, name, worst, tol=tol, passed=worst <= tol))
    return run


def _draw_det(rng, i):
    p = int(rng.integers(1, 9))
    nums = rng.integers(-9, 10, size=p)
    dens = rng.integers(1, 10, size=p)
    return [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]


def _det_gap(y, tol):
    return abs(float(det_rank_one(y) - det_cofactor(build_rank_one_matrix(y))))


def _draw_jacobian(rng, i):
    p = int(rng.integers(1, 5))
    shape = sampling.random_shape(rng, p, n_max=9)
    return shape, rng.uniform(0.0, 5.0, size=p)


# first-derivative stencils (offsets in steps h, weights), built once: central, and
# one-sided for a column whose central stencil would leave the orthant
_CENTRAL = (-1, 1), fd_weights(1, (-1, 1))
_ONE_SIDED = (0, 1, 2), fd_weights(1, (0, 1, 2))


def _fd_jacobian(shape, xi):
    """det of the finite-difference Jacobian of psi_forward at xi, one-sided where xi_j < h."""
    def f(j, step):
        moved = list(xi)
        moved[j] += step
        return np.asarray(psi_forward(ParamPoint(moved), shape))

    p = len(xi)
    J = np.empty((p, p))
    for j in range(p):
        h = 6e-6 * (1.0 + abs(xi[j]))
        offsets, weights = _ONE_SIDED if xi[j] < h else _CENTRAL
        J[:, j] = functools.reduce(np.add, (w * f(j, k * h) for k, w in zip(offsets, weights))) / h
    return float(np.linalg.det(J))


def _gap(measured, closed):
    return abs(closed - measured) / abs(closed)


def _draw_funceq(rng, i):
    p = int(rng.integers(1, 4))
    shape = sampling.random_shape(rng, p)
    alpha = float(rng.uniform(0.5, 4.0))
    u = [complex(rng.uniform(0.3, 1.5), rng.uniform(0.2, 1.0)) for _ in range(p)]
    return shape, alpha, u


def _match_multisets(a, b):
    """Greatest distance in a greedy nearest matching of two root multisets, NaN if any is."""
    b, gaps = list(b), []
    for z in a:
        j = min(range(len(b)), key=lambda k: abs(z - b[k]))
        gaps.append(abs(z - b.pop(j)))
    return _worst(gaps)


# name, sample(rng, i), measure(instance, tol), describe(instance), count, tol
_SUITES = {name: (_driver(name, sample, measure, describe), count, tol)
           for name, sample, measure, describe, count, tol in [
    ("det", _draw_det, _det_gap, lambda y: {"y": y}, 1000, 0.0),
    ("jacobian", _draw_jacobian,
     lambda d, tol: _gap(_fd_jacobian(*d), jacobian_det(ParamPoint(d[1]), d[0])),
     lambda d: {"shape": d[0], "xi": d[1]}, 500, 1e-6),
    ("mellin", lambda rng, i: sampling.random_forward_tuple(rng, 1 if i % 3 else 2),
     lambda d, tol: _gap(*forward_mellin_check(*d, tol=tol)),
     lambda d: {"shape": d[0], "alpha": d[1], "u": d[2]}, 20, 1e-6),
    ("dirichlet", lambda rng, i: sampling.random_dirichlet_tuple(rng, i % 3 + 1),
     lambda d, tol: _gap(*dirichlet_integral(*d, tol=tol)),
     lambda d: {"u": d[0], "omega": d[1]}, 30, 1e-6),
    ("funceq", _draw_funceq, lambda d, tol: check_functional_equation(*d),
     lambda d: {"shape": d[0], "alpha": d[1], "u": d[2]}, 50, 1e-11),
    ("pde", lambda rng, i: sampling.random_pde_problem(rng),
     lambda d, tol: pde_residual(*d, h=1e-2),
     lambda d: {**dataclasses.asdict(d[0]), "alpha": d[1]}, 10, 1e-4),
    ("epsilon", lambda rng, i: sampling.random_small_problem(rng),
     lambda q, tol: _match_multisets(epsilon_family(q), all_roots(q)),
     dataclasses.asdict, 100, 1e-9),
]}


def cmd_verify(args) -> int:
    if args.count is not None and args.count < 1:
        raise ValueError(f"count must be at least 1, got {args.count}")
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    inputs = {"suite": args.suite, "count": args.count, "tol": args.tol}
    report = _Report("verify", inputs, seed=args.seed)
    for name in names:
        fn, default_count, default_tol = _SUITES[name]
        count = args.count if args.count is not None else default_count
        tol = _resolve_tol(args.tol, default_tol)
        rng = np.random.Generator(np.random.PCG64(args.seed))
        t0 = time.perf_counter()
        fn(rng, count, tol, report, _replay(name, args.seed, count, tol))
        report.step(name, t0)
    _emit(report.finish(), args)
    return 1 if report.failed else 0


# ----------------------------- contour-trace --------------------------------

def cmd_contour_trace(args) -> int:
    problem = _problem_from_args(args)
    base = default_contour(problem, _finite_alpha(args.alpha))
    contour = dataclasses.replace(
        base, height=args.height if args.height is not None else base.height,
        nodes_per_line=args.nodes if args.nodes is not None else base.nodes_per_line)
    pts, vals = contour_integrand(problem, args.alpha, contour)
    try:
        fh = open(args.out, "w", newline="")
    except OSError as exc:
        raise OSError(f"cannot write trace to {args.out}: {exc.strerror}") from exc
    with fh:
        writer = csv.writer(fh)
        writer.writerow([f"im_u{s + 1}" for s in range(problem.p)]
                        + ["re_integrand", "im_integrand", "abs_integrand"])
        for pt, v in zip(pts, vals):
            writer.writerow([*(repr(float(t)) for t in pt), repr(float(v.real)),
                             repr(float(v.imag)), repr(float(abs(v)))])
    print(f"wrote {len(pts)} rows to {args.out}")
    return 0


# ----------------------------- series ---------------------------------------

def cmd_series(args) -> int:
    exps = _parse_list(args.exps, int)
    coeffs = series_coefficients((args.n, tuple(exps)), args.alpha, args.kmax)
    if args.json or args.out:
        report = _Report("series", {"n": args.n, "exps": exps,
                                    "alpha": args.alpha, "kmax": args.kmax})
        for k, c in enumerate(coeffs):
            report.add(_entry(f"c[{k}]", "residue", c))
        _emit(report.finish(), args)
    else:
        for c in coeffs:
            print(repr(c))
    return 0


# ----------------------------- parser ---------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mellinroots",
        description="Principal roots of Z^n + x1*Z^n1 + ... + xp*Z^np = 1 "
                    "and verification of the transform identities behind them.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        sp.add_argument("--out", default=None, help="write output to this path")

    sp = sub.add_parser("root", help="solve one instance")
    sp.add_argument("--n", type=int)
    sp.add_argument("--exps", type=str, help="comma-separated exponents")
    sp.add_argument("--coeffs", type=str, help="comma-separated coefficients")
    sp.add_argument("--method", choices=["param", "mb", "oracle", "all"], default="all")
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--spec", default=None, help="JSON file with a batch of instances")
    common(sp)
    sp.set_defaults(fn=cmd_root)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=None)
    sp.add_argument("--tol", type=float, default=None)
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("contour-trace", help="dump contour integrand samples to CSV")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--exps", type=str, required=True)
    sp.add_argument("--coeffs", type=str, required=True)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--height", type=float, default=None)
    sp.add_argument("--nodes", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_contour_trace)

    sp = sub.add_parser("series", help="print p = 1 series coefficients")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--exps", type=str, required=True)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--kmax", type=int, default=10)
    common(sp)
    sp.set_defaults(fn=cmd_series)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.cmd == "root" and not args.spec:
        if args.n is None or args.exps is None or args.coeffs is None:
            _PARSER.error("root requires --n, --exps and --coeffs (or --spec)")
    try:
        return args.fn(args)
    except (NumericalError, ArithmeticError, ValueError, OSError) as exc:
        # NumericalError first: PoleError is also a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (NumericalError, ArithmeticError)) else 2


if __name__ == "__main__":
    sys.exit(main())
