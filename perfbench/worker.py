"""One benchmark process: set up a workload, then time (or trace) its rounds.

Started by run.py in a fresh interpreter.  It drives ``mellinroots.cli.main``
in-process, as the ``mellinroots`` command does, and captures each report
from stdout.  A round is the workload's fixed list of CLI calls; every
round repeats the same calls on the same inputs.  The worker checks what
needs no reference (exit codes, suite verdicts, identical output across
rounds) and prints one JSON payload; run.py checks the values against the
reference solver.

    python3 perfbench/worker.py --workload roots --seed 3 --seconds 20 --mode timed
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

WIDE_SEED = 300          # the wide slice is fixed: its failures must not depend on --seed
WIDE_COUNT = 48
ROOTS_BATCH = 2000
CONTOUR_P1_REPEATS = 6   # the p = 1 set holds every (shape, alpha) pair this many times
VERIFY_SEED = 1          # verify's cost depends on its seed; see README
SUITES = ("det", "jacobian", "mellin", "dirichlet", "funceq", "pde", "epsilon")


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _timed_calls(cli, argvs):
    t0 = time.perf_counter()
    raw = [_call(cli, argv) for argv in argvs]
    return time.perf_counter() - t0, raw


def _values(report):
    """(value, error_estimate) of each solve in a root report, in input order."""
    return [(r["value"], r["error_estimate"]) for r in report["results"]
            if "root^alpha[" in r["name"]]


def _write_spec(name, problems):
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(problems))
    return str(path)


class Contour:
    """root --spec --method mb on stratified p = 2 and p = 1 sets."""

    name = "contour"

    def __init__(self, seed):
        import numpy as np
        rng = np.random.default_rng([seed, 2])
        # criterion-02 draws n <= 5 for p = 2 and n <= 8 for p = 1, alpha in
        # {1, 2, 3}, x in [0.1, 2]; every (shape, alpha) pair appears, so only
        # the coefficients depend on the seed.
        self.p2 = [self._draw(rng, n, exps, alpha)
                   for n in range(3, 6)
                   for exps in itertools.combinations(range(n - 1, 0, -1), 2)
                   for alpha in (1.0, 2.0, 3.0)]
        self.p1 = [self._draw(rng, n, (e,), alpha)
                   for _ in range(CONTOUR_P1_REPEATS)
                   for n in range(2, 9) for e in range(n - 1, 0, -1)
                   for alpha in (1.0, 2.0, 3.0)]
        self.argvs = [
            ["root", "--spec", _write_spec(f"contour-{seed}-p2.json", self.p2),
             "--method", "mb", "--json"],
            ["root", "--spec", _write_spec(f"contour-{seed}-p1.json", self.p1),
             "--method", "mb", "--json"],
        ]
        warm = [self._draw(rng, 3, (2, 1), 3.0), self._draw(rng, 2, (1,), 1.0)]
        self.warm_argvs = [["root", "--spec", _write_spec(f"contour-{seed}-warm.json", warm),
                            "--method", "mb", "--json"]]
        self.attempted = len(self.p2) + len(self.p1)

    @staticmethod
    def _draw(rng, n, exps, alpha):
        return {"n": n, "exps": list(exps),
                "coeffs": [float(c) for c in rng.uniform(0.1, 2.0, size=len(exps))],
                "alpha": alpha}

    def round(self, cli):
        # the CLI reports only the real part; keep each solve's imaginary part
        inner, seen = cli.principal_root_mb, []

        def record(*args, **kwargs):
            res = inner(*args, **kwargs)
            seen.append(res.value.imag)
            return res

        cli.principal_root_mb = record
        try:
            elapsed, raw = _timed_calls(cli, self.argvs)
        finally:
            cli.principal_root_mb = inner
        return elapsed, (raw, seen)

    def parse(self, captured):
        raw, imag = captured
        errors = [f"root --spec exited {code}" for code, _ in raw if code != 0]
        if errors:
            return None, 0, errors
        vals = [v for _, text in raw for v in _values(json.loads(text))]
        return {"values": vals, "imag": imag}, 0, []

    def problems(self):
        return self.p2 + self.p1


class Roots:
    """root --spec with param then oracle on a criterion-01 batch, plus a wide slice."""

    name = "roots"

    def __init__(self, seed):
        import numpy as np
        from mellinroots import sampling
        rng = np.random.default_rng([seed, 1])
        self.batch = [self._spec(sampling.random_problem(rng, p_max=5, n_max=12,
                                                         coeff_hi=10.0))
                      for _ in range(ROOTS_BATCH)]
        wide_rng = np.random.default_rng(WIDE_SEED)
        self.wide = []
        for _ in range(WIDE_COUNT):
            p = int(wide_rng.integers(1, 6))
            n, exps = sampling.random_shape(wide_rng, p, 12)
            coeffs = 10.0 ** wide_rng.uniform(-300.0, 300.0, size=p)
            self.wide.append({"n": n, "exps": list(exps),
                              "coeffs": [float(c) for c in coeffs]})
        spec = _write_spec(f"roots-{seed}-batch.json", self.batch)
        self.argvs = [["root", "--spec", spec, "--method", m, "--json"]
                      for m in ("param", "oracle")]
        self.argvs += [self._one(d, m) for d in self.wide for m in ("param", "oracle")]
        warm = _write_spec(f"roots-{seed}-warm.json", self.batch[:20])
        self.warm_argvs = [["root", "--spec", warm, "--method", m, "--json"]
                           for m in ("param", "oracle")]
        self.warm_argvs += [self._one(self.wide[0], m) for m in ("param", "oracle")]
        self.attempted = 2 * len(self.batch) + 2 * len(self.wide)

    @staticmethod
    def _spec(problem):
        return {"n": problem.n, "exps": list(problem.exps), "coeffs": list(problem.coeffs)}

    @staticmethod
    def _one(d, method):
        return ["root", "--n", str(d["n"]), "--exps", ",".join(map(str, d["exps"])),
                "--coeffs", ",".join(map(repr, d["coeffs"])), "--method", method, "--json"]

    def round(self, cli):
        return _timed_calls(cli, self.argvs)

    def parse(self, raw):
        (c_param, t_param), (c_oracle, t_oracle), *wide = raw
        if c_param != 0 or c_oracle != 0:
            return None, 0, [f"batch exited {c_param} (param), {c_oracle} (oracle)"]
        out = {"param": [v for v, _ in _values(json.loads(t_param))],
               "oracle": [v for v, _ in _values(json.loads(t_oracle))],
               "wide": []}
        failed, errors = 0, []
        for code, text in wide:
            if code == 0:
                out["wide"].append(_values(json.loads(text))[0][0])
            elif code == 3:
                out["wide"].append(None)
                failed += 1
            else:
                errors.append(f"wide-slice call exited {code}, expected 0 or 3")
        return out, failed, errors

    def problems(self):
        return self.batch + self.wide


class Verify:
    """verify --suite all at every suite's default count."""

    name = "verify"

    def __init__(self, seed):
        self.argvs = [["verify", "--suite", "all", "--seed", str(VERIFY_SEED), "--json"]]
        self.warm_argvs = [["verify", "--suite", "all", "--seed", str(VERIFY_SEED),
                            "--count", "2", "--json"]]
        self.attempted = len(SUITES)

    def round(self, cli):
        return _timed_calls(cli, self.argvs)

    def parse(self, raw):
        (code, text), = raw
        report = json.loads(text)
        timing = report.pop("timing")
        verdicts = {r["name"]: r.get("passed") for r in report["results"]}
        errors = [] if code == 0 else [f"verify exited {code}"]
        errors += [f"suite {s} missing or failed" for s in SUITES if verdicts.get(s) is not True]
        return {"report": json.dumps(report), "timing": timing}, 0, errors

    def problems(self):
        return []


WORKLOADS = {w.name: w for w in (Contour, Roots, Verify)}


def set_up(name, seed):
    """Import, build the inputs and run the untimed warm-up pass."""
    from mellinroots import cli
    work = WORKLOADS[name](seed)
    for argv in work.warm_argvs:
        code, _ = _call(cli, argv)
        if code not in (0, 3):
            raise RuntimeError(f"warm-up {argv[:2]} exited {code}")
    return cli, work


def _run_rounds(work, cli, seconds):
    """Whole rounds until `seconds` have passed; outputs must repeat exactly."""
    times, first, failed, errors = [], None, 0, []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        elapsed, raw = work.round(cli)
        times.append(elapsed)
        parsed, n_failed, errs = work.parse(raw)
        failed += n_failed
        errors += errs
        key = {k: v for k, v in (parsed or {}).items() if k != "timing"}
        if first is None:
            first = parsed
            first_key = key
        elif key != first_key:
            errors.append(f"round {len(times)} output differs from round 1")
    return times, first, failed, errors


def timed(name, seed, seconds):
    cli, work = set_up(name, seed)
    t_ready = time.monotonic()
    times, first, failed, errors = _run_rounds(work, cli, seconds)
    return {
        "t_ready": t_ready,
        "round_s": times,
        "attempted": work.attempted * len(times),
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": {name: first},
        "problems": {name: work.problems()},
        "errors": errors,
    }


def traced(name, seed, overhead_pairs=7):
    """One traced round of every workload, then roots rounds with and without tracing.

    Every layer does work in some workload, so the per-layer metrics cover
    all three; attempted and failed count the named workload's round only,
    so their ratio matches its untraced runs.
    """
    import layertrace as trace
    tracer = trace.Tracer()
    ready = {w: set_up(w, seed) for w in WORKLOADS}
    outputs, problems, errors, round_s = {}, {}, [], {}
    attempted = failed = 0
    for w, (cli, work) in ready.items():
        with tracer.active(w):
            elapsed, raw = work.round(cli)
        parsed, n_failed, errs = work.parse(raw)
        outputs[w], problems[w], round_s[w] = parsed, work.problems(), elapsed
        errors += errs
        if w == name:
            attempted, failed = work.attempted, n_failed
    spans = list(tracer.spans)
    # the roots round makes the most wrapped calls per second: an upper estimate
    cli, work = ready["roots"]
    pairs = []
    for _ in range(overhead_pairs):
        plain = work.round(cli)[0]
        with tracer.active("overhead"):
            pairs.append((plain, work.round(cli)[0]))
    metrics = trace.per_layer_metrics(spans)
    metrics["trace.overhead_pct"] = 100.0 * statistics.median(t / p - 1.0 for p, t in pairs)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"trace-{name}-{seed}.json").write_text(json.dumps({
        "round_s": round_s, "overhead_roots_s": pairs, "metrics": metrics,
        "layers": {w: trace.layer_summary(spans, w) for w in WORKLOADS},
        "spans": [[s[trace.NAME], s[trace.START], s[trace.END], s[trace.PARENT]]
                  for s in spans],
    }))
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "outputs": outputs, "problems": problems, "errors": errors}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=list(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--mode", choices=["setup", "timed", "traced"], default="timed")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    if args.mode == "setup":
        set_up(args.workload, args.seed)
        payload = {"t_ready": time.monotonic()}
    elif args.mode == "timed":
        payload = timed(args.workload, args.seed, args.seconds)
    else:
        payload = traced(args.workload, args.seed)
    sys.stdout.write(json.dumps(payload) + "\n")


if __name__ == "__main__":
    main()
