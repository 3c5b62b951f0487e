"""Benchmark entry point for mellinroots.

    python3 perfbench/run.py --workload {contour,roots,verify} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Every workload runs in fresh,
single-threaded worker processes (perfbench/worker.py) started one at a
time.  With --trace 0 the last line of stdout is one JSON object holding
the end-to-end metrics setup_s, wall_s and peak_rss_mb; with --trace 1 it
holds the per-layer metrics of a traced pass (see README.md).  Outputs are
checked against the reference solver in reference.py, which shares no code
with mellinroots, after all timing is done.  Per-run details go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5        # fresh processes timed from spawn to first timed operation
DEADLINE_S = 170.0       # every child is killed past this point of the run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _child_env():
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("MELLINROOTS_TOL", None)  # would change verify's tolerances
    return env


def _worker(args, mode, started):
    """Run one worker process to completion; returns (payload, spawn time)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=max(1.0, DEADLINE_S - (t_spawn - started)))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn


def _check(outputs, problems):
    """Compare every returned value with the reference; returns (errors, contour ratios)."""
    import reference
    from mpmath import mpf

    errors, ratios = [], []
    if outputs.get("contour") is not None:
        out, probs = outputs["contour"], problems["contour"]
        if len(out["values"]) != len(probs) or len(out["imag"]) != len(probs):
            errors.append("contour: output count differs from input count")
        for d, (value, err), imag in zip(probs, out["values"], out["imag"]):
            ref = reference.principal_root(d["n"], d["exps"], d["coeffs"]) ** d["alpha"]
            diff = abs(mpf(value) - ref)
            if diff > max(1e-6, err) or abs(imag) > err:
                errors.append(f"contour: {d} gave {value}{imag:+g}j, err {err:g}, "
                              f"reference {float(ref)!r}")
            ratios.append(err / max(float(diff), 2.0 ** -52 * float(ref)))
    if outputs.get("roots") is not None:
        out, probs = outputs["roots"], problems["roots"]
        batch, wide = probs[:len(out["param"])], probs[len(out["param"]):]
        pairs = [(d, v) for key in ("param", "oracle") for d, v in zip(batch, out[key])]
        pairs += [(d, v) for i, d in enumerate(wide) for v in out["wide"][2 * i:2 * i + 2]]
        if len(pairs) != 2 * len(probs):
            errors.append("roots: output count differs from input count")
        refs = {}
        for d, value in pairs:
            if value is None:  # exit 3, counted as failed
                continue
            key = json.dumps(d)
            if key not in refs:
                refs[key] = reference.principal_root(d["n"], d["exps"], d["coeffs"])
            if abs(mpf(value) - refs[key]) > 1e-12:
                errors.append(f"roots: {d} gave {value!r}, reference {float(refs[key])!r}")
    return errors, ratios


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["contour", "roots", "verify"], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "mellinroots" / "cli.py").is_file():
        print(f"error: no mellinroots sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    try:
        import reference
    except ImportError as exc:
        print(f"error: the reference solver needs mpmath: {exc}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            payload, _ = _worker(args, "traced", started)
        else:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                ready, t_spawn = _worker(args, "setup", started)
                setups.append(ready["t_ready"] - t_spawn)
            payload, t_spawn = _worker(args, "timed", started)
            setups.append(payload["t_ready"] - t_spawn)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    errors = reference.self_test() + payload["errors"]
    check_errors, ratios = _check(payload["outputs"], payload["problems"])
    errors += check_errors

    if args.trace:
        from layertrace import UNITS
        metrics = dict(payload["metrics"])
        metrics["mellin.err_over_observed_p50"] = statistics.median(ratios)
        result_metrics = {k: _metric(metrics[k], unit) for k, unit in UNITS.items()}
    else:
        result_metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(statistics.median(payload["round_s"]), "s"),
            "peak_rss_mb": _metric(payload["peak_rss_mb"], "MB"),
        }

    OUT.mkdir(parents=True, exist_ok=True)
    record = {"args": vars(args), "errors": errors[:50], "metrics": result_metrics}
    if not args.trace:
        record.update(setup_s=setups, round_s=payload["round_s"],
                      verify_timing=(payload["outputs"].get("verify") or {}).get("timing"))
    (OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    print(json.dumps({"correct": not errors, "attempted": payload["attempted"],
                      "failed": payload["failed"], "metrics": result_metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
