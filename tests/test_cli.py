"""End-to-end tests of the command-line interface and its report formats."""

import csv
import importlib.util
import json
import math
import os
import pkgutil
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mellinroots
from mellinroots import cli, errors
from mellinroots.cli import _match_multisets, main
from mellinroots.identities import det_cofactor, det_rank_one


def _run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_root_all_methods_agree(capsys):
    code, report = _run_json(
        capsys, ["root", "--n", "2", "--exps", "1", "--coeffs", "1",
                 "--method", "all", "--tol", "1e-8"])
    assert code == 0
    vals = {r["method"]: r["value"] for r in report["results"]
            if r["name"].startswith("root^alpha")}
    assert vals["param"] == pytest.approx(0.6180339887498949, abs=1e-12)
    assert vals["oracle"] == pytest.approx(0.6180339887498949, abs=1e-12)
    assert vals["mb"] == pytest.approx(0.6180339887498949, abs=1e-7)
    compares = [r for r in report["results"] if r["method"] == "compare"]
    assert compares and all(r["passed"] for r in compares)


def test_root_trivial_all_zero(capsys):
    code, report = _run_json(
        capsys, ["root", "--n", "5", "--exps", "4,3,2,1",
                 "--coeffs", "0,0,0,0", "--method", "param"])
    assert code == 0
    assert report["results"][0]["value"] == 1.0


def test_root_mb_matches_param_p2(capsys):
    code, report = _run_json(
        capsys, ["root", "--n", "3", "--exps", "2,1", "--coeffs", "0.3,0.4",
                 "--method", "mb", "--alpha", "1"])
    assert code == 0
    entry = report["results"][0]
    assert entry["error_estimate"] is not None
    assert entry["value"] == pytest.approx(0.7913567645703236, abs=1e-6)


def test_root_bad_input_exit_2(capsys):
    assert main(["root", "--n", "2", "--exps", "3", "--coeffs", "1"]) == 2


def test_root_mb_p3_exit_2(capsys):
    code = main(["root", "--n", "5", "--exps", "3,2,1",
                 "--coeffs", "0.5,0.5,0.5", "--method", "mb"])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: contour evaluation is implemented for p <= 2")


def test_root_spec_batch(tmp_path, capsys):
    spec = tmp_path / "batch.json"
    spec.write_text(json.dumps([
        {"n": 2, "exps": [1], "coeffs": [1.0]},
        {"n": 2, "exps": [1], "coeffs": [1.5], "alpha": 1.0},
    ]))
    code, report = _run_json(capsys, ["root", "--spec", str(spec), "--method", "param"])
    assert code == 0
    vals = [r["value"] for r in report["results"]]
    assert vals[0] == pytest.approx(0.6180339887498949, abs=1e-12)
    assert vals[1] == pytest.approx(0.5, abs=1e-12)


def test_verify_det_passes(capsys):
    code, report = _run_json(
        capsys, ["verify", "--suite", "det", "--count", "100", "--seed", "5"])
    assert code == 0
    assert report["results"][-1]["passed"] is True


def test_verify_all_passes(capsys):
    code, report = _run_json(
        capsys, ["verify", "--suite", "all", "--seed", "7", "--count", "5"])
    assert code == 0
    names = {r["name"] for r in report["results"]}
    assert {"det", "jacobian", "mellin", "dirichlet", "funceq", "pde",
            "epsilon"} <= names


def test_verify_mellin_seed_23_passes(capsys):
    # draw 6, (5, (3, 1)) with kernel Re u = 0.085, is certified only by
    # probing the depth cap's level; it was a NaN miss
    code, report = _run_json(capsys, ["verify", "--suite", "mellin", "--seed", "23"])
    assert code == 0
    assert [r["name"] for r in report["results"]] == ["mellin"]


def test_verify_failure_exit_1_with_replay(capsys):
    code, report = _run_json(
        capsys, ["verify", "--suite", "jacobian", "--count", "3",
                 "--seed", "1", "--tol", "1e-30"])
    assert code == 1
    failures = [r for r in report["results"] if r.get("passed") is False
                and "replay" in r]
    assert failures
    assert "verify --suite jacobian" in failures[0]["replay"]
    assert "instance" in failures[0]


def test_verify_deterministic_reports():
    cmd = [sys.executable, "-m", "mellinroots", "verify", "--suite", "funceq",
           "--seed", "11", "--count", "5", "--json"]
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(mellinroots.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, path] if path else [src])}
    outs = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True, env=env)
        data = json.loads(proc.stdout)
        data.pop("timing")
        outs.append(json.dumps(data))
    assert outs[0] == outs[1]


# The summary value and passed flag of each suite, exactly: a refactor must
# leave the verify report byte-identical apart from timing.  A change meant to
# move a number re-pins it here and gives the reason in CHANGES.md.
VERIFY_SEED0_COUNT3 = {
    "det": (0.0, True),
    "jacobian": (4.1059121077382134e-11, True),
    "mellin": (2.374010505894191e-09, True),
    "dirichlet": (8.226645456513023e-08, True),
    "funceq": (1.0019745616368849e-14, True),
    "pde": (3.531833047103461e-08, True),
    "epsilon": (1.5700924586837752e-16, True),
}


def test_verify_summaries_pinned(capsys):
    code, report = _run_json(
        capsys, ["verify", "--suite", "all", "--seed", "0", "--count", "3"])
    assert code == 0
    summaries = {r["name"]: (r["value"], r["passed"]) for r in report["results"]
                 if "replay" not in r}
    assert summaries == VERIFY_SEED0_COUNT3


def test_contour_trace_row_count_and_header(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["contour-trace", "--n", "2", "--exps", "1", "--coeffs", "1",
                 "--height", "30", "--nodes", "601", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["im_u1", "re_integrand", "im_integrand", "abs_integrand"]
    assert len(rows) == 602  # header + 601 samples


def test_contour_trace_conjugate_symmetry_and_decay(tmp_path):
    out = tmp_path / "trace.csv"
    main(["contour-trace", "--n", "2", "--exps", "1", "--coeffs", "1",
          "--height", "30", "--nodes", "601", "--out", str(out)])
    with open(out) as fh:
        rows = list(csv.reader(fh))[1:]
    data = [(float(a), float(b), float(c), float(d)) for a, b, c, d in rows]
    # row at -t is the conjugate of the row at +t
    for k in range(10):
        lo = data[k]
        hi = data[-1 - k]
        assert lo[0] == -hi[0]
        assert lo[1] == pytest.approx(hi[1], rel=1e-12, abs=1e-300)
        assert lo[2] == pytest.approx(-hi[2], rel=1e-12, abs=1e-300)
    # magnitude decays monotonically beyond some height
    mags = {t: m for t, _, _, m in data}
    assert mags[10.0] > mags[20.0] > mags[30.0]
    tail = [m for t, _, _, m in data if t >= 5.0]
    assert all(a >= b for a, b in zip(tail, tail[1:]))


def test_contour_trace_p2_rows(tmp_path):
    out = tmp_path / "trace2.csv"
    code = main(["contour-trace", "--n", "3", "--exps", "2,1",
                 "--coeffs", "0.5,0.5", "--height", "10", "--nodes", "41",
                 "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["im_u1", "im_u2"]
    assert len(rows) == 41 * 41 + 1


@pytest.mark.parametrize("flags, message", [
    (["--nodes", "10"], "nodes_per_line must be odd and >= 9"),
    (["--nodes", "7"], "nodes_per_line must be odd and >= 9"),
    (["--height", "0"], "height must be positive and finite"),
    (["--height", "-1"], "height must be positive and finite"),
    (["--height", "inf"], "height must be positive and finite"),
    (["--height", "nan"], "height must be positive and finite"),
    (["--n", "5", "--exps", "3,2,1", "--coeffs", "1,1,1"],
     "contour evaluation is implemented for p <= 2 (use the parametric solver for higher p)"),
])
def test_contour_trace_bad_grid_exit_2(flags, message, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(["contour-trace", "--n", "2", "--exps", "1", "--coeffs", "1",
                 "--out", str(out), *flags])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("problem, points", [
    (["--n", "2", "--exps", "1", "--coeffs", "1"], 9),
    (["--n", "3", "--exps", "2,1", "--coeffs", "1,1"], 81),
])
@pytest.mark.parametrize("height", ["1e155", "1e308", repr(sys.float_info.max)])
def test_contour_trace_tall_contour_finite_or_exit_3(problem, points, height, tmp_path, capsys):
    # a step past double range: only finite rows, or exit 3 with one error line
    out = tmp_path / "trace.csv"
    code = main(["contour-trace", *problem, "--nodes", "9", "--height", height, "--out", str(out)])
    err = capsys.readouterr().err
    if code == 3:
        assert err.startswith("error: ") and err.count("\n") == 1 and not out.exists()
    else:
        assert code == 0 and err == ""
        with open(out) as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == points
        assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_contour_trace_unwritable_out_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "trace.csv"
    code = main(["contour-trace", "--n", "2", "--exps", "1", "--coeffs", "1",
                 "--height", "10", "--nodes", "41", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write trace to {out}: ")


def test_series_stdout(capsys):
    code = main(["series", "--n", "2", "--exps", "1", "--alpha", "1",
                 "--kmax", "4"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    got = [float(v) for v in lines]
    assert got == pytest.approx([1.0, -0.5, 0.125, 0.0, -1.0 / 128.0], abs=1e-14)


def test_series_json(capsys):
    code, report = _run_json(
        capsys, ["series", "--n", "3", "--exps", "1", "--alpha", "2", "--kmax", "3"])
    assert code == 0
    assert report["results"][0]["value"] == pytest.approx(1.0)
    assert [r["name"] for r in report["results"]] == [f"c[{k}]" for k in range(4)]


def test_series_overflow_exit_3(capsys):
    # c_73 at alpha = 1e6 is about (alpha/2)^73/73!, some 1e311
    code = main(["series", "--n", "2", "--exps", "1", "--alpha", "1e6", "--kmax", "400"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: series coefficient c[73] exceeds double range")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_series_alpha_minus_one_exit_0(capsys):
    # Gamma(a_1) at a_1 = 0 used to exit 3 with a PoleError
    assert main(["series", "--n", "3", "--exps", "1", "--alpha", "-1", "--kmax", "4"]) == 0
    got = [float(v) for v in capsys.readouterr().out.split()]
    assert got == [1.0, 1 / 3, 1 / 9, 2 / 81, 0.0]


def test_series_past_double_range_exit_3(capsys):
    # this call used to print inf and -inf and exit 0
    code = main(["series", "--n", "7", "--exps", "1", "--alpha", "7868.813925972945",
                 "--kmax", "353"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: series coefficient c[348] exceeds double range\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("method", ["param", "oracle"])
def test_root_power_overflow_exit_3(method, capsys):
    # the root is about 1e-300, so its (-1000)th power is past double range
    code = main(["root", "--n", "2", "--exps", "1", "--coeffs", "1e300",
                 "--alpha", "-1000", "--method", method])
    assert code == 3
    assert capsys.readouterr().err == (f"error: {method}: root 1.0000000000000237e-300 "
                                       "to the power alpha = -1000.0 overflows\n")


def test_all_exports_resolve():
    # perfbench's layer tracer calls getattr on every name of each module's __all__
    modules = [mellinroots] + [importlib.import_module(f"mellinroots.{m.name}")
                               for m in pkgutil.iter_modules(mellinroots.__path__)
                               if not m.name.startswith("_")]
    for mod in modules:
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name}"


def test_benchmark_tracer_sees_every_layer(capsys):
    # perfbench/layertrace.py wraps the functions each module holds under its own
    # names; a call moved off those bindings would drop out of the per-layer metrics
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    tracer, original = trace.Tracer(), cli.principal_root_mb
    with tracer.active("layers"):
        assert main(["root", "--n", "5", "--exps", "3", "--coeffs", "0.7", "--method", "all"]) == 0
        assert main(["root", "--n", "3", "--exps", "2,1", "--coeffs", "0.4,0.9",
                     "--method", "all"]) == 0
        assert main(["verify", "--suite", "dirichlet", "--count", "1"]) == 0
    capsys.readouterr()
    assert cli.principal_root_mb is original
    metrics = trace.per_layer_metrics(tracer.spans)
    for key in ("param.calls", "oracle.calls", "mellin.solves_p1", "mellin.solves_p2",
                "gamma.elements", "quadrature.calls"):
        assert metrics[key] > 0, key


def test_series_rejects_two_exponents(capsys):
    assert main(["series", "--n", "3", "--exps", "2,1"]) == 2


def test_report_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["root", "--n", "2", "--exps", "1", "--coeffs", "1.5",
                 "--method", "param", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["command"] == "root"
    assert report["results"][0]["value"] == pytest.approx(0.5, abs=1e-12)


NUMERICAL_ERRORS = [errors.PoleError, errors.GammaOverflowError,
                    errors.ConvergenceConditionError, errors.DivergentIntegralError,
                    errors.QuadratureError, errors.RootConvergenceError,
                    errors.ContinuationError, errors.StepTooSmallError]


@pytest.mark.parametrize("exc", NUMERICAL_ERRORS)
def test_numerical_errors_exit_3(exc, capsys, monkeypatch):
    def fail(*args):
        raise exc("injected")

    monkeypatch.setattr("mellinroots.cli.series_coefficients", fail)
    assert main(["series", "--n", "2", "--exps", "1"]) == 3
    monkeypatch.setattr("mellinroots.cli.principal_root", fail)
    assert main(["root", "--n", "2", "--exps", "1", "--coeffs", "1",
                 "--method", "oracle"]) == 3
    assert "injected" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    [{"n": 2, "exps": [1]}],                  # missing key
    {"n": 2, "exps": [1], "coeffs": [1.0]},   # not a list
    [[2, [1], [1.0]]],                        # entry not an object
    [{"n": 2, "exps": 1, "coeffs": [1.0]}],   # exps not a list
    [{"n": 3, "exps": [True], "coeffs": [0.5]}],  # a JSON true used to pass as 1
    [{"n": 3, "exps": [1], "coeffs": [True]}],    # ... and as a coefficient 1.0
    [{"n": 3, "exps": [1], "coeffs": ["0.5"]}],   # a string used to pass through float()
    [{"n": 3, "exps": [2, 1], "coeffs": "12"}],   # ... and "12" as coefficients (1.0, 2.0)
])
def test_root_spec_malformed_exit_2(spec, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert main(["root", "--spec", str(path), "--method", "param"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_root_nonfinite_coefficient_exit_2(capsys):
    assert main(["root", "--n", "2", "--exps", "1", "--coeffs", "nan",
                 "--method", "param"]) == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3"])
def test_bad_tol_flag_exit_2(tol, capsys):
    assert main(["verify", "--suite", "funceq", "--count", "2", f"--tol={tol}"]) == 2
    assert main(["root", "--n", "2", "--exps", "1", "--coeffs", "1",
                 "--method", "param", f"--tol={tol}"]) == 2


def test_verify_zero_tol_accepted(capsys):
    assert main(["verify", "--suite", "det", "--count", "5", "--tol", "0"]) == 0


def test_jacobian_failures_carry_their_own_instance(capsys):
    code, report = _run_json(
        capsys, ["verify", "--suite", "jacobian", "--count", "40", "--tol", "1e-14"])
    assert code == 1
    failures = [r for r in report["results"] if r["name"].startswith("jacobian[")]
    assert len(failures) >= 2
    instances = {json.dumps(r["instance"]) for r in failures}
    assert len(instances) == len(failures)


def test_verify_nan_measure_is_a_miss(capsys, monkeypatch):
    for values, missed in [
        ([1e-13, math.nan, 1e-13], [1]),
        ([math.nan, 0.5, 1e-13], [0, 1]),       # a larger measure after the NaN
    ]:
        measures = iter(values)
        monkeypatch.setattr("mellinroots.cli.check_functional_equation",
                            lambda *args: next(measures))
        code, report = _run_json(capsys, ["verify", "--suite", "funceq", "--count", "3"])
        assert code == 1
        misses = [r for r in report["results"] if r["name"].startswith("funceq[")]
        assert [r["name"] for r in misses] == [f"funceq[{i}]" for i in missed]
        assert all(r["passed"] is False for r in misses)
        assert math.isnan(misses[0]["value"])
        assert "instance" in misses[0] and "replay" in misses[0]
        summary = report["results"][-1]
        assert summary["name"] == "funceq" and summary["passed"] is False
        assert math.isnan(summary["value"])


def test_verify_numerical_error_is_a_miss(capsys):
    # rel_tol 0 is out of the quadrature's reach: the instance is a NaN miss
    # with its error and replay line, and the run goes on to the other suites
    code, report = _run_json(
        capsys, ["verify", "--suite", "dirichlet", "--count", "1", "--tol", "0"])
    assert code == 1
    miss, summary = report["results"]
    assert miss["name"] == "dirichlet[0]" and miss["passed"] is False
    assert math.isnan(miss["value"]) and "u" in miss["instance"]
    assert miss["replay"] == "mellinroots verify --suite dirichlet --seed 0 --count 1 --tol 0.0"
    assert "did not reach rel_tol=0" in miss["error"]
    assert summary["name"] == "dirichlet" and math.isnan(summary["value"])
    code, report = _run_json(
        capsys, ["verify", "--suite", "all", "--count", "1", "--tol", "0"])
    assert code == 1
    assert [r["name"] for r in report["results"] if "replay" not in r] == [
        "det", "jacobian", "mellin", "dirichlet", "funceq", "pde", "epsilon"]
    assert "error:" not in capsys.readouterr().err


def test_verify_miss_instances_pinned(capsys, monkeypatch):
    # each suite's miss writes its instance: shapes as [n, [n_1, ...]], numpy
    # arrays as float lists, complex numbers as [re, im], Fractions as text
    code, report = _run_json(
        capsys, ["verify", "--suite", "all", "--count", "2", "--tol", "0", "--seed", "5"])
    assert code == 1
    first = {}
    for r in report["results"]:
        if "instance" in r:
            first.setdefault(r["method"], json.dumps(r["instance"]))
    assert first == {
        "jacobian": '{"shape": [8, [5, 4, 1]], '
                    '"xi": [0.26965351190828213, 1.9168444039275911, 2.0423660270999933]}',
        "mellin": '{"shape": [5, [3, 1]], "alpha": 3.1450325382160464, '
                  '"u": [0.7153255610421421, 0.4858013800881416]}',
        "dirichlet": '{"u": [[0.8342524851835732, 0.0]], "omega": 2.5256314999973566}',
        "funceq": '{"shape": [6, [4, 3, 1]], "alpha": 0.6887574583357975, '
                  '"u": [[0.7600426569426219, 0.526778564335999], '
                  '[0.3543302326829342, 0.23900616858173446], '
                  '[1.4990113380780856, 0.7218952892703903]]}',
        "pde": '{"n": 4, "exps": [3, 1], '
               '"coeffs": [0.4286411040705133, 0.24314456190532516], "alpha": 2.0}',
        "epsilon": '{"n": 8, "exps": [5, 4, 1], '
                   '"coeffs": [0.031032973928846005, 0.15951386350635213, 0.1693045501137995]}',
    }
    # det is exact, so it misses only against a wrong determinant
    monkeypatch.setattr("mellinroots.cli.det_cofactor",
                        lambda matrix: det_cofactor(matrix) + Fraction(1, 3))
    code, report = _run_json(
        capsys, ["verify", "--suite", "det", "--count", "1", "--tol", "0", "--seed", "5"])
    assert code == 1
    assert json.dumps(report["results"][0]["instance"]) == (
        '{"y": ["2", "-1", "6", "-1/3", "0", "1/3"]}')


def test_verify_tol_applies_to_det(capsys, monkeypatch):
    monkeypatch.setattr("mellinroots.cli.det_rank_one",
                        lambda y: det_rank_one(y) + Fraction(1, 10**6))
    code, report = _run_json(capsys, ["verify", "--suite", "det", "--count", "3"])
    assert code == 1
    assert [r["name"] for r in report["results"]] == ["det[0]", "det[1]", "det[2]", "det"]
    assert report["results"][-1]["value"] == pytest.approx(1e-6, rel=1e-12)
    code, report = _run_json(capsys, ["verify", "--suite", "det", "--count", "3",
                                      "--tol", "1e-5"])
    assert code == 0
    assert report["results"] == [{
        "name": "det", "method": "det", "value": pytest.approx(1e-6, rel=1e-12),
        "error_estimate": None, "tolerance": 1e-5, "passed": True}]


@pytest.mark.parametrize("argv, message", [
    (["verify", "--count", "0"], "count must be at least 1, got 0"),
    (["verify", "--suite", "det", "--count", "-3"], "count must be at least 1, got -3"),
    (["series", "--n", "2", "--exps", "1", "--kmax", "-2"],
     "kmax must be nonnegative, got -2"),
    (["series", "--n", "2", "--exps", "1", "--kmax", "65537"],
     "kmax must be at most 65536, got 65537"),
])
def test_vacuous_counts_exit_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_match_multisets_keeps_nan():
    assert math.isnan(_match_multisets([math.nan], [1.0]))
    assert math.isnan(_match_multisets([math.nan, 2.0], [1.0, 2.0]))
    assert math.isnan(_match_multisets([math.nan, 5.0], [1.0, 2.0]))   # a larger distance after


@pytest.mark.parametrize("method", ["mb", "param"])
@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_root_nonfinite_alpha_exit_2(alpha, method, capsys):
    assert main(["root", "--n", "2", "--exps", "1", "--coeffs", "1",
                 "--method", method, f"--alpha={alpha}", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: alpha must be finite, got {float(alpha)}\n"
    assert captured.out == ""


def test_root_spec_nonfinite_alpha_exit_2(tmp_path, capsys):
    path = tmp_path / "batch.json"
    path.write_text('[{"n": 2, "exps": [1], "coeffs": [1.0]},'
                    ' {"n": 2, "exps": [1], "coeffs": [1.0], "alpha": NaN}]')
    assert main(["root", "--spec", str(path), "--method", "param"]) == 2
    assert capsys.readouterr().err == "error: spec entry [1]: alpha must be finite, got nan\n"


@pytest.mark.parametrize("alpha, shown", [("true", "True"), ('"2"', "'2'")])
def test_root_spec_alpha_not_a_number_exit_2(alpha, shown, tmp_path, capsys):
    # a JSON true used to solve at alpha = 1.0, and "2" at 2.0
    path = tmp_path / "batch.json"
    path.write_text(f'[{{"n": 3, "exps": [1], "coeffs": [0.5], "alpha": {alpha}}}]')
    assert main(["root", "--spec", str(path), "--method", "param"]) == 2
    assert capsys.readouterr().err == f"error: spec entry [0]: alpha must be a number, got {shown}\n"


@pytest.mark.parametrize("method", ["oracle", "param"])
def test_root_newton_step_cap_exit_3(method, capsys, monkeypatch):
    # the real Newton loop, cut at one step, not an injected raiser
    monkeypatch.setattr("mellinroots.oracle._MAX_NEWTON", 1)
    assert main(["root", "--n", "2", "--exps", "1", "--coeffs", "1", "--method", method]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Newton did not converge in 1 steps")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("alpha", ["0", "-1"])
def test_root_mb_nonpositive_alpha_exit_3(alpha, capsys):
    assert main(["root", "--n", "2", "--exps", "1", "--coeffs", "1",
                 "--method", "mb", f"--alpha={alpha}"]) == 3
    err = capsys.readouterr().err
    assert err == f"error: alpha must be positive and finite, got {float(alpha)}\n"


def test_root_spec_nonintegral_degree_exit_2(tmp_path, capsys):
    # 2.9 and 1.7 used to be truncated to n = 2, exps = (1,), printing 0.618 with exit 0
    path = tmp_path / "batch.json"
    path.write_text('[{"n": 2.9, "exps": [1.7], "coeffs": [1]}]')
    assert main(["root", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: spec entry [0]: degree n must be an integer, got 2.9\n"
    assert captured.out == ""
    path.write_text('[{"n": 3.0, "exps": [1.0], "coeffs": [0.5]}]')
    assert main(["root", "--spec", str(path), "--method", "oracle"]) == 0


def _root_by_spec(tmp_path, capsys, entry, method):
    """(exit code, stdout, stderr) of root --spec on a one-entry spec file."""
    path = tmp_path / "one.json"
    path.write_text(json.dumps([entry]))
    code = main(["root", "--spec", str(path), "--method", method, "--json"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _spellings(rng, value):
    """One argv spelling of a number, chosen at random among those naming the same value."""
    if isinstance(value, int):
        forms = [str(value), f"{value}.0", f"{value}e0", f" {value}", f"+{value}"]
    else:
        forms = [repr(value), f"{value!r}".upper(), f"{value:.17e}"]
    return forms[rng.integers(len(forms))]


def test_argv_reads_like_a_spec_entry(tmp_path, capsys):
    # root --n ... and a one-entry --spec give the same results, whatever the
    # spelling of each number on argv (3, 3.0, 3e0, +3; 0.5, 5E-01)
    rng = np.random.default_rng(2024)
    for _ in range(20):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(p + 1, 9))
        exps = sorted(rng.choice(np.arange(1, n), size=p, replace=False).tolist(), reverse=True)
        coeffs = [float(c) for c in rng.uniform(0.05, 2.0, size=p)]
        if rng.random() < 0.3:
            coeffs[0] = 1  # an integer coefficient, as JSON and argv may spell it
        alpha = float(rng.choice([1.0, 2.0, 0.5, 3.25]))
        method = "all" if p == 1 else str(rng.choice(["param", "oracle", "all"]))
        entry = {"n": n, "exps": exps, "coeffs": coeffs, "alpha": alpha}
        spec_code, spec_out, _ = _root_by_spec(tmp_path, capsys, entry, method)
        argv = ["root", "--n", _spellings(rng, n),
                "--exps", ",".join(_spellings(rng, e) for e in exps),
                "--coeffs", ",".join(_spellings(rng, c) for c in coeffs),
                "--alpha", _spellings(rng, alpha), "--method", method, "--json"]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == spec_code == 0, argv
        report, spec_report = json.loads(out), json.loads(spec_out)
        assert report["results"] == spec_report["results"], argv
        assert report["inputs"] == {**entry, "coeffs": [float(c) for c in coeffs],
                                    "alpha": alpha, "method": method, "tol": 1e-9}


def test_integral_float_spellings_on_argv(capsys):
    # 3.0 used to exit 2 on argv, though the same spec entry solved
    argv = ["root", "--exps", "1.0", "--coeffs", "0.5", "--method", "all", "--json"]
    assert main(["root", "--n", "3.0", *argv[1:]]) == 0
    spelled = json.loads(capsys.readouterr().out)
    assert main(["root", "--n", "3", "--exps", "1", *argv[3:]]) == 0
    plain = json.loads(capsys.readouterr().out)
    assert spelled["results"] == plain["results"]
    assert spelled["inputs"] == plain["inputs"]


# (argv options, the spec entry naming the same values): a token float() refuses,
# the empty one too, is kept as text, so its spec twin is that text
BAD_INSTANCES = [
    (["--n", "3", "--exps", "2.9", "--coeffs", "0.5"], {"n": 3, "exps": [2.9], "coeffs": [0.5]}),
    (["--n", "2.9", "--exps", "1", "--coeffs", "0.5"], {"n": 2.9, "exps": [1], "coeffs": [0.5]}),
    (["--n", "true", "--exps", "1", "--coeffs", "0.5"],
     {"n": "true", "exps": [1], "coeffs": [0.5]}),
    (["--n", "3", "--exps", "true", "--coeffs", "0.5"],
     {"n": 3, "exps": ["true"], "coeffs": [0.5]}),
    (["--n", "3", "--exps", "1", "--coeffs", "true"], {"n": 3, "exps": [1], "coeffs": ["true"]}),
    (["--n", "3", "--exps", "1", "--coeffs", "nan"],
     {"n": 3, "exps": [1], "coeffs": [math.nan]}),
    (["--n", "3", "--exps", "nan", "--coeffs", "0.5"],
     {"n": 3, "exps": [math.nan], "coeffs": [0.5]}),
    (["--n", "3", "--exps", "2,1", "--coeffs", "0.5"], {"n": 3, "exps": [2, 1], "coeffs": [0.5]}),
    (["--n", "3", "--exps", "1", "--coeffs", "0.5,0.5"],
     {"n": 3, "exps": [1], "coeffs": [0.5, 0.5]}),
    (["--n", "4", "--exps", "3,,1", "--coeffs", "0.5,,0.3"],
     {"n": 4, "exps": [3, "", 1], "coeffs": [0.5, "", 0.3]}),
    (["--n", "3", "--exps", "1", "--coeffs", ""], {"n": 3, "exps": [1], "coeffs": [""]}),
    # an instance without coeffs used to be argparse's usage error on argv
    (["--n", "3", "--exps", "1"], {"n": 3, "exps": [1], "coeffs": None}),
    (["--n", "3", "--exps", "1", "--coeffs", "0.5", "--alpha", "nan"],
     {"n": 3, "exps": [1], "coeffs": [0.5], "alpha": math.nan}),
    (["--n", "3", "--exps", "1", "--coeffs", "0.5", "--alpha", "true"],
     {"n": 3, "exps": [1], "coeffs": [0.5], "alpha": "true"}),
    (["--n", "3", "--exps", "1", "--coeffs", "1e400"],
     {"n": 3, "exps": [1], "coeffs": [math.inf]}),
    # float() of an int past double range raises OverflowError: the spec exited 3, now both exit 2
    (["--n", "3", "--exps", "1", "--coeffs", str(10 ** 400)],
     {"n": 3, "exps": [1], "coeffs": [10 ** 400]}),
    (["--n", "3", "--exps", "1", "--coeffs", "0.5", "--alpha", str(-10 ** 400)],
     {"n": 3, "exps": [1], "coeffs": [0.5], "alpha": -10 ** 400}),
]


@pytest.mark.parametrize("options, entry", BAD_INSTANCES)
def test_argv_and_spec_refuse_alike(options, entry, tmp_path, capsys):
    # the argv error line is the spec entry's, without its "spec entry [0]: "
    code, out, spec_err = _root_by_spec(tmp_path, capsys, entry, "oracle")
    assert code == 2 and out == ""
    assert spec_err.startswith("error: spec entry [0]: ")
    assert main(["root", *options, "--method", "oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == spec_err.replace("spec entry [0]: ", "", 1)


@pytest.mark.parametrize("argv", [
    ["contour-trace", "--n", "2", "--exps", "1", "--coeffs", "1", "--out", "{out}"],
    ["series", "--n", "2", "--exps", "1"],
])
@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_nonfinite_alpha_exit_2(argv, alpha, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main([a.format(out=out) for a in argv] + [f"--alpha={alpha}"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: alpha must be finite, got {float(alpha)}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["0", "-1"])
def test_contour_trace_nonpositive_alpha_exit_3(alpha, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["contour-trace", "--n", "2", "--exps", "1", "--coeffs", "1",
                 "--out", str(out), f"--alpha={alpha}"]) == 3
    assert capsys.readouterr().err == f"error: alpha must be positive and finite, got {float(alpha)}\n"
    assert not out.exists()


def test_verify_replay_reproduces_failures(capsys):
    argv = ["verify", "--suite", "jacobian", "--count", "20", "--seed", "3"]
    _, probe = _run_json(capsys, argv + ["--tol", "0"])
    measures = [r["value"] for r in probe["results"] if r["name"].startswith("jacobian[")]
    # a tolerance just below a measure that six significant digits would round
    # above it, so a rounded replay would pass that instance
    tol = next(t for t in (math.nextafter(m, 0.0) for m in measures)
               if float(f"{t:g}") > t)
    code, report = _run_json(capsys, argv + [f"--tol={tol!r}"])
    assert code == 1
    replay = report["results"][0]["replay"]
    assert replay.startswith("mellinroots verify ")
    code, again = _run_json(capsys, shlex.split(replay)[1:])
    assert code == 1
    assert again["results"] == report["results"]


@pytest.mark.parametrize("argv", [
    ["root", "--n", "3", "--exps", "2,1", "--coeffs", "1e-300,1e300", "--method", "mb"],
    ["contour-trace", "--n", "3", "--exps", "2,1", "--coeffs", "0.5,1", "--nodes", "200001",
     "--out", "{out}"],
])
def test_contour_grid_too_large_exit_3(argv, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main([a.format(out=out) for a in argv]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "points exceeds" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["root", "--n", "2", "--exps", "1", "--coeffs", "0.5", "--method", "mb"],
    ["root", "--n", "3", "--exps", "2,1", "--coeffs", "0.5,0.5", "--method", "mb"],
    ["series", "--n", "2", "--exps", "1", "--kmax", "2"],
    ["contour-trace", "--n", "2", "--exps", "1", "--coeffs", "0.5", "--out", "{out}"],
])
def test_overflowing_log_gamma_exit_3(argv, tmp_path, capsys):
    # a finite alpha whose log-gamma overflows used to print NaN and exit 0
    out = tmp_path / "trace.csv"
    assert main([a.format(out=out) for a in argv] + ["--alpha", "1e308"]) == 3
    captured = capsys.readouterr()
    # series takes no log-gamma: its c_2 = alpha^2/8 is the first past double range
    what = "series coefficient c[2]" if argv[0] == "series" else "log-gamma of a finite argument"
    assert captured.err == f"error: {what} exceeds double range\n"
    assert captured.out == ""
    assert not out.exists()


def test_root_mb_tol_below_the_sizing_floor_exit_3(capsys):
    # 30/tol overflowed the contour's sizing into an infinite height (exit 2)
    assert main(["root", "--n", "2", "--exps", "1", "--coeffs", "0.5", "--tol", "1e-320",
                 "--method", "mb"]) == 3
    assert capsys.readouterr().err.startswith("error: contour integral error estimate")


def test_root_all_keeps_the_methods_that_succeed(capsys):
    # the contour refuses this grid; param and oracle still report the root
    code = main(["root", "--n", "1000", "--exps", "5", "--coeffs", "5e-324",
                 "--method", "all", "--json"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == "error: contour grid of 8325065 nodes per line exceeds 1048576\n"
    results = {r["name"]: r for r in json.loads(captured.out)["results"]}
    assert results["root^alpha[param]"]["value"] == results["root^alpha[oracle]"]["value"] == 1.0
    mb = results["root^alpha[mb]"]
    assert math.isnan(mb["value"]) and captured.err == f"error: {mb['error']}\n"
    assert list(results)[3:] == ["|param - oracle|"] and results["|param - oracle|"]["passed"]


def test_root_mb_honours_explicit_tol(capsys):
    # x^-a = 1e20 and the sum cancels down to 1: the estimate (5.8e15) is far
    # above --tol, so the contour is refused rather than printed; without --tol
    # it is bounded by the 1e-7 it is sized for, under --method all too
    for method, tol in [("mb", ["--tol", "1e-7"]), ("mb", []), ("all", [])]:
        code = main(["root", "--n", "40", "--exps", "5", "--coeffs", "1e-200",
                     "--method", method, *tol])
        assert code == 3, (method, tol)
        captured = capsys.readouterr()
        assert (captured.out == "") == (method == "mb") and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: contour integral error estimate ")
        assert captured.err.endswith("exceeds requested 1e-07\n")


def test_root_all_refuses_the_contour_above_explicit_tol(capsys):
    # mb's estimate (2e136) used to widen both comparisons' bound until they
    # passed; without --tol the contour is bounded by the 1e-7 it is sized for
    for tol in [["--tol", "1e-9"], []]:
        code = main(["root", "--n", "2", "--exps", "1", "--coeffs", "1e-300", "--alpha", "1e6",
                     "--method", "all", *tol, "--json"])
        assert code == 3, tol
        captured = capsys.readouterr()
        results = {r["name"]: r for r in json.loads(captured.out)["results"]}
        assert results["root^alpha[param]"]["value"] == 1.0
        assert results["root^alpha[oracle]"]["value"] == 1.0
        mb = results["root^alpha[mb]"]
        assert math.isnan(mb["value"]) and captured.err == f"error: {mb['error']}\n"
        assert list(results)[3:] == ["|param - oracle|"]


@pytest.mark.parametrize("shape, alpha", [
    ("--n 2 --exps 1 --coeffs 1", "1e-5"),
    ("--n 3 --exps 2,1 --coeffs 1,1", "1e-5"),
    ("--n 3 --exps 2,1 --coeffs 1,1", "1e-300"),
    ("--n 2 --exps 1 --coeffs 1", "1e-320"),
])
def test_contour_nodes_per_line_cap_exit_3(shape, alpha, capsys):
    # a small alpha narrows the strip and so the step: the grid is refused
    # before its line (up to 94 M nodes at 1e-5) or its tables are allocated
    tracemalloc.start()
    try:
        code = main(["root", *shape.split(), "--alpha", alpha, "--method", "mb"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: contour grid of ")
    assert captured.err.endswith(" nodes per line exceeds 1048576\n")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert peak < 2 ** 20


def test_contour_trace_zero_coefficient_exit_3(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["contour-trace", "--n", "3", "--exps", "2,1", "--coeffs", "0,1",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: contour evaluation needs strictly positive |x_s| (x^-u undefined at 0)\n")
    assert not out.exists()


@pytest.mark.parametrize("exps", ["3", "0", "2"])
def test_series_rejects_invalid_exponent_exit_2(exps, capsys):
    assert main(["series", "--n", "2", "--exps", exps, "--kmax", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: exponents must satisfy") and captured.out == ""


def test_verify_jacobian_stencil_stays_in_the_orthant(capsys):
    # instance 359 has xi_3 = 5.6e-6, below the central step 6e-6 (1 + xi_3)
    assert main(["verify", "--suite", "jacobian", "--seed", "817", "--count", "360"]) == 0
    assert capsys.readouterr().err == ""


def test_contour_trace_above_the_trace_cap_exit_3(tmp_path, capsys):
    # 1049^2 points, under the solve cap but above the trace cap of 2^20
    out = tmp_path / "trace.csv"
    assert main(["contour-trace", "--n", "3", "--exps", "2,1", "--coeffs", "0.5,1",
                 "--nodes", "1049", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: contour trace of 1100401 points exceeds 1048576\n"
    assert captured.out == ""
    assert not out.exists()


# argv spellings of n, an exponent or a coefficient that the fuzz mixes in
_ODD_TOKENS = ("3.0", "2.9", "1e3", "true", "")


def _wide(rng):
    """A magnitude from the least subnormal up to DBL_MAX: either end, or log-uniform between."""
    return float(rng.choice([5e-324, sys.float_info.max, 10.0 ** rng.uniform(-323, 308)]))


def _fuzz_argv(rng, out):
    """A random single-method root, series or contour-trace call; a field is bad 1 in 10 times.

    One call in five also takes --alpha, and one in three --height or --tol, from the
    whole double range (_wide), and 1 in 10 spells one n, exponent or coefficient oddly.
    """
    def pick(*values):
        return str(values[rng.integers(len(values))])

    def bad():
        return rng.random() < 0.1

    cmd = pick("root", "root", "series", "contour-trace")
    method = pick("param", "oracle", "mb") if cmd == "root" else None
    # a p = 2 contour solve takes about 0.1 s, a p = 1 solve a few ms
    p2_share = 0.0 if cmd == "series" else 0.25 if method == "mb" else 0.5
    p = 3 if bad() else 2 if rng.random() < p2_share else 1
    n = int(rng.integers(p + 1, 10))
    exps = sorted(rng.choice(np.arange(1, n), size=p, replace=False).tolist(), reverse=True)
    if bad():
        exps[0] = pick(0, n, -1)
    # the contour is cheap only for moderate coefficients
    span = 8 if method == "mb" or cmd == "contour-trace" else 300
    coeffs = [repr(float(10.0 ** rng.uniform(-span, span))) for _ in range(p)]
    if bad():
        coeffs[0] = pick("nan", "inf", "-inf", "0", "-1", "5e-324", "1e300")
    alpha = pick("0", "-1", "-1000", "nan", "inf") if bad() else pick("1", "2", "0.5", "3.7")
    if alpha == "-1000":
        coeffs[0] = "1e300"
    if rng.random() < 0.2:
        alpha = repr(float(rng.choice([-1.0, 1.0])) * _wide(rng))
    n = pick(0, -1) if bad() else n
    if bad():
        tokens = [[n], exps, coeffs][rng.integers(2 if cmd == "series" else 3)]
        tokens[rng.integers(len(tokens))] = pick(*_ODD_TOKENS)
        n = tokens[0] if len(tokens) == 1 else n
    argv = [cmd, f"--n={n}", f"--exps={','.join(map(str, exps))}", f"--alpha={alpha}"]
    if cmd == "root":
        if rng.random() < 0.3:
            argv.append(f"--tol={_wide(rng)!r}")
        return argv + [f"--coeffs={','.join(coeffs)}", "--method", method, "--json"]
    if cmd == "series":
        return argv + [f"--kmax={-1 if bad() else pick(0, 5, 20)}", "--json"]
    nodes = pick(-1, 0, 8, 10) if bad() else pick(9, 21, 41, 101 if p == 1 else 9)
    argv += [f"--coeffs={','.join(coeffs)}", "--out", out, f"--nodes={nodes}"]
    if rng.random() < 0.5:
        wide = rng.random() < 0.3
        height = _wide(rng) if wide else pick('nan', 'inf', '0', '-1') if bad() else pick(3, 10)
        argv.append(f"--height={height}")
    return argv


def _finite_outside_refusals(value):
    """Whether every number in a report is finite, but in a refused method's entry."""
    if isinstance(value, dict):
        return "error" in value or all(map(_finite_outside_refusals, value.values()))
    if isinstance(value, list):
        return all(map(_finite_outside_refusals, value))
    return not isinstance(value, float) or math.isfinite(value)


def test_cli_fuzz_exit_codes(tmp_path, capsys):
    # every call ends in 0, 2 (bad input) or 3 (numerical failure), and a
    # failure prints one error line and no traceback; a success prints no
    # non-finite number, in its report or in its trace
    rng = np.random.default_rng(13)
    trace = tmp_path / "trace.csv"
    for _ in range(400):
        argv = _fuzz_argv(rng, str(trace))
        trace.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's own usage error
            code = exc.code
        captured = capsys.readouterr()
        err = captured.err
        assert code in (0, 2, 3), argv
        if code:
            assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1, (argv, err)
            assert "Traceback" not in err, argv
        elif argv[0] == "contour-trace":
            with open(trace) as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows and all(math.isfinite(float(v)) for row in rows for v in row), argv
        else:
            assert _finite_outside_refusals(json.loads(captured.out)), argv


def _readme_cli_lines():
    """Every mellinroots command of the README's CLI section's sh block, as argv."""
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("mellinroots ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    lines = _readme_cli_lines()
    assert len(lines) >= 6 and any("--spec" in argv for argv in lines)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "batch.json").write_text(json.dumps([
        {"n": 2, "exps": [1], "coeffs": [1.0]},
        {"n": 5, "exps": [3, 1], "coeffs": [0.5, 2], "alpha": 2.5},
    ]))
    for argv in lines:
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == "", argv

