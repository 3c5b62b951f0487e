"""Spans around the public functions of each mellinroots layer, from outside.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper, in the defining module and wherever another mellinroots module
holds the same function under an imported name (``mellin`` calls
``log_gamma_array`` through its own binding, ``cli`` calls the solvers
through its own).  It also wraps the ``verify`` suite functions that
``cli`` keeps in its suite table, so the cli layer's self time excludes
them.  ``uninstall`` puts the originals back.

Each span is kept in memory as [name, layer, start, end, parent, count,
failed, workload].  Counts are read from return values: the size of each
``log_gamma_array`` result, ``QuadResult.evaluations`` of each contour
solve and the points returned by ``integrate_orthant_log``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time

LAYERS = ("gamma", "mellin", "quadrature", "identities", "hyper", "param",
          "oracle", "cli")

NAME, LAYER, START, END, PARENT, COUNT, FAILED, WORKLOAD = range(8)

# every per-layer metric of the benchmark, with its unit
UNITS = {
    "gamma.calls": "count", "gamma.elements": "count", "gamma.busy_s": "s",
    "gamma.ns_per_element": "ns",
    "mellin.solves_p1": "count", "mellin.solves_p2": "count",
    "mellin.evaluations": "count", "mellin.busy_s": "s", "mellin.self_s": "s",
    "mellin.ns_per_evaluation": "ns", "mellin.solve_p1_ms_p50": "ms",
    "mellin.solve_p2_s_p50": "s", "mellin.err_over_observed_p50": "ratio",
    "quadrature.calls": "count", "quadrature.points": "count",
    "quadrature.busy_s": "s", "quadrature.ns_per_point": "ns",
    "identities.det_busy_s": "s", "identities.dirichlet_busy_s": "s",
    "hyper.busy_s": "s",
    "param.calls": "count", "param.failed": "count",
    "param.us_per_call_p50": "us", "param.us_per_call_p99": "us",
    "oracle.calls": "count", "oracle.failed": "count",
    "oracle.us_per_call_p50": "us", "oracle.us_per_call_p99": "us",
    "oracle.all_roots_busy_s": "s",
    "cli.busy_s": "s", "cli.self_s": "s",
    "trace.overhead_pct": "%",
}


def _count(name, args, out):
    if name == "gamma.log_gamma_array":
        return int(out.size)
    if name == "mellin.principal_root_mb":
        return (args[0].p, out.evaluations)
    if name == "quadrature.integrate_orthant_log":
        return out[2]
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.workload = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, layer, clock(), 0.0, stack[-1] if stack else -1,
                   None, False, self.workload]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            rec[COUNT] = _count(name, args, out)
            return out

        return wrapper

    def install(self) -> None:
        modules = {k: m for k, m in sys.modules.items()
                   if k == "mellinroots" or k.startswith("mellinroots.")}
        for layer in LAYERS:
            mod = modules[f"mellinroots.{layer}"]
            names = getattr(mod, "__all__", None) or [
                k for k in vars(mod) if not k.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(layer, f"{layer}.{attr}", fn)
                for holder in modules.values():
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, key, fn))
                            setattr(holder, key, wrapped)
        suites = modules["mellinroots.cli"]._SUITES
        for key, (fn, count, tol) in list(suites.items()):
            self._patches.append((suites, key, (fn, count, tol)))
            suites[key] = (self._wrap("suite", f"suite.{key}", fn), count, tol)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()

    @contextlib.contextmanager
    def active(self, workload: str):
        """Record spans tagged with ``workload`` while the block runs."""
        self.workload = workload
        self.install()
        try:
            yield
        finally:
            self.uninstall()


def _quantile(values, q):
    """Inclusive-method quantile; q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def layer_summary(spans, workload=None) -> dict:
    """Busy time (outermost spans), self time and entry count per layer.

    With ``workload``, only that workload's spans are summed.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out = {}
    for i, s in enumerate(spans):
        if workload is not None and s[WORKLOAD] != workload:
            continue
        d = out.setdefault(s[LAYER], {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        dur = s[END] - s[START]
        d["self_s"] += dur - child[i]
        p = s[PARENT]
        while p >= 0 and spans[p][LAYER] != s[LAYER]:
            p = spans[p][PARENT]
        if p < 0:
            d["busy_s"] += dur
            d["calls"] += 1
    return out


def per_layer_metrics(spans) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced pass."""
    summary = layer_summary(spans)

    def layer(name, key):
        return summary.get(name, {}).get(key, 0.0)

    def named(name):
        return [s for s in spans if s[NAME] == name]

    def busy(names):
        """Summed duration of spans with these names not nested in one another."""
        total = 0.0
        for s in spans:
            if s[NAME] not in names:
                continue
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] not in names:
                p = spans[p][PARENT]
            if p < 0:
                total += s[END] - s[START]
        return total

    def dur(s):
        return s[END] - s[START]

    lga = named("gamma.log_gamma_array")
    elements = sum(s[COUNT] for s in lga if s[COUNT] is not None)
    mb = [s for s in named("mellin.principal_root_mb") if s[COUNT] is not None]
    mb1 = [dur(s) for s in mb if s[COUNT][0] == 1]
    mb2 = [dur(s) for s in mb if s[COUNT][0] == 2]
    evaluations = sum(s[COUNT][1] for s in mb)
    quad = named("quadrature.integrate_orthant_log")
    points = sum(s[COUNT] for s in quad if s[COUNT] is not None)
    param = named("param.principal_root_param")
    oracle = [s for s in named("oracle.principal_root")
              if not _inside_layer(spans, s, "oracle")]

    m = {
        "gamma.calls": layer("gamma", "calls"),
        "gamma.elements": elements,
        "gamma.busy_s": layer("gamma", "busy_s"),
        "gamma.ns_per_element": 1e9 * layer("gamma", "busy_s") / max(elements, 1),
        "mellin.solves_p1": len(mb1),
        "mellin.solves_p2": len(mb2),
        "mellin.evaluations": evaluations,
        "mellin.busy_s": layer("mellin", "busy_s"),
        "mellin.self_s": layer("mellin", "self_s"),
        "mellin.ns_per_evaluation": 1e9 * sum(mb1 + mb2) / max(evaluations, 1),
        "mellin.solve_p1_ms_p50": 1e3 * statistics.median(mb1) if mb1 else 0.0,
        "mellin.solve_p2_s_p50": statistics.median(mb2) if mb2 else 0.0,
        "quadrature.calls": len(quad),
        "quadrature.points": points,
        "quadrature.busy_s": layer("quadrature", "busy_s"),
        "quadrature.ns_per_point": 1e9 * sum(map(dur, quad)) / max(points, 1),
        "identities.det_busy_s": busy({"identities.det_rank_one",
                                       "identities.det_cofactor",
                                       "identities.build_rank_one_matrix"}),
        "identities.dirichlet_busy_s": busy({"identities.dirichlet_integral"}),
        "hyper.busy_s": layer("hyper", "busy_s"),
        "param.calls": len(param),
        "param.failed": sum(1 for s in param if s[FAILED]),
        "oracle.calls": len(oracle),
        "oracle.failed": sum(1 for s in oracle if s[FAILED]),
        "oracle.all_roots_busy_s": busy({"oracle.all_roots"}),
        "cli.busy_s": layer("cli", "busy_s"),
        "cli.self_s": layer("cli", "self_s"),
    }
    for key, group in (("param", param), ("oracle", oracle)):
        times = [1e6 * dur(s) for s in group]
        m[f"{key}.us_per_call_p50"] = statistics.median(times) if times else 0.0
        m[f"{key}.us_per_call_p99"] = _quantile(times, 0.99) if times else 0.0
    return m


def _inside_layer(spans, s, layer) -> bool:
    p = s[PARENT]
    while p >= 0:
        if spans[p][LAYER] == layer:
            return True
        p = spans[p][PARENT]
    return False
