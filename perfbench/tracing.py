"""Spans and counters around dckit's public functions, for the traced run.

``Tracer.install`` replaces each target function at every import site (every
loaded ``dckit`` module attribute that holds it, e.g. ``dckit.harness.condense``
and ``dckit.condense.sgd_train``) and each target method on ``Mlp``;
``uninstall`` puts the originals back. Spans live in memory as
``[name, start, end, parent, run_id, count]`` lists and become metrics after the
run. The library itself is not modified, and an untraced run has no wrappers.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, RUN, COUNT = range(6)


def _rows(i):
    return lambda args, kwargs, result: len(args[i])


def _gram_entries(args, kwargs, result):
    return result.shape[0] * result.shape[1]


def _pairs(args, kwargs, result):
    n = len(args[0])
    return n * (n - 1) // 2


def _transport_shape(args, kwargs, result):
    return len(args[0]), len(args[1])


# (span name, module, attribute, count taken from (args, kwargs, result) or None)
FUNCTIONS = (
    ("data.load_dataset", "dckit.data", "load_dataset", lambda a, k, r: r.n_samples),
    ("data.normalize_features", "dckit.data", "normalize_features", None),
    ("data.train_eval_split", "dckit.data", "train_eval_split", None),
    ("data.init_synthetic", "dckit.data", "init_synthetic", None),
    ("data.save_synthetic", "dckit.data", "save_synthetic", None),
    ("condense.condense", "dckit.condense", "condense", lambda a, k, r: len(r[1].rows)),
    ("harness.evaluate", "dckit.harness", "evaluate", None),
    ("harness.emit_plots", "dckit.harness", "emit_plots", None),
    ("discrepancy.hierarchy_report", "dckit.discrepancy", "hierarchy_report", None),
    ("discrepancy.wasserstein1", "dckit.discrepancy", "wasserstein1", _transport_shape),
    ("models.sgd_train", "dckit.models", "sgd_train", None),
    ("kernels.gram_matrix", "dckit.kernels", "gram_matrix", _gram_entries),
    ("kernels.kernel_grad2", "dckit.kernels", "kernel_grad2", lambda a, k, r: r.size),
    ("kernels.mmd_squared", "dckit.kernels", "mmd_squared", None),
    ("kernels.median_heuristic", "dckit.kernels", "median_heuristic", _pairs),
    ("augment.multi_formation", "dckit.augment", "multi_formation", None),
    ("augment.multi_formation_vjp", "dckit.augment", "multi_formation_vjp", None),
)

# (span name, Mlp method, count); args[0] is the model, args[1] the input batch
MLP_METHODS = (
    ("models.backward", "backward", _rows(1)),
    ("models.forward_batch", "forward_batch", _rows(1)),
    ("models.mean_loss", "mean_loss", None),
    ("models.with_params", "with_params", None),
    ("models.input_grad_param_tangent", "input_grad_param_tangent", None),
    ("models.feature_input_vjp", "feature_input_vjp", None),
)

# Every per-layer metric with its unit, in report order.
LAYER_UNITS = {
    "cli.import_s": "s",
    "harness.evaluate_s": "s",
    "harness.hierarchy_s": "s",
    "harness.artifacts_s": "s",
    "harness.run.self_s": "s",
    "data.load_dataset.s": "s",
    "data.load_dataset.rows": "count",
    "models.sgd_train.calls": "count",
    "models.sgd_train.minibatches": "count",
    "models.sgd_train.s": "s",
    "models.backward.calls": "count",
    "models.backward.rows": "count",
    "models.backward.self_s": "s",
    "models.forward_batch.calls": "count",
    "models.forward_batch.rows": "count",
    "models.mean_loss.calls": "count",
    "models.with_params.calls": "count",
    "models.input_grad_param_tangent.calls": "count",
    "models.input_grad_param_tangent.s": "s",
    "models.feature_input_vjp.s": "s",
    "kernels.gram_matrix.calls": "count",
    "kernels.gram_matrix.entries": "count",
    "kernels.gram_matrix.s": "s",
    "kernels.kernel_grad2.calls": "count",
    "kernels.kernel_grad2.elements": "count",
    "kernels.kernel_grad2.s": "s",
    "kernels.mmd_squared.calls": "count",
    "kernels.mmd_squared.s": "s",
    "kernels.median_heuristic.pairs": "count",
    "kernels.median_heuristic.s": "s",
    "discrepancy.wasserstein1.s": "s",
    "discrepancy.wasserstein1.lp_vars": "count",
    "discrepancy.wasserstein1.dense_bytes": "bytes-computed",
    "discrepancy.hierarchy_report.self_s": "s",
    "condense.steps": "count",
    "condense.step_ms": "ms",
    "condense.self_s": "s",
    "condense.outer_evals": "count",
    "augment.multi_formation.calls": "count",
    "augment.multi_formation.s": "s",
    "augment.multi_formation_vjp.s": "s",
    "trace.overhead_s": "s",
}
TIME_UNITS = ("s", "ms")
# Per-stage span that timings.json's stage timer wraps in dckit.harness.run.
STAGE_SPANS = {
    "load": "data.load_dataset",
    "normalize": "data.normalize_features",
    "split": "data.train_eval_split",
    "init": "data.init_synthetic",
    "condense": "condense.condense",
    "evaluate": "harness.evaluate",
    "hierarchy": "discrepancy.hierarchy_report",
}
# The stage timer wraps the stage's call, so its reading may exceed the span by
# the timer's own few microseconds, and by no more than this.
STAGE_TOLERANCE_S = 0.05
ROOT_SPAN = "harness.run"


class Tracer:
    """Records nested spans; one instance serves every traced run of a process."""

    def __init__(self):
        self.spans: list = []
        self.run_id = 0
        self._stack: list = []
        self._saved: list = []

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, kwargs, result)
            return result

        return traced

    def traced_call(self, run_id, fn, *args):
        """Call ``fn(*args)`` under a root span with the wrappers installed; return its spans."""
        self.run_id = run_id
        self.install()
        try:
            self.wrap(ROOT_SPAN, fn)(*args)
        finally:
            self.uninstall()
        return self.run_spans(run_id)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "dckit" or n.startswith("dckit.")]
        for name, module, attr, count in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            traced = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, traced)
        mlp = importlib.import_module("dckit.models").Mlp
        for name, attr, count in MLP_METHODS:
            original = mlp.__dict__[attr]
            self._saved.append((mlp, attr, original))
            setattr(mlp, attr, self.wrap(name, original, count))

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def run_spans(self, run_id):
        """The spans of one traced run, with parents re-indexed into the returned list."""
        index, out = {}, []
        for i, s in enumerate(self.spans):
            if s[RUN] == run_id:
                index[i] = len(out)
                out.append([*s[:PARENT], index.get(s[PARENT], -1), *s[PARENT + 1:]])
        return out

    def write(self, path):
        """Write every span as CSV: name,start,end,parent,run_id,count."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,run_id,count\n")
            for s in self.spans:
                count = "" if s[COUNT] is None else str(s[COUNT]).replace(",", ";")
                fh.write(f"{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[RUN]},{count}\n")


def leftover_wrappers() -> list:
    """Module attributes and ``Mlp`` methods that still hold a tracer wrapper."""
    modules = [(n, m) for n, m in list(sys.modules.items()) if n == "dckit" or n.startswith("dckit.")]
    attrs = {attr for _, _, attr, _ in FUNCTIONS}
    found = [f"{n}.{key}" for n, mod in modules for key, value in list(vars(mod).items())
             if key in attrs and hasattr(value, "__wrapped__")]
    mlp = importlib.import_module("dckit.models").Mlp
    return found + [f"Mlp.{attr}" for _, attr, _ in MLP_METHODS if hasattr(mlp.__dict__[attr], "__wrapped__")]


class SpanTree:
    """Durations, self times and ancestry over one run's spans (parents precede children)."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [s[END] - s[START] for s in spans]
        self.child = [0.0] * len(spans)
        self.by_name = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[NAME]].append(i)
            if s[PARENT] >= 0:
                self.child[s[PARENT]] += self.dur[i]

    def has_ancestor(self, i, name):
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def calls(self, name):
        return len(self.by_name[name])

    def inclusive(self, name):
        """Wall time inside ``name``, counting a recursive call once."""
        return sum((self.dur[i] for i in self.by_name[name] if not self.has_ancestor(i, name)), 0.0)

    def self_time(self, name):
        """Time inside ``name`` minus the time its child spans cover."""
        return sum((self.dur[i] - self.child[i] for i in self.by_name[name]), 0.0)

    def total(self, name):
        return sum(self.spans[i][COUNT] for i in self.by_name[name])

    def calls_under(self, name, ancestor, direct=False):
        if direct:
            return sum(self.spans[self.spans[i][PARENT]][NAME] == ancestor
                       for i in self.by_name[name] if self.spans[i][PARENT] >= 0)
        return sum(self.has_ancestor(i, ancestor) for i in self.by_name[name])


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced run (all of LAYER_UNITS but the run-level two)."""
    t = SpanTree(spans)
    shapes = [t.spans[i][COUNT] for i in t.by_name["discrepancy.wasserstein1"]]
    lp = [(n, m) for n, m in shapes if n != m]  # equal sizes take the assignment path, no LP
    steps = t.total("condense.condense")
    return {
        "harness.evaluate_s": t.inclusive("harness.evaluate"),
        "harness.hierarchy_s": t.inclusive("discrepancy.hierarchy_report"),
        "harness.artifacts_s": t.inclusive("data.save_synthetic") + t.inclusive("harness.emit_plots"),
        "harness.run.self_s": t.self_time(ROOT_SPAN),
        "data.load_dataset.s": t.inclusive("data.load_dataset"),
        "data.load_dataset.rows": t.total("data.load_dataset"),
        "models.sgd_train.calls": t.calls("models.sgd_train"),
        "models.sgd_train.minibatches": t.calls_under("models.backward", "models.sgd_train", direct=True),
        "models.sgd_train.s": t.inclusive("models.sgd_train"),
        "models.backward.calls": t.calls("models.backward"),
        "models.backward.rows": t.total("models.backward"),
        "models.backward.self_s": t.self_time("models.backward"),
        "models.forward_batch.calls": t.calls("models.forward_batch"),
        "models.forward_batch.rows": t.total("models.forward_batch"),
        "models.mean_loss.calls": t.calls("models.mean_loss"),
        "models.with_params.calls": t.calls("models.with_params"),
        "models.input_grad_param_tangent.calls": t.calls("models.input_grad_param_tangent"),
        "models.input_grad_param_tangent.s": t.inclusive("models.input_grad_param_tangent"),
        "models.feature_input_vjp.s": t.inclusive("models.feature_input_vjp"),
        "kernels.gram_matrix.calls": t.calls("kernels.gram_matrix"),
        "kernels.gram_matrix.entries": t.total("kernels.gram_matrix"),
        "kernels.gram_matrix.s": t.inclusive("kernels.gram_matrix"),
        "kernels.kernel_grad2.calls": t.calls("kernels.kernel_grad2"),
        "kernels.kernel_grad2.elements": t.total("kernels.kernel_grad2"),
        "kernels.kernel_grad2.s": t.inclusive("kernels.kernel_grad2"),
        "kernels.mmd_squared.calls": t.calls("kernels.mmd_squared"),
        "kernels.mmd_squared.s": t.inclusive("kernels.mmd_squared"),
        "kernels.median_heuristic.pairs": t.total("kernels.median_heuristic"),
        "kernels.median_heuristic.s": t.inclusive("kernels.median_heuristic"),
        "discrepancy.wasserstein1.s": t.inclusive("discrepancy.wasserstein1"),
        "discrepancy.wasserstein1.lp_vars": sum(n * m for n, m in lp),
        "discrepancy.wasserstein1.dense_bytes": sum((n + m) * n * m * 8 for n, m in lp),
        "discrepancy.hierarchy_report.self_s": t.self_time("discrepancy.hierarchy_report"),
        "condense.steps": steps,
        "condense.step_ms": 1000.0 * t.inclusive("condense.condense") / steps,
        "condense.self_s": t.self_time("condense.condense"),
        "condense.outer_evals": t.calls_under("models.mean_loss", "condense.condense"),
        "augment.multi_formation.calls": t.calls("augment.multi_formation"),
        "augment.multi_formation.s": t.inclusive("augment.multi_formation"),
        "augment.multi_formation_vjp.s": t.inclusive("augment.multi_formation_vjp"),
    }


def stage_mismatches(spans, timings: dict) -> list:
    """Compare each stage of timings.json with the one span of that stage under the root."""
    t = SpanTree(spans)
    roots = t.by_name[ROOT_SPAN]
    if len(roots) != 1:
        return [f"{len(roots)} {ROOT_SPAN} spans"]
    problems = []
    for stage, seconds in timings.items():
        name = STAGE_SPANS.get(stage)
        if name is None:
            problems.append(f"stage {stage} has no span")
            continue
        under = [i for i in t.by_name[name] if t.spans[i][PARENT] == roots[0]]
        if len(under) != 1:
            problems.append(f"stage {stage}: {len(under)} {name} spans under the root")
            continue
        gap = seconds - t.dur[under[0]]
        if not -1e-6 <= gap <= STAGE_TOLERANCE_S:  # timings.json rounds to 1e-6 s
            problems.append(f"stage {stage}: timings.json {seconds:.6f} s vs span {t.dur[under[0]]:.6f} s")
    return problems


def median_metrics(runs: list) -> dict:
    """Median of each time metric over traced runs; counts must repeat exactly."""
    return {k: statistics.median(r[k] for r in runs) if LAYER_UNITS[k] in TIME_UNITS else runs[0][k]
            for k in runs[0]}


def count_mismatches(runs: list) -> list:
    return [k for k in runs[0] if LAYER_UNITS[k] not in TIME_UNITS and any(r[k] != runs[0][k] for r in runs)]
