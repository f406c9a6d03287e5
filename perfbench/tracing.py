"""Spans around nnsig's public functions, recorded from outside the package.

A traced op replaces selected functions, in the module namespaces that call
them, with wrappers that record a span: name, start, end, parent span and op
id. Nothing inside ``src/nnsig`` is edited; a wrapped name that a later
version of the package no longer has is skipped, and its metrics read 0.
Spans stay in memory until the run ends.

Every span of an op has its self time (its duration minus the part covered
by its child spans) counted in exactly one ``*_s`` metric below, so the
per-layer self times of an op add up to the op's wall time. Set-up spans are
kept in the span file but not in the per-op metrics.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager


def _rows(span, args, kwargs, result):
    span["rows"] = len(args[1] if len(args) > 1 else kwargs["X"])


def _jitter(span, args, kwargs, result):
    span["jitter"] = float(result.jitter_used)


def _selected(span, args, kwargs, result):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    # two sampled networks with bit-equal statistics do not occur in practice,
    # so distinct null values count distinct selected networks
    span["selected_fraction"] = len(set(result[0])) / cfg.m


def _epochs(span, args, kwargs, result):
    span["epochs"] = len(result.train_loss_history)


# (module that calls the function, attribute, span name, hook on the result)
WRAPS = (
    ("workloads", "cli_main", "cli.main", None),
    ("nnsig.cli", "generate", "data.generate", None),
    ("nnsig.cli", "load_csv", "data.load_csv", None),
    ("nnsig.cli", "load_network", "network.load", None),
    ("nnsig.cli", "save_network", "network.save", None),
    ("nnsig.cli", "quadratic_loss", "training.quadratic_loss", None),
    ("nnsig.cli", "fit_least_squares", "training.fit_least_squares", _epochs),
    ("nnsig.cli", "significance_test", "nulldist.significance_test", None),
    ("nnsig.nulldist", "null_distribution", "nulldist.null_distribution", _selected),
    ("nnsig.nulldist", "sample_networks", "nulldist.sample_networks", None),
    ("nnsig.nulldist", "empirical_covariance", "nulldist.empirical_covariance", None),
    ("nnsig.nulldist", "forward_batch", "network.forward_batch", _rows),
    ("nnsig.nulldist", "shrink", "nulldist.shrink", None),
    ("nnsig.nulldist", "cholesky_with_jitter", "nulldist.cholesky_with_jitter", _jitter),
    ("nnsig.nulldist", "empirical_test_statistic",
     "significance.empirical_test_statistic", None),
    ("nnsig.significance", "input_gradient_batch", "network.input_gradient_batch", _rows),
    # the mc_study workload calls the library API from the benchmark's own module
    ("workloads", "generate", "data.generate", None),
    ("workloads", "fit_least_squares", "training.fit_least_squares", _epochs),
    ("workloads", "significance_test", "nulldist.significance_test", None),
)

ROOT_SPAN = "bench.op"

# every per-layer metric: name -> (unit, ROADMAP stage)
METRICS = {
    "cli.self_s": ("s", "report"),
    "cli.report_bytes": ("bytes", "report"),
    "data.generate_s": ("s", "data"),
    "data.load_csv_s": ("s", "data"),
    "network.load_s": ("s", "data"),
    "training.fit_s": ("s", "fit"),
    "training.epochs": ("count", "fit"),
    "training.fit_s_per_epoch": ("s", "fit"),
    "training.quadratic_loss_s": ("s", "fit"),
    "nulldist.sample_networks_s": ("s", "sample"),
    "nulldist.empirical_covariance_s": ("s", "evaluate_outputs"),
    "nulldist.empirical_covariance_calls": ("count", "evaluate_outputs"),
    "network.forward_batch_s": ("s", "evaluate_outputs"),
    "network.forward_batch_calls": ("count", "evaluate_outputs"),
    "network.input_gradient_batch_s": ("s", "evaluate_gradients"),
    "network.input_gradient_batch_calls": ("count", "evaluate_gradients"),
    "significance.statistic_s": ("s", "evaluate_gradients"),
    "significance.statistic_calls": ("count", "evaluate_gradients"),
    "network.rows_evaluated": ("count", "evaluate_outputs+evaluate_gradients"),
    "nulldist.shrink_s": ("s", "cholesky"),
    "nulldist.cholesky_s": ("s", "cholesky"),
    "nulldist.jitter_used_max": ("value", "cholesky"),
    "nulldist.select_s": ("s", "select"),
    "nulldist.test_self_s": ("s", "select"),
    "nulldist.selected_fraction": ("ratio", "select"),
    "trace.bench_self_s": ("s", "bench"),
    "trace.overhead_s": ("s", "bench"),
}

# span name -> metric holding its self time
SELF_METRICS = {
    "cli.main": "cli.self_s",
    "data.generate": "data.generate_s",
    "data.load_csv": "data.load_csv_s",
    "network.load": "network.load_s",
    "training.quadratic_loss": "training.quadratic_loss_s",
    "training.fit_least_squares": "training.fit_s",
    "nulldist.significance_test": "nulldist.test_self_s",
    "nulldist.null_distribution": "nulldist.select_s",
    "nulldist.sample_networks": "nulldist.sample_networks_s",
    "nulldist.empirical_covariance": "nulldist.empirical_covariance_s",
    "network.forward_batch": "network.forward_batch_s",
    "nulldist.shrink": "nulldist.shrink_s",
    "nulldist.cholesky_with_jitter": "nulldist.cholesky_s",
    "significance.empirical_test_statistic": "significance.statistic_s",
    "network.input_gradient_batch": "network.input_gradient_batch_s",
    ROOT_SPAN: "trace.bench_self_s",
}

# span name -> metric counting its calls
CALL_METRICS = {
    "nulldist.empirical_covariance": "nulldist.empirical_covariance_calls",
    "network.forward_batch": "network.forward_batch_calls",
    "network.input_gradient_batch": "network.input_gradient_batch_calls",
    "significance.empirical_test_statistic": "significance.statistic_calls",
}

# span attribute -> metric summing it over an op
SUM_METRICS = {
    "rows": "network.rows_evaluated",
    "epochs": "training.epochs",
    "report_bytes": "cli.report_bytes",
}


class Tracer:
    """Records spans while a traced op or set-up runs."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._t0 = time.perf_counter()

    def _open(self, name):
        span = {
            "id": len(self.spans),
            "name": name,
            "op": self._op,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter() - self._t0,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter() - self._t0
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrapper(self, fn, name, hook):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if hook is not None:
                try:
                    hook(span, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the function's signature changed; the count stays 0
            return result

        return traced

    @contextmanager
    def op(self, op_id):
        """Trace one op: install the wrappers, open the root span, restore."""
        patched = []
        for module_name, attr, name, hook in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrapper(original, name, hook))
            patched.append((module, attr, original))
        self._op = op_id
        try:
            with self.span(ROOT_SPAN) as root:
                yield root
        finally:
            self._op = None
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def per_op_metrics(spans):
    """Op id -> {metric: value} for every traced op; set-up is left out."""
    selfs = self_times(spans)
    ops = {}
    for s in spans:
        if s["op"] is None or s["op"] == "setup":
            continue
        m = ops.setdefault(s["op"], dict.fromkeys(METRICS, 0))
        m.setdefault("selected", [])
        name = s["name"]
        if name in SELF_METRICS:
            m[SELF_METRICS[name]] += selfs[s["id"]]
        if name in CALL_METRICS:
            m[CALL_METRICS[name]] += 1
        for attr, metric in SUM_METRICS.items():
            m[metric] += s.get(attr, 0)
        m["nulldist.jitter_used_max"] = max(m["nulldist.jitter_used_max"], s.get("jitter", 0.0))
        if "selected_fraction" in s:
            m["selected"].append(s["selected_fraction"])
    for m in ops.values():
        selected = m.pop("selected")
        m["nulldist.selected_fraction"] = statistics.fmean(selected) if selected else 0.0
        m["training.fit_s_per_epoch"] = (
            m["training.fit_s"] / m["training.epochs"] if m["training.epochs"] else 0.0)
    return ops


def layer_metrics(spans, overhead_s):
    """Every per-layer metric: its mean per traced op (the jitter: its maximum)."""
    ops = list(per_op_metrics(spans).values())
    out = {name: statistics.fmean(op[name] for op in ops) for name in METRICS}
    out["nulldist.jitter_used_max"] = max(op["nulldist.jitter_used_max"] for op in ops)
    out["trace.overhead_s"] = overhead_s
    return out
