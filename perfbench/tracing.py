"""Spans and counters around calls into lagte's public functions.

``Tracer`` replaces a function on the module that *calls* it (for example
``lagte.estimator.normalize``, the name ``estimate_delay`` looks up), so spans
nest as command -> estimate -> stage without editing ``src/lagte``.  Spans are
kept in memory as ``[name, start, end, parent]`` lists and written out by the
caller when the run ends.  Only serial runs are traced: a worker process would
record into its own copy of the tracer.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

# (calling module, attribute, span name).  A span name is the defining
# module and function; several call sites may feed one name.
ESTIMATE_SITES = (
    ("lagte.estimator", "estimate_delay", "estimator.estimate_delay"),
    ("lagte.simulate", "estimate_delay", "estimator.estimate_delay"),
    ("lagte.network", "estimate_delay", "estimator.estimate_delay"),
)
STAGE_SITES = (
    ("lagte.estimator", "decompose", "preprocess.decompose"),
    ("lagte.estimator", "fit_markov", "bootstrap.fit_markov"),
    ("lagte.estimator", "derive_replicate_rng", "core.derive_replicate_rng"),
    ("lagte.estimator", "sample_bootstrap_series", "bootstrap.sample_bootstrap_series"),
    ("lagte.estimator", "normalize", "preprocess.normalize"),
    ("lagte.estimator", "encode", "preprocess.encode"),
    ("lagte.estimator", "encode_fixed", "preprocess.encode"),
    ("lagte.estimator", "best_lag", "entropy.best_lag"),
    ("lagte.estimator", "grid_search", "estimator.grid_search"),
    ("lagte.simulate", "generate_pair", "simulate.generate_pair"),
    ("lagte.simulate", "run_batch", "simulate.run_batch"),
    ("lagte.network", "load_speed_csv", "network.load_speed_csv"),
    ("lagte.network", "extract_incident_window", "network.extract_incident_window"),
    ("lagte.network", "analyze_paths", "network.analyze_paths"),
    ("lagte.network", "emit_report", "network.emit_report"),
)
ALL_SITES = ESTIMATE_SITES + STAGE_SITES


def _count_normalize(c, args, kwargs, result):
    c["preprocess.normalize.samples"] += len(args[0])


def _count_best_lag(c, args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    lags = config.lag_max - config.lag_min + 1
    c["entropy.best_lag.te_evals"] += lags * (config.shuffle_reps + 1)
    c["entropy.best_lag.positive"] += max(result[1].ete) > 0.0


def _count_walk(c, args, kwargs, result):
    diagnostics = kwargs.get("diagnostics")
    if diagnostics is not None:
        c["bootstrap.sample_bootstrap_series.restarts"] += diagnostics["restarts"]


def _count_fit(c, args, kwargs, result):
    requested = args[1] if len(args) > 1 else kwargs["n_states"]
    c["bootstrap.fit_markov.states_reduced"] += result.n_states < requested


def _count_grid(c, args, kwargs, result):
    c["estimator.grid_search.cells_skipped"] += len(result.skipped)


def _count_batch(c, args, kwargs, result):
    c["simulate.run_batch.cells_failed"] += sum(1 for cell in result.cells if cell.failures)


def _count_csv(c, args, kwargs, result):
    c["network.load_speed_csv.rows"] += sum(len(s) for s in result.values())


def _count_paths(c, args, kwargs, result):
    # analyze_paths caches each road's window but re-runs the source-side
    # work (decompose, fit) for every hop; a hop whose source was already
    # seen in this call repeats it.
    seen = set()
    for report in result:
        for hop in report.hops:
            c["network.analyze_paths.hops"] += 1
            c["network.analyze_paths.hops_failed"] += hop.error is not None
            c["network.analyze_paths.hops_flagged"] += hop.causality_flag
            c["network.analyze_paths.redundant_sources"] += hop.source in seen
            seen.add(hop.source)


def _count_report(c, args, kwargs, result):
    c["network.emit_report.bytes"] += len(result.encode("utf-8"))


COUNTERS = {
    "preprocess.normalize": _count_normalize,
    "entropy.best_lag": _count_best_lag,
    "bootstrap.sample_bootstrap_series": _count_walk,
    "bootstrap.fit_markov": _count_fit,
    "estimator.grid_search": _count_grid,
    "simulate.run_batch": _count_batch,
    "network.load_speed_csv": _count_csv,
    "network.analyze_paths": _count_paths,
    "network.emit_report": _count_report,
}


class Tracer:
    """Records a span per wrapped call while installed (use as a context manager)."""

    def __init__(self, sites=ALL_SITES):
        import importlib

        self.sites = [(importlib.import_module(m), attr, name) for m, attr, name in sites]
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def _wrap(self, original, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for module, attr, name in self.sites:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself, such as a whole command."""
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def busy(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)


def summarize(spans) -> dict:
    """Per span name: calls, busy (total duration) and self time.

    Self time is a span's duration minus the time its child spans cover.
    Children of one parent never overlap, because traced runs are serial.
    Also returns the overall ``unaccounted`` share: the part of top-level
    span time that no innermost (leaf) span covers.
    """
    child_time = [0.0] * len(spans)
    has_child = [False] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
            has_child[parent] = True
    stats = {}
    top, uncovered = 0.0, 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        duration = end - start
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - child_time[i]
        if parent < 0:
            top += duration
        if has_child[i]:
            uncovered += duration - child_time[i]
    return {"names": stats, "unaccounted_frac": uncovered / top if top else 0.0}


# Per-layer metrics: name, unit, better.  Values are per command (totals over
# the traced commands divided by their number) unless they are ratios.
PER_LAYER = (
    ("preprocess.normalize.calls", "count", "lower"),
    ("preprocess.normalize.busy_s", "s", "lower"),
    ("preprocess.normalize.samples", "count", "lower"),
    ("entropy.best_lag.calls", "count", "lower"),
    ("entropy.best_lag.busy_s", "s", "lower"),
    ("entropy.best_lag.te_evals", "count", "lower"),
    ("entropy.best_lag.ns_per_te_eval", "ns", "lower"),
    ("entropy.best_lag.positive_ete_frac", "fraction", "higher"),
    ("bootstrap.sample_bootstrap_series.calls", "count", "lower"),
    ("bootstrap.sample_bootstrap_series.busy_s", "s", "lower"),
    ("bootstrap.sample_bootstrap_series.restarts", "count", "lower"),
    ("bootstrap.fit_markov.busy_s", "s", "lower"),
    ("bootstrap.fit_markov.states_reduced", "count", "lower"),
    ("preprocess.decompose.busy_s", "s", "lower"),
    ("preprocess.encode.busy_s", "s", "lower"),
    ("core.derive_replicate_rng.busy_s", "s", "lower"),
    ("estimator.estimate_delay.calls", "count", "lower"),
    ("estimator.estimate_delay.busy_s", "s", "lower"),
    ("estimator.estimate_delay.self_s", "s", "lower"),
    ("estimator.parallel_eff", "fraction", "higher"),
    ("estimator.grid_search.busy_s", "s", "lower"),
    ("estimator.grid_search.cells_skipped", "count", "lower"),
    ("simulate.generate_pair.busy_s", "s", "lower"),
    ("simulate.run_batch.cells_failed", "count", "lower"),
    ("network.load_speed_csv.busy_s", "s", "lower"),
    ("network.load_speed_csv.rows", "count", "higher"),
    ("network.extract_incident_window.busy_s", "s", "lower"),
    ("network.analyze_paths.hops", "count", "higher"),
    ("network.analyze_paths.hops_failed", "count", "lower"),
    ("network.analyze_paths.hops_flagged", "count", "lower"),
    ("network.analyze_paths.redundant_source_frac", "fraction", "lower"),
    ("network.emit_report.busy_s", "s", "lower"),
    ("network.emit_report.bytes", "bytes", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.unaccounted_frac", "fraction", "lower"),
)


def layer_metrics(tracer: Tracer, commands: int, overhead: float, parallel_eff: float) -> dict:
    """Every ``PER_LAYER`` value from a tracer that ran ``commands`` commands."""
    summary = summarize(tracer.spans)
    names, c = summary["names"], tracer.counts
    values = {}
    for metric, _, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if layer in names and stat in ("calls", "busy_s", "self_s"):
            values[metric] = names[layer][stat] / commands
        elif stat in ("calls", "busy_s", "self_s"):
            values[metric] = 0.0
        else:
            values[metric] = c[metric] / commands
    best_lag = names.get("entropy.best_lag", {"calls": 0, "busy_s": 0.0})
    te_evals = c["entropy.best_lag.te_evals"]
    values["entropy.best_lag.ns_per_te_eval"] = (
        best_lag["busy_s"] * 1e9 / te_evals if te_evals else 0.0
    )
    values["entropy.best_lag.positive_ete_frac"] = (
        c["entropy.best_lag.positive"] / best_lag["calls"] if best_lag["calls"] else 0.0
    )
    hops = c["network.analyze_paths.hops"]
    values["network.analyze_paths.redundant_source_frac"] = (
        c["network.analyze_paths.redundant_sources"] / hops if hops else 0.0
    )
    values["estimator.parallel_eff"] = parallel_eff
    values["trace.overhead_frac"] = overhead
    values["trace.unaccounted_frac"] = summary["unaccounted_frac"]
    return values
