"""Outside-in layer spans for the benchmark's traced runs.

The program under ``src/`` carries no instrumentation.  Instead the
benchmark rebinds each public function listed in ``LAYER_FUNCTIONS``
under every name a ``nmcbounds`` module holds it by (``from .chain import
evaluate_kernel`` makes ``nmcbounds.bounds.evaluate_kernel`` a second
binding), so cross-module calls are seen too.  Spans are kept in memory
and written out once the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _spectral_counts(args, kwargs, est):
    d = _arg(args, kwargs, 0, "M").dim
    # computed, not measured: one dense d x d product is 2 d^3 flops
    return {"squarings": est.squarings, "gflop": 2.0 * d ** 3 * est.squarings / 1e9}


def _fits(args, kwargs, tv):
    return {"starved_fits": sum(tv.quality_flags), "fits": len(tv.dates) * tv.n_fits}


# layer.function -> counter(args, kwargs, result) -> {counter name: value}, or None
LAYER_FUNCTIONS = {
    "chain.evaluate_kernel": None,
    "chain.validate_kernel": None,
    "chain.stationary": lambda a, kw, res: {"iterations": res.iterations},
    "chain.load_model": None,
    "bounds.full_report": None,
    "bounds.md_alpha": lambda a, kw, res: {"pairs": res.samples},
    "bounds.lipschitz_lambda": lambda a, kw, res: {"pairs": res.samples},
    "bounds.gamma_estimate": None,
    "bounds.delta_estimate": None,
    "coupling.build_coupling_matrix": None,
    "coupling.spectral_radius": _spectral_counts,
    "experiments.tv_envelope": lambda a, kw, res: {
        "start_steps": _arg(a, kw, 1, "trials") * _arg(a, kw, 2, "steps")},
    "experiments.export_report": lambda a, kw, res: {
        "bytes": os.path.getsize(_arg(a, kw, 1, "path"))},
    "signal.load_prices": None,
    "signal.denoise": None,
    "ghmm.fit_window_batch": lambda a, kw, res: {
        "model_epochs": len(_arg(a, kw, 1, "inits")) * _arg(a, kw, 2, "epochs")},
    "ghmm.random_init": None,
    "volatility.tv_volatility": _fits,
    "volatility.transition_tv_bound": None,
    "volatility.fit_garch11": None,
    "volatility.comparison_table": None,
}

# (metric, unit) reported by a traced run, in BENCHMARK.json order
PER_LAYER_METRICS = [
    ("chain.evaluate_kernel.calls", "count"),
    ("chain.evaluate_kernel.busy_s", "s"),
    ("chain.validate_kernel.busy_s", "s"),
    ("chain.stationary.busy_s", "s"),
    ("chain.stationary.iterations", "count"),
    ("chain.load_model.busy_s", "s"),
    ("bounds.full_report.busy_s", "s"),
    ("bounds.full_report.self_s", "s"),
    ("bounds.md_alpha.busy_s", "s"),
    ("bounds.md_alpha.pairs", "count"),
    ("bounds.lipschitz_lambda.busy_s", "s"),
    ("bounds.lipschitz_lambda.pairs", "count"),
    ("bounds.gamma_estimate.busy_s", "s"),
    ("bounds.delta_estimate.busy_s", "s"),
    ("coupling.build_coupling_matrix.calls", "count"),
    ("coupling.build_coupling_matrix.busy_s", "s"),
    ("coupling.spectral_radius.calls", "count"),
    ("coupling.spectral_radius.busy_s", "s"),
    ("coupling.spectral_radius.squarings", "count"),
    ("coupling.spectral_radius.gflop", "GFLOP"),
    ("coupling.spectral_radius.gflop_per_s", "GFLOP/s"),
    ("experiments.tv_envelope.busy_s", "s"),
    ("experiments.tv_envelope.start_steps", "count"),
    ("experiments.export_report.busy_s", "s"),
    ("experiments.export_report.bytes", "bytes"),
    ("signal.load_prices.busy_s", "s"),
    ("signal.denoise.busy_s", "s"),
    ("ghmm.fit_window_batch.calls", "count"),
    ("ghmm.fit_window_batch.busy_s", "s"),
    ("ghmm.fit_window_batch.model_epochs", "count"),
    ("ghmm.random_init.calls", "count"),
    ("ghmm.random_init.busy_s", "s"),
    ("volatility.tv_volatility.busy_s", "s"),
    ("volatility.tv_volatility.self_s", "s"),
    ("volatility.transition_tv_bound.calls", "count"),
    ("volatility.transition_tv_bound.busy_s", "s"),
    ("volatility.fit_garch11.busy_s", "s"),
    ("volatility.comparison_table.busy_s", "s"),
    ("volatility.starved_fit_ratio", "frac"),
    ("cli.main.busy_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.coverage", "frac"),
    ("trace.overhead_frac", "frac"),
]


def rebind(original, replacement) -> int:
    """Replace every binding of ``original`` in loaded nmcbounds modules."""
    hits = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "nmcbounds" or modname.startswith("nmcbounds.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


class Tracer:
    """Span recorder.  Records only while ``round_id`` is set, so the
    output checks that call into the library between rounds leave no
    spans."""

    def __init__(self):
        # (name, start, end, parent index or -1, round id, counters or None)
        self.spans = []
        self._stack = []
        self._wrapped = []   # (qualname, original, traced wrapper)
        self.round_id = None

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            if self.round_id is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.round_id, None)
            if counter is not None:
                self.spans[index] = (name, start, end, parent, self.round_id,
                                     counter(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        """Wrap every function in LAYER_FUNCTIONS under all its bindings."""
        if not self._wrapped:
            for qualname, counter in LAYER_FUNCTIONS.items():
                layer, func = qualname.split(".")
                original = getattr(importlib.import_module(f"nmcbounds.{layer}"), func)
                self._wrapped.append((qualname, original, self.wrap(qualname, original, counter)))
        for qualname, original, traced in self._wrapped:
            if rebind(original, traced) == 0:
                raise RuntimeError(f"no binding found for {qualname}")

    def uninstall(self) -> None:
        """Put the unwrapped functions back, so that untraced rounds run as
        they do with tracing off."""
        for _, original, traced in self._wrapped:
            rebind(traced, original)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, (name, start, end, parent, round_id, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "span": name, "parent": parent, "round": round_id,
                                     "start": start, "end": end, "counts": counts}) + "\n")


def round_layer_metrics(spans, round_wall: float) -> dict:
    """Per-layer metrics of one round from its spans (indices are global).

    Busy time and counts take only the outermost span of each name, so a
    function that recurses into itself is not counted twice.  Self time is
    a span's duration minus its direct children's, which is the part of
    its interval no child covers because spans of one thread nest.
    """
    by_index = dict(spans)
    child_time = defaultdict(float)
    for _, (_, start, end, parent, _, _) in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_time = defaultdict(float)
    counts = defaultdict(float)
    for index, (name, start, end, parent, _, extra) in spans:
        ancestor = parent
        nested = False
        while ancestor >= 0:
            if by_index[ancestor][0] == name:
                nested = True
                break
            ancestor = by_index[ancestor][3]
        if nested:
            continue
        calls[name] += 1
        busy[name] += end - start
        self_time[name] += end - start - child_time[index]
        for key, value in (extra or {}).items():
            counts[f"{name}.{key}"] += value

    out = {}
    for metric, _ in PER_LAYER_METRICS:
        name, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = float(calls[name])
        elif kind == "busy_s":
            out[metric] = busy[name]
        elif kind == "self_s":
            out[metric] = self_time[name]
        else:
            out[metric] = float(counts[metric])   # 0 where the layer did not run
    spectral_busy = busy["coupling.spectral_radius"]
    out["coupling.spectral_radius.gflop_per_s"] = (
        out["coupling.spectral_radius.gflop"] / spectral_busy if spectral_busy > 0 else 0.0)
    fits = counts["volatility.tv_volatility.fits"]
    out["volatility.starved_fit_ratio"] = (
        counts["volatility.tv_volatility.starved_fits"] / fits if fits else 0.0)
    # cli.main is the entry span; coverage is the share of the round's
    # wall time attributed to a library layer below it
    out["trace.coverage"] = (busy["cli.main"] - self_time["cli.main"]) / round_wall
    return out


def layer_metrics(tracer: Tracer, round_walls: dict) -> dict:
    """Median over traced rounds of each per-layer metric except
    trace.overhead_frac, which needs the untraced rounds too."""
    per_round = defaultdict(list)
    for index, span in enumerate(tracer.spans):
        per_round[span[4]].append((index, span))
    rows = [round_layer_metrics(per_round[r], wall) for r, wall in sorted(round_walls.items())]
    return {metric: statistics.median(row[metric] for row in rows)
            for metric, _ in PER_LAYER_METRICS if metric != "trace.overhead_frac"}
