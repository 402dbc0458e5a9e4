"""The names the benchmark's traced runs rebind (perfbench/spans.py) exist
in the library, wrap and unwrap cleanly, and count what they claim."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from nmcbounds.ghmm import random_inits
from nmcbounds.volatility import VolatilityConfig, tv_volatility
from test_volatility import returns_from

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current_bindings(spans):
    out = {}
    for qualname in spans.LAYER_FUNCTIONS:
        layer, func = qualname.split(".")
        out[qualname] = getattr(importlib.import_module(f"nmcbounds.{layer}"), func)
    return out


def test_tracer_installs_on_every_layer_function_and_uninstalls():
    spans = load_spans()
    originals = current_bindings(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = current_bindings(spans)
        assert all(wrapped[name] is not originals[name] for name in originals)
    finally:
        tracer.uninstall()
    assert all(fn is originals[name] for name, fn in current_bindings(spans).items())


def test_fit_window_batch_counter_counts_slot_epochs():
    spans = load_spans()
    windows = np.random.default_rng(0).standard_normal((2, 40))
    starts = random_inits(windows, 3, np.arange(6, dtype=np.uint64))
    counter = spans.LAYER_FUNCTIONS["ghmm.fit_window_batch"]
    assert counter((np.repeat(windows, 3, axis=0), starts, 7), {}, None) == {"model_epochs": 42}

    # and in a traced run of the indicator: one span per window length
    tracer = spans.Tracer()
    tracer.install()
    cfg = VolatilityConfig(window_lengths=(30, 40), reps=3, seed=2, date_stride=10)
    try:
        tracer.round_id = 0
        tv = importlib.import_module("nmcbounds.volatility").tv_volatility(
            returns_from(np.random.default_rng(1).standard_normal(80) * 0.01), cfg)
    finally:
        tracer.round_id = None
        tracer.uninstall()
    fits = [s for s in tracer.spans if s[0] == "ghmm.fit_window_batch"]
    assert len(fits) == 2
    assert all(s[5] == {"model_epochs": len(tv.dates) * cfg.reps * cfg.epochs} for s in fits)
    assert importlib.import_module("nmcbounds.volatility").tv_volatility is tv_volatility
