"""Per-layer tracing of ``qmu`` from outside the package.

A :class:`Tracer` replaces the public functions named in :data:`LAYERS` by
timing wrappers in every ``qmu`` module namespace that binds them (a function
imported by name into another module is called through that module's
binding), and restores the originals on exit.  Each wrapped call is a span;
a layer's self time is its spans' time minus the time of the spans nested
directly inside them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# layer (qmu module) -> public callables timed from outside.  "Cls" stands for
# construction (the class's __init__), "Cls.method" for a method.
LAYERS = {
    "opalg": ("eig_hermitian", "check_density", "check_unitary"),
    "observables": (
        "Observable", "spectral_measure", "distribution_of", "moment_operator",
        "product_biobservable", "smear",
    ),
    "schemes": ("MeasurementScheme", "induced_observable"),
    "distributions": ("w2_quantile", "make_distribution", "convolve", "w2_lp_oracle"),
    "errmetrics": (
        "eps_no_from_scheme", "eta_no_from_scheme", "eps_no_from_moments",
        "three_state_eps", "worst_case_deviation", "calibration_error", "error_report",
    ),
    "relations": (
        "check_ozawa", "check_branciard_scheme", "check_branciard_joint",
        "check_unbiased_tradeoffs", "qubit_epsno_sum_check", "qubit_joint_feasible",
        "qubit_error_bound",
    ),
    "grid": (
        "VonNeumannModel.to_scheme", "position_observable", "position_distribution",
        "phase_space_marginals", "apply_oscillator",
    ),
    "scenarios": (
        "run_scenario", "ozawa_branciard_suite", "eps_form_equivalence_suite",
        "unbiased_model_suite", "epsno_sum_suite",
    ),
    "serialize": ("dumps_json", "read_distribution_csv", "write_coupling_csv"),
    "cli": ("main",),
}

# Counts taken at a layer boundary, each reported per call of the function
# named before the last dot, with its unit.
EXTRA_COUNTS = {
    "distributions.w2_quantile.points": ("distributions.w2_quantile", "points/call"),
    "errmetrics.worst_case_deviation.w2_calls": ("errmetrics.worst_case_deviation", "calls/sup"),
    "serialize.write_coupling_csv.cells": ("serialize.write_coupling_csv", "cells/call"),
    "serialize.write_coupling_csv.rows": ("serialize.write_coupling_csv", "rows/call"),
}

SETUP_METRICS = ("setup.import_ms", "setup.inputs_ms", "setup.warmup_ms")


class Tracer:
    """Context manager that times the ``LAYERS`` callables while active."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[list[float]] = []
        self._open = defaultdict(int)  # span name -> nesting depth
        self._patched: list[tuple[object, str, object]] = []

    def reset(self):
        self.calls.clear()
        self.seconds.clear()
        self.self_seconds.clear()
        self.counts.clear()

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qmu" or name.startswith("qmu."))]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"qmu.{layer}"]
            for fn in functions:
                owner_name, _, method = fn.partition(".")
                if fn[0].isupper():
                    cls = getattr(home, owner_name)
                    attr = method or "__init__"
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, original, self._wrap(f"{layer}.{fn}", layer, original))
                    continue
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _count(self, name, args):
        if name == "distributions.w2_quantile":
            mu, nu = args[:2]
            self.counts["distributions.w2_quantile.points"] += mu.support.size + nu.support.size
            if self._open["errmetrics.worst_case_deviation"]:
                self.counts["errmetrics.worst_case_deviation.w2_calls"] += 1
        elif name == "serialize.write_coupling_csv":
            weights = args[0].weights
            self.counts["serialize.write_coupling_csv.cells"] += weights.size
            self.counts["serialize.write_coupling_csv.rows"] += int(np.count_nonzero(weights > 0))

    def _wrap(self, name, layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._count(name, args)
            children = [0.0]
            tracer._stack.append(children)
            tracer._open[name] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._open[name] -= 1
                tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.seconds[name] += elapsed
                tracer.self_seconds[layer] += elapsed - children[0]
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed

        return traced

    def metrics(self, items: int, setup_ms: dict) -> dict:
        """Per-layer figures: calls and times per item, extra counts per call."""
        per_item = 1.0 / max(items, 1)
        out = {}
        for layer, functions in LAYERS.items():
            for fn in functions:
                name = f"{layer}.{fn}"
                out[f"{name}.calls"] = (self.calls[name] * per_item, "calls/item")
                out[f"{name}.ms"] = (self.seconds[name] * 1e3 * per_item, "ms/item")
            out[f"{layer}.self_ms"] = (self.self_seconds[layer] * 1e3 * per_item, "ms/item")
        for metric, (fn, unit) in EXTRA_COUNTS.items():
            out[metric] = (self.counts[metric] / max(self.calls[fn], 1), unit)
        for metric in SETUP_METRICS:
            out[metric] = (setup_ms[metric], "ms")
        return out
