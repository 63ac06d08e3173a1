"""In-memory span tracer installed around the package's public functions.

The package imports names directly (``from .cusum import run_suite``), so a
function is wrapped where each calling module looks it up, not where it is
defined.  Every wrapper records a span (id, parent, operation, name, start,
end) and adds the span's self time, its duration minus the time covered by
its child spans, to its layer.  Spans stay in memory and are written out
once, after the traced pass.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from pathlib import Path

import numpy as np


def _engine_name(args, kwargs) -> str:
    # cusum calls prefix_suffix_moments(values, estimator, weights, gamma)
    estimator, family = args[1], args[2]
    if estimator.value == "b_hat":
        return "moments.engine.b_hat"
    return f"moments.engine.beta_{family.tag}"


def _count_engine_rows(tracer, args, kwargs, result) -> None:
    # one prefix pass and one suffix pass, each n rows long
    tracer.counts["moments.engine_rows"] += 2 * np.asarray(args[0]).size


def _count_splits(tracer, args, kwargs, results) -> None:
    for res in results:
        total = res.n - 2 * res.config.r + 1
        tracer.counts["cusum.splits_skipped"] += len(res.skipped_k)
        tracer.counts["cusum.splits_evaluated"] += total - len(res.skipped_k)


def _count_p_zero(tracer, args, kwargs, cdf) -> None:
    if 1.0 - cdf == 0.0:
        tracer.counts["distributions.kolmogorov_p_zero"] += 1


def _count_suite_attempt(tracer, args, kwargs, results) -> None:
    tracer.counts["montecarlo.suite_attempts"] += 1
    _count_splits(tracer, args, kwargs, results)


def _count_fallback_test(tracer, args, kwargs, result) -> None:
    _count_splits(tracer, args, kwargs, [result])


# (module, attribute looked up by that module, span name, hook on success, counters on raise)
WRAPPED = (
    ("bmchange.cli", "run_suite", "cusum.run_suite", _count_splits, None),
    ("bmchange.detie", "run_suite", "cusum.run_suite", _count_splits, None),
    ("bmchange.montecarlo", "run_suite", "cusum.run_suite", _count_suite_attempt,
     ("montecarlo.suite_attempts", "montecarlo.group_fallbacks")),
    ("bmchange.montecarlo", "run_test", "cusum.run_suite", _count_fallback_test, None),
    ("bmchange.montecarlo", "run_scenario", "montecarlo.run_scenario", None, None),
    ("bmchange.montecarlo", "mean_cusum", "baselines.cusum", None, None),
    ("bmchange.montecarlo", "variance_cusum", "baselines.cusum", None, None),
    ("bmchange.distributions", "sample_gev", "distributions.sample", None, None),
    ("bmchange.cusum", "kolmogorov_cdf", "distributions.kolmogorov", _count_p_zero, None),
    ("bmchange.baselines", "kolmogorov_cdf", "distributions.kolmogorov", _count_p_zero, None),
    ("bmchange.cusum", "recenter", "cusum.recenter", None, None),
    ("bmchange.cusum", "pseudo_observations", "cusum.pseudo_obs", None, None),
    ("bmchange.cusum", "prefix_suffix_moments", _engine_name, _count_engine_rows, None),
    ("bmchange.cusum", "b_hat", "moments.full_sample", None, None),
    ("bmchange.cusum", "beta_hat", "moments.full_sample", None, None),
    ("bmchange.detie", "b_hat", "moments.full_sample", None, None),
    ("bmchange.cusum", "in_dxi_rows", "moments.mask", None, None),
    ("bmchange.cusum", "in_dh_rows", "moments.mask", None, None),
    ("bmchange.gev_maps", "in_dxi_rows", "moments.mask", None, None),
    ("bmchange.cusum", "approx_map_rows", "gev_maps.approx_rows", None, None),
    ("bmchange.cusum", "jacobian", "gev_maps.jacobian", None, None),
    ("bmchange.cusum", "map_triple", "gev_maps.map_triple", None, None),
    ("bmchange.detie", "map_triple", "gev_maps.map_triple", None, None),
    ("bmchange.detie", "detie_replicate", "detie.jitter", None, None),
    ("bmchange.detie", "load_csv", "detie.load_csv", None, None),
    ("bmchange.detie", "detie_report", "detie.report", None, None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        frame = [name, time.perf_counter_ns(), 0, len(self.spans) + len(self._stack), parent]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, child, sid, parent = frame
        self.self_ns[name] += end - start - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += end - start
        self.spans.append((sid, parent, self.op, name, start, end))

    def _wrap(self, fn, name, on_result, on_raise):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(frame)
                for counter in on_raise or ():
                    tracer.counts[counter] += 1
                raise
            tracer.close(frame)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        for module_name, attr, name, on_result, on_raise in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, on_result, on_raise))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_s(self, name: str) -> float:
        return self.self_ns[name] / 1e9

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,op,name,start_ns,end_ns\n")
            for span in sorted(self.spans):
                fh.write(",".join(str(v) for v in span) + "\n")
