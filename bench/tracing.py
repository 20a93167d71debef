"""Span tracing of the d2dcache layers from outside the package.

`Tracer.install` replaces every public function attribute of the given
modules with a wrapper that records one span per call: name, start, end,
parent span and the answer the call belongs to. A function that one module
imports from another is replaced in every namespace that holds it, so a call
made through `experiments.solve_p1` or `optimizer.offloading_closed_form_k1`
is recorded like a direct one. `Tracer.remove` restores the originals.

Hooks, keyed by span name, run after a call returns and attach work counts
to its span (points evaluated, trials, k_max, solver notes). They must call
only unwrapped functions, so they add no spans of their own.

`layer_metrics` reduces the spans of a traced phase to the per-layer metrics
declared in BENCHMARK.json. Counts and busy times are per round of the
workload; a layer that a workload never calls reports 0.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
import types
from collections import defaultdict
from contextlib import contextmanager

ANSWER_SPAN = "bench.answer"


class Span:
    __slots__ = ("name", "start", "end", "parent", "answer", "info")

    def __init__(self, name, parent, answer):
        self.name = name
        self.parent = parent
        self.answer = answer
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "answer": self.answer, "info": self.info}


class Tracer:
    """Records spans for calls into the public functions of `modules`."""

    def __init__(self, modules, hooks=None):
        self.modules = list(modules)
        self.hooks = dict(hooks or {})
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._answer = None
        self._patched: list[tuple] = []

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, self._answer))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def _wrap(self, name, fn):
        hook = self.hooks.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(index)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = hook(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith("d2dcache.")):
                    continue
                if value not in wrappers:
                    layer = value.__module__.rsplit(".", 1)[-1]
                    wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def answer(self, answer_id: str):
        """Root span of one answer; calls inside it carry its id."""
        self._answer = answer_id
        index = self._open(ANSWER_SPAN)
        try:
            yield
        finally:
            self._close(index)
            self._answer = None


def _ancestor_names(spans, span):
    names = []
    while span.parent is not None:
        span = spans[span.parent]
        names.append(span.name)
    return names


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer metrics of one traced phase of `rounds` rounds."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span.name].append(index)

    def calls(name):
        return [spans[i] for i in by_name[name]]

    def per_round(value):
        return value / rounds

    def busy(name):
        # outermost calls only, so a re-entrant call is not counted twice
        return sum(s.duration for s in calls(name)
                   if name not in _ancestor_names(spans, s))

    def self_time(name):
        return sum(spans[i].duration - child_time[i] for i in by_name[name])

    def info_sum(name, key):
        return sum(s.info[key] for s in calls(name))

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    coverage = calls("analytic.coverage_content")
    gains = calls("analytic.offloading_gain")
    sims = calls("simulator.estimate_coverage")
    offloads = calls("simulator.estimate_offloading")
    solves = calls("optimizer.solve_p1")
    model_busy = sum(
        s.duration for s in spans
        if s.name.startswith("model.")
        and not any(n.startswith("model.") for n in _ancestor_names(spans, s))
    )

    def solve_p50(n_files):
        times = [s.duration for s in solves if s.info["n_files"] == n_files]
        return statistics.median(times) if times else 0.0

    return {
        "analytic.laplace_fn_exact.calls": per_round(len(calls("analytic.laplace_fn_exact"))),
        "analytic.laplace_fn_exact.busy_s": per_round(busy("analytic.laplace_fn_exact")),
        "analytic.zeta_kernel.s_per_point": ratio(
            busy("analytic.zeta_kernel"), info_sum("analytic.zeta_kernel", "points")),
        "analytic.laplace_exact.s_per_point": ratio(
            busy("analytic.laplace_exact"), info_sum("analytic.laplace_exact", "points")),
        "analytic.coverage_content.self_s": per_round(self_time("analytic.coverage_content")),
        "analytic.coverage_content.calls": per_round(len(coverage)),
        "analytic.coverage_content.qmc_points": per_round(
            info_sum("analytic.coverage_content", "qmc_points")),
        "analytic.coverage_content.err_max": max(
            (s.info["numerical_error"] for s in coverage), default=0.0),
        "analytic.offloading_gain.coverage_calls_per_gain": ratio(
            sum("analytic.offloading_gain" in _ancestor_names(spans, s) for s in coverage),
            len(gains)),
        "analytic.offloading_closed_form_k1.calls": per_round(
            len(calls("analytic.offloading_closed_form_k1"))),
        "analytic.offloading_closed_form_k1.busy_s": per_round(
            busy("analytic.offloading_closed_form_k1")),
        "simulator.estimate_coverage.busy_s": per_round(busy("simulator.estimate_coverage")),
        "simulator.estimate_coverage.s_per_trial": ratio(
            busy("simulator.estimate_coverage"),
            info_sum("simulator.estimate_coverage", "trials")),
        "simulator.estimate_coverage.var_per_trial": statistics.fmean(
            [s.info["var_per_trial"] for s in sims]) if sims else 0.0,
        "simulator.interferers_per_trial": statistics.fmean(
            [s.info["interferers_per_trial"] for s in sims + offloads])
        if sims or offloads else 0.0,
        "simulator.estimate_offloading.busy_s": per_round(busy("simulator.estimate_offloading")),
        "simulator.estimate_offloading.calls": per_round(len(offloads)),
        "simulator.estimate_offloading.trials_per_requested": ratio(
            info_sum("simulator.estimate_offloading", "trials"),
            info_sum("simulator.estimate_offloading", "requested")),
        "optimizer.solve_p1.self_s": per_round(self_time("optimizer.solve_p1")),
        "optimizer.solve_p1.n100.p50_s": solve_p50(100),
        "optimizer.solve_p1.max_s": max((s.duration for s in solves), default=0.0),
        "optimizer.solve_p1.restarts": per_round(info_sum("optimizer.solve_p1", "restarts")),
        "optimizer.solve_p1.unconverged": per_round(
            info_sum("optimizer.solve_p1", "unconverged")),
        "optimizer.solve_p1.stationarity_max": max(
            (s.info["stationarity_max"] for s in solves), default=0.0),
        "optimizer.solve_p1.baseline_margin_min": min(
            (s.info["baseline_margin"] for s in solves), default=0.0),
        "cli.load_config.busy_s": per_round(busy("cli.load_config")),
        "cli.emit_results.busy_s": per_round(busy("cli.emit_results")),
        "experiments.run_experiment.self_s": per_round(self_time("experiments.run_experiment")),
        "model.busy_s": per_round(model_busy),
    }
