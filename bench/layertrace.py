"""Spans and counters around gaitbo's layers, recorded from outside the package.

Each layer function is replaced at every name that binds it: its home module,
each module that imported it with ``from .module import name``, and the
package root. A call through any of those names opens a span, so spans nest
the way the calls do (``bo.optimize`` > ``gp.fit_hyper`` > ``gp.fit``).
Nothing under ``src/`` is edited, and leaving ``tracing`` puts every original
function back.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import logging
import os
import sys
import time

ROOT = "iteration"
FALLBACK_MESSAGE = "no candidate clears the feasibility threshold"
# gp.fit starts its jitter at this multiple of signal_std**2 and doubles it on
# each failed factorization, so a larger returned jitter means a retry.
JITTER_START = 1e-10


class Tracer:
    """Spans kept in memory as [name, start, end, parent index], plus counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self._open: list = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def summary(self) -> dict:
        """Per span name: calls, inclusive busy seconds, and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so self times over all spans add up to the root spans.
        """
        out: dict = {}
        child_time = [0.0] * len(self.spans)
        durations = [end - start for _, start, end, _ in self.spans]
        for (_, _, _, parent), duration in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += duration
        for (name, *_), duration, inner in zip(self.spans, durations, child_time):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += duration
            entry["self_s"] += duration - inner
        return out


def _arguments(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _observe_episode(counts, fn, args, kwargs, traj):
    counts["plant.episodes"] += 1
    counts["plant.falls"] += bool(traj.fell)
    counts["plant.steps"] += len(traj) - 1


def _observe_fit(counts, fn, args, kwargs, model):
    counts["gp.fit.points"] += model.n_points
    counts["gp.fit.jitter_retries"] += model.jitter > JITTER_START * model.hyper.signal_std ** 2


def _observe_posterior(counts, fn, args, kwargs, result):
    points = len(result[0])
    counts["gp.posterior_batch.points"] += points
    counts["gp.posterior_batch.single_point_calls"] += points == 1


def _observe_propose(counts, fn, args, kwargs, result):
    bound = _arguments(fn, args, kwargs)
    counts["bo.propose.constrained_calls"] += (
        bound["h_model"] is not None and bound["spec"] is not None)


def _observe_optimize(counts, fn, args, kwargs, result):
    counts["bo.evaluations"] += len(result.history)


def _observe_sweep(counts, fn, args, kwargs, sweep):
    counts["safeset.sweep_commands.commands"] += len(sweep.grid)
    counts["safeset.sweep_commands.feasible"] += len(sweep.feasible_commands)


def _observe_hull(counts, fn, args, kwargs, poly):
    counts["safeset.convex_hull.vertices"] += poly.vertices.shape[0]
    counts["safeset.convex_hull.faces"] += len(poly.faces)


def _observe_artifact(counts, fn, args, kwargs, result):
    counts["pipeline.artifacts.bytes"] += os.path.getsize(_arguments(fn, args, kwargs)["path"])


# (span name, home module, function, observer). Several functions may share a
# span name; an observer counts work from the call's arguments and result.
LAYERS = (
    ("plant.run_episode", "gaitbo.plant", "run_episode", _observe_episode),
    ("plant.step", "gaitbo.plant", "step", None),
    ("plant.regulator_output", "gaitbo.plant", "regulator_output", None),
    ("scheduler.lookup", "gaitbo.scheduler", "lookup", None),
    ("scheduler.apply_corrections", "gaitbo.scheduler", "apply_corrections", None),
    ("objective.evaluate_cost", "gaitbo.objective", "evaluate_cost", None),
    ("objective.converged_stats", "gaitbo.objective", "converged_stats", None),
    ("gp.fit", "gaitbo.gp", "fit", _observe_fit),
    ("gp.fit_hyper", "gaitbo.gp", "fit_hyper", None),
    ("gp.posterior_batch", "gaitbo.gp", "posterior_batch", _observe_posterior),
    ("gp.adaptive_std_scale", "gaitbo.gp", "adaptive_std_scale", None),
    ("bo.optimize", "gaitbo.bo", "optimize", _observe_optimize),
    ("bo.propose", "gaitbo.bo", "propose", _observe_propose),
    ("safeset.sweep_commands", "gaitbo.safeset", "sweep_commands", _observe_sweep),
    ("safeset.convex_hull", "gaitbo.safeset", "convex_hull", _observe_hull),
    ("safeset.constraint_value", "gaitbo.safeset", "constraint_value", None),
    ("pipeline.learn_sim", "gaitbo.pipeline", "learn_sim", None),
    ("pipeline.extract_safe_set", "gaitbo.pipeline", "extract_safe_set", None),
    ("pipeline.learn_real", "gaitbo.pipeline", "learn_real", None),
    ("pipeline.benchmark", "gaitbo.pipeline", "benchmark", None),
    ("pipeline.artifacts", "gaitbo.bo", "write_run_log", _observe_artifact),
    ("pipeline.artifacts", "gaitbo.scheduler", "save_table", _observe_artifact),
    ("pipeline.artifacts", "gaitbo.safeset", "save_polyhedron", _observe_artifact),
    ("pipeline.artifacts", "gaitbo.pipeline", "save_benchmark", _observe_artifact),
)


def _wrap(tracer: Tracer, name: str, fn, observe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if observe is not None:
            observe(tracer.counts, fn, args, kwargs, result)
        return result

    return traced


class _FallbackCounter(logging.Handler):
    def __init__(self, counts):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        if record.getMessage().startswith(FALLBACK_MESSAGE):
            self.counts["bo.propose.fallbacks"] += 1


def bindings() -> list:
    """Every (module, attribute, span name, observer) binding a layer function.

    A layer function the package no longer defines is skipped; its span then
    has no calls.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "gaitbo" or n.startswith("gaitbo."))]
    found = []
    for name, home, attr, observe in LAYERS:
        fn = getattr(sys.modules.get(home), attr, None)
        if fn is None:
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    found.append((module, key, name, observe))
    return found


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Route every layer call through a span of ``tracer`` while inside."""
    saved = []
    handler = _FallbackCounter(tracer.counts)
    bo_logger = logging.getLogger("gaitbo.bo")
    try:
        for module, key, name, observe in bindings():
            fn = getattr(module, key)
            saved.append((module, key, fn))
            setattr(module, key, _wrap(tracer, name, fn, observe))
        bo_logger.addHandler(handler)
        yield tracer
    finally:
        bo_logger.removeHandler(handler)
        for module, key, fn in reversed(saved):
            setattr(module, key, fn)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced iteration, 0 for a layer never called."""
    spans = tracer.summary()
    counts = tracer.counts
    out = {}

    def span(name, *fields):
        entry = spans.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for field in fields:
            out[f"{name}.{field}"] = entry[field]
        return entry

    def ratio(num, den):
        return num / den if den else 0.0

    span("plant.run_episode", "calls", "busy_s", "self_s")
    span("plant.step", "calls", "busy_s")
    span("plant.regulator_output", "calls", "busy_s")
    out["plant.steps"] = counts["plant.steps"]
    out["plant.fall_frac"] = ratio(counts["plant.falls"], counts["plant.episodes"])
    span("scheduler.lookup", "calls", "busy_s")
    span("scheduler.apply_corrections", "calls", "busy_s")
    span("objective.evaluate_cost", "calls", "busy_s")
    span("objective.converged_stats", "calls", "busy_s")
    fit = span("gp.fit", "calls", "busy_s")
    out["gp.fit.mean_points"] = ratio(counts["gp.fit.points"], fit["calls"])
    out["gp.fit.jitter_retries"] = counts["gp.fit.jitter_retries"]
    span("gp.fit_hyper", "calls", "busy_s")
    span("gp.posterior_batch", "calls", "busy_s")
    out["gp.posterior_batch.points"] = counts["gp.posterior_batch.points"]
    out["gp.posterior_batch.single_point_calls"] = counts["gp.posterior_batch.single_point_calls"]
    span("gp.adaptive_std_scale", "calls", "busy_s")
    span("bo.optimize", "calls", "busy_s", "self_s")
    span("bo.propose", "calls", "busy_s")
    out["bo.propose.constrained_calls"] = counts["bo.propose.constrained_calls"]
    out["bo.propose.fallbacks"] = counts["bo.propose.fallbacks"]
    out["bo.evaluations"] = counts["bo.evaluations"]
    span("safeset.sweep_commands", "calls", "busy_s")
    out["safeset.sweep_commands.commands"] = counts["safeset.sweep_commands.commands"]
    out["safeset.sweep_commands.feasible_frac"] = ratio(
        counts["safeset.sweep_commands.feasible"], counts["safeset.sweep_commands.commands"])
    span("safeset.convex_hull", "calls", "busy_s")
    out["safeset.convex_hull.vertices"] = counts["safeset.convex_hull.vertices"]
    out["safeset.convex_hull.faces"] = counts["safeset.convex_hull.faces"]
    span("safeset.constraint_value", "calls", "busy_s")
    for phase in ("learn_sim", "extract_safe_set", "learn_real", "benchmark"):
        span(f"pipeline.{phase}", "busy_s", "self_s")
    span("pipeline.artifacts", "busy_s")
    out["pipeline.artifacts.bytes"] = counts["pipeline.artifacts.bytes"]
    return out
