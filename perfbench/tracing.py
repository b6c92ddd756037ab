"""Span and counter tracing of yamabeflow's public functions, from outside the package.

Each wrapper is installed in the module namespace where the caller looks the
function up (``flow.run`` calls ``step`` through ``yamabeflow.flow``, the CLI
calls ``write_field`` through ``yamabeflow.snapshots``, and so on), so the
package itself is never edited.  Wrappers are installed only around a traced
repetition and removed afterwards, so untraced repetitions run the package
exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import time
from collections import Counter

from yamabeflow import cli, diagnostics, flow, hypotheses, scenario, snapshots, spectral


class Tracer:
    """Spans ``(name, start, end, parent)`` plus counters, kept in memory for one repetition."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent)

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(self.counts, args, kwargs, out)
            return out

        return wrapper

    def patch(self, module, attr, wrapper):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        _install(self)
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._patched):
                setattr(module, attr, original)
            self._patched.clear()

    def summary(self) -> tuple[dict, dict, dict]:
        """Per-name call counts, total seconds and self seconds."""
        calls, total, child = Counter(), Counter(), Counter()
        for name, t0, t1, parent in self.spans:
            calls[name] += 1
            total[name] += t1 - t0
            if parent >= 0:
                child[self.spans[parent][0]] += t1 - t0
        self_s = {name: total[name] - child[name] for name in total}
        return calls, total, self_s


def _file_bytes(key):
    def after(counts, args, kwargs, out):
        counts[key] += os.path.getsize(args[0])

    return after


def _csv_bytes(counts, args, kwargs, out):
    counts["cli.csv.bytes"] += len(out.encode()) + 1  # plus the newline the CLI appends


def _step_after(counts, args, kwargs, out):
    requested = args[2] if len(args) > 2 else kwargs["dt"]
    if out.dt_last < requested:
        counts["flow.step.dt_halvings"] += 1


def _eigen_after(counts, args, kwargs, out):
    counts["spectral.dirichlet_eigen.outer_iters"] += out.iterations


def _install(tr: Tracer):
    # flow.run sees step, stable_dt and energy as flow-module globals.
    tr.patch(flow, "step", tr.wrap("flow.step", flow.step, _step_after))
    tr.patch(flow, "stable_dt", tr.wrap("flow.stable_dt", flow.stable_dt))
    tr.patch(flow, "energy", tr.wrap("operators.energy", flow.energy))

    run = flow.run

    @functools.wraps(run)
    def traced_run(*args, **kwargs):
        for key in ("on_record", "on_checkpoint"):
            if kwargs.get(key) is not None:
                kwargs[key] = tr.wrap("flow.run.callbacks", kwargs[key])
        with tr.span("flow.run"):
            return run(*args, **kwargs)

    tr.patch(flow, "run", traced_run)

    eigen = tr.wrap("spectral.dirichlet_eigen", spectral.dirichlet_eigen, _eigen_after)
    for module in (spectral, hypotheses, cli):
        tr.patch(module, "dirichlet_eigen", eigen)

    cg = spectral.cg

    @functools.wraps(cg)
    def traced_cg(*args, **kwargs):
        inner = kwargs.get("callback")

        def count_iteration(xk):
            tr.counts["spectral.cg.inner_iters"] += 1
            if inner is not None:
                inner(xk)

        kwargs["callback"] = count_iteration
        with tr.span("spectral.cg"):
            x, info = cg(*args, **kwargs)
        if info != 0:
            tr.counts["spectral.cg.info_nonzero"] += 1
        return x, info

    tr.patch(spectral, "cg", traced_cg)

    for name in ("check_h1", "evaluate_hypotheses", "build_supersolution", "verify_supersolution"):
        tr.patch(hypotheses, name, tr.wrap(f"hypotheses.{name}", getattr(hypotheses, name)))

    for name in ("write_field", "read_field", "write_sidecar", "read_sidecar"):
        key = f"snapshots.{name}"
        tr.patch(snapshots, name, tr.wrap(key, getattr(snapshots, name), _file_bytes(f"{key}.bytes")))

    for name in ("_csv_header", "_csv_row"):
        tr.patch(cli, name, tr.wrap("cli.csv", getattr(cli, name), _csv_bytes))

    main = cli.main

    @functools.wraps(main)
    def traced_main(argv=None):
        with tr.span(f"cli.main.{argv[0]}"):
            return main(argv)

    tr.patch(cli, "main", traced_main)

    load = tr.wrap("scenario.load_scenario", scenario.load_scenario)
    for module in (scenario, cli):
        tr.patch(module, "load_scenario", load)

    for name in ("envelope_check", "dissipation_identity_error", "decay_check"):
        tr.patch(diagnostics, name, tr.wrap(f"diagnostics.{name}", getattr(diagnostics, name)))


COUNT_KEYS = (
    "flow.step.dt_halvings",
    "spectral.dirichlet_eigen.outer_iters",
    "spectral.cg.inner_iters",
    "spectral.cg.info_nonzero",
    "snapshots.write_field.bytes",
    "snapshots.read_field.bytes",
    "snapshots.write_sidecar.bytes",
    "snapshots.read_sidecar.bytes",
    "cli.csv.bytes",
)

CALL_SPANS = (
    "flow.step",
    "flow.stable_dt",
    "operators.energy",
    "spectral.dirichlet_eigen",
    "spectral.cg",
    "snapshots.write_field",
    "snapshots.read_field",
    "snapshots.write_sidecar",
    "snapshots.read_sidecar",
    "diagnostics.decay_check",
)

TIME_SPANS = CALL_SPANS + (
    "hypotheses.check_h1",
    "hypotheses.evaluate_hypotheses",
    "hypotheses.build_supersolution",
    "hypotheses.verify_supersolution",
    "cli.main.run",
    "cli.main.resume",
    "cli.main.verify",
    "scenario.load_scenario",
    "diagnostics.envelope_check",
    "diagnostics.dissipation_identity_error",
)


def rep_layers(tr: Tracer) -> tuple[dict, dict, list[float]]:
    """Counts and seconds of one traced repetition, plus its step durations in ms."""
    calls, total, self_s = tr.summary()
    counts = {f"{name}.calls": calls[name] for name in CALL_SPANS}
    counts.update({key: tr.counts[key] for key in COUNT_KEYS})
    seconds = {f"{name}.time_s": total[name] for name in TIME_SPANS}
    seconds["flow.run.self_s"] = self_s.get("flow.run", 0.0)
    steps_ms = [(t1 - t0) * 1e3 for name, t0, t1, _ in tr.spans if name == "flow.step"]
    return counts, seconds, steps_ms


def merge_layers(reps: list[tuple[dict, dict, list[float]]]) -> dict:
    """Counts from the first traced repetition, medians of the seconds, pooled step percentiles."""
    counts = dict(reps[0][0])
    seconds = {key: statistics.median(r[1][key] for r in reps) for key in reps[0][1]}
    steps_ms = [d for r in reps for d in r[2]]
    if len(steps_ms) >= 2:
        cuts = statistics.quantiles(steps_ms, n=100)
        p50, p99 = statistics.median(steps_ms), cuts[98]
    else:
        p50 = p99 = steps_ms[0] if steps_ms else 0.0
    return {**counts, **seconds, "flow.step.p50_ms": p50, "flow.step.p99_ms": p99}
