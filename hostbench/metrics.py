"""Metric definitions and the per-layer numbers of one traced pass.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names,
units and directions that ``BENCHMARK.json`` lists; each per-layer
entry also says which end-to-end metric it should move, on which
workload.  A per-layer metric reads 0 on a workload where its layer
does not run (no pool on the inline workloads, no runtime in
``verify_apps``).
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import ROOT, layer_of, self_times

#: name -> (unit, better, bound); README.md says what each one measures.
END_TO_END = {
    "run_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

#: Layers whose self times, plus the unattributed remainder, add up to
#: the traced pass time; each maps to the metric holding its self time.
LAYER_SELF = {
    "runtime": ("runtime.self_s",),
    "shared": ("shared.self_s",),
    "phase": ("phase.commit_s", "phase.collectives_s"),
    "bundling": ("bundling.aggregate_s",),
    "scheduler": ("scheduler.cost_s",),
    "parallel": ("parallel.self_s",),
    "analysis": ("analysis.self_s",),
    "unattributed": ("tracing.unattributed_s",),
}

_RUN = "run_s on cg_fig1"
#: name -> (unit, better, what it should move)
PER_LAYER = {
    "runtime.do_s": ("s", "lower", f"{_RUN} and barneshut"),
    "runtime.self_s": ("s", "lower", f"{_RUN} and barneshut (VP advance plus kernel compute)"),
    "runtime.rounds": ("count", "lower", f"{_RUN}"),
    "runtime.certified_frac": ("ratio", "higher", "run_s on cg_fig1_process"),
    "shared.reads": ("count", "lower", f"{_RUN} (slices) and barneshut (fancy index)"),
    "shared.writes": ("count", "lower", f"{_RUN}"),
    "shared.accumulates": ("count", "lower", f"{_RUN}"),
    "shared.self_s": ("s", "lower", f"{_RUN} and barneshut; driver-only in the cg_fig1_process parent"),
    "shared.ns_per_access": ("ns", "lower", f"{_RUN} and barneshut"),
    "phase.commit_s": ("s", "lower", f"{_RUN}; ~0 on barneshut"),
    "phase.commits": ("count", "lower", f"{_RUN}"),
    "phase.plan_hit_rate": ("ratio", "higher", f"{_RUN}"),
    "phase.copy_bytes": ("bytes", "lower", f"{_RUN}"),
    "phase.copy_s": ("s", "lower", f"{_RUN}"),
    "phase.collectives_s": ("s", "lower", f"{_RUN}"),
    "bundling.aggregate_s": ("s", "lower", f"{_RUN}; parent-serial time on cg_fig1_process"),
    "bundling.calls": ("count", "lower", f"{_RUN}"),
    "bundling.remote_elems": ("count", "lower", f"{_RUN}"),
    "scheduler.cost_s": ("s", "lower", f"{_RUN}"),
    "scheduler.calls": ("count", "lower", f"{_RUN}"),
    "parallel.spawn_s": ("s", "lower", "run_s and cpu_s on cg_fig1_process"),
    "parallel.spawns": ("count", "lower", "run_s and cpu_s on cg_fig1_process"),
    "parallel.roundtrips": ("count", "lower", "run_s on cg_fig1_process"),
    "parallel.round_wait_s": ("s", "lower", "run_s on cg_fig1_process"),
    "parallel.commit_wait_s": ("s", "lower", "run_s on cg_fig1_process"),
    "parallel.parent_serial_s": ("s", "lower", "run_s on cg_fig1_process"),
    "parallel.finish_commit_s": ("s", "lower", "run_s on cg_fig1_process"),
    "parallel.worker_cpu_s": ("s", "lower", "cpu_s on cg_fig1_process"),
    "parallel.worker_busy_frac": ("ratio", "higher", "run_s on cg_fig1_process"),
    "parallel.worker_rss_mb": ("MB", "lower", "none end to end (worker memory)"),
    "parallel.self_s": ("s", "lower", "run_s on cg_fig1_process"),
    "analysis.verify_s": ("s", "lower", "run_s on verify_apps"),
    "analysis.lint_s": ("s", "lower", "run_s on verify_apps"),
    "analysis.bounds_s": ("s", "lower", "run_s on verify_apps"),
    "analysis.liveness_s": ("s", "lower", "run_s on verify_apps"),
    "analysis.findings": ("count", "lower", "none (must equal the recorded set)"),
    "analysis.certify_s": ("s", "lower", "setup_s on cg_fig1_process"),
    "analysis.certify_calls": ("count", "lower", "setup_s on cg_fig1_process"),
    "analysis.self_s": ("s", "lower", "run_s on verify_apps"),
    "obs.trace_ratio": ("ratio", "lower", "nothing today; guards in-program tracing"),
    "obs.events": ("count", "lower", "nothing today; guards in-program tracing"),
    "apps.inputs_s": ("s", "lower", "setup_s on every workload"),
    "apps.serial_s": ("s", "lower", "nothing; host-speed control"),
    "tracing.pass_s": ("s", "lower", "nothing; the traced pass the layers add up to"),
    "tracing.plain_s": ("s", "lower", "nothing; median untraced pass of the traced run"),
    "tracing.overhead_s": ("s", "lower", "nothing; traced minus plain pass time"),
    "tracing.unattributed_s": ("s", "lower", "nothing; pass time outside every layer span"),
}


def percentile_tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it,
    as ``(percentile, value)``, or None while there are too few samples."""
    n = len(samples)
    p = int(100 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return None
    return p, float(np.percentile(samples, p))


def traced_pass_metrics(spans: np.ndarray, names: list[str], counters: dict) -> dict:
    """Per-layer metrics of one traced pass (``spans`` as returned by
    :meth:`spans.SpanRecorder.pass_spans`).  Times are seconds."""
    dur = (spans[:, 3] - spans[:, 2]) * 1e-9
    own = self_times(spans[:, 2], spans[:, 3], spans[:, 4]) * 1e-9
    span_names = [names[c] for c in spans[:, 1].tolist()]
    incl: dict[str, float] = {}
    excl: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer: dict[str, float] = {}
    for name, d, s in zip(span_names, dur.tolist(), own.tolist()):
        incl[name] = incl.get(name, 0.0) + d
        excl[name] = excl.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
        key = "unattributed" if name == ROOT else layer_of(name)
        layer[key] = layer.get(key, 0.0) + s

    def total(table, prefix):
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))

    c = counters.get
    rounds = c("rounds", 0)
    accesses = calls.get("shared.read", 0) + calls.get("shared.write", 0) + calls.get("shared.accumulate", 0)
    hits, misses = c("plan_hits", 0), c("plan_misses", 0)
    do_s = incl.get("runtime.do", 0.0)
    spawns = calls.get("parallel.spawn", 0)
    waits = total(incl, "parallel.wait")
    return {
        "runtime.do_s": do_s,
        "runtime.self_s": layer.get("runtime", 0.0),
        "runtime.rounds": rounds,
        "runtime.certified_frac": c("certified", 0) / rounds if rounds else 0.0,
        "shared.reads": calls.get("shared.read", 0),
        "shared.writes": calls.get("shared.write", 0),
        "shared.accumulates": calls.get("shared.accumulate", 0),
        "shared.self_s": layer.get("shared", 0.0),
        "shared.ns_per_access": layer.get("shared", 0.0) * 1e9 / accesses if accesses else 0.0,
        "phase.commit_s": excl.get("phase.commit", 0.0),
        "phase.commits": calls.get("phase.commit", 0),
        "phase.plan_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "phase.copy_bytes": c("copy_bytes", 0),
        "phase.copy_s": c("copy_s", 0.0),
        "phase.collectives_s": excl.get("phase.collectives", 0.0),
        "bundling.aggregate_s": excl.get("bundling.aggregate", 0.0),
        "bundling.calls": calls.get("bundling.aggregate", 0),
        "bundling.remote_elems": c("remote_elems", 0),
        "scheduler.cost_s": layer.get("scheduler", 0.0),
        "scheduler.calls": total(calls, "scheduler"),
        "parallel.spawn_s": incl.get("parallel.spawn", 0.0),
        "parallel.spawns": spawns,
        "parallel.roundtrips": total(calls, "parallel.wait"),
        "parallel.round_wait_s": incl.get("parallel.wait.round", 0.0),
        "parallel.commit_wait_s": incl.get("parallel.wait.commit", 0.0),
        "parallel.parent_serial_s": do_s - waits if spawns else 0.0,
        "parallel.finish_commit_s": excl.get("parallel.finish_commit", 0.0),
        "parallel.worker_rss_mb": c("worker_rss_mb", 0.0),
        "parallel.self_s": layer.get("parallel", 0.0),
        "analysis.verify_s": incl.get("analysis.verify", 0.0),
        "analysis.lint_s": incl.get("analysis.lint", 0.0),
        "analysis.bounds_s": incl.get("analysis.bounds", 0.0),
        "analysis.liveness_s": incl.get("analysis.liveness", 0.0),
        "analysis.findings": c("findings", 0),
        "analysis.certify_s": incl.get("analysis.certify", 0.0),
        "analysis.certify_calls": calls.get("analysis.certify", 0),
        "analysis.self_s": layer.get("analysis", 0.0),
        "tracing.pass_s": incl.get(ROOT, 0.0),
        "tracing.unattributed_s": layer.get("unattributed", 0.0),
    }


def layer_sum_error(m: dict) -> float:
    """Traced pass time minus the sum of layer self times and the
    unattributed remainder; zero up to float rounding by construction."""
    parts = sum(m[k] for keys in LAYER_SELF.values() for k in keys)
    return m["tracing.pass_s"] - parts


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0
