"""Span wrappers around the runtime's layer boundaries, installed from
outside the program for the traced run only.

:func:`installed` patches each attribute in :data:`WRAP_POINTS` with a
wrapper that records a span (and, for a few, counters) into a
:class:`~spans.SpanRecorder`, and restores every original object on
exit.  The untraced run never enters it, so it executes the unmodified
program.  Worker processes forked while the wrappers are installed put
the originals back first thing, so workers run unmodified too and their
spans never mix into the parent's.
"""

from __future__ import annotations

import importlib
import os
from contextlib import contextmanager

#: ``(module, class or None, attribute, span name)``.  Functions are
#: wrapped where the caller looks them up: ``aggregate_traffic`` and the
#: scheduler's cost functions as bound in ``repro.core.runtime``, the
#: analysis passes in the modules their callers import them from at call
#: time.
WRAP_POINTS = (
    ("repro.core.runtime", "PpmRuntime", "do", "runtime.do"),
    ("repro.core.shared", "GlobalShared", "__getitem__", "shared.read"),
    ("repro.core.shared", "GlobalShared", "__setitem__", "shared.write"),
    ("repro.core.shared", "GlobalShared", "accumulate", "shared.accumulate"),
    ("repro.core.shared", "NodeShared", "__getitem__", "shared.read"),
    ("repro.core.shared", "NodeShared", "__setitem__", "shared.write"),
    ("repro.core.shared", "NodeShared", "accumulate", "shared.accumulate"),
    ("repro.core.phase", "PhaseRecorder", "apply_writes", "phase.commit"),
    ("repro.core.phase", "PhaseRecorder", "resolve_collectives", "phase.collectives"),
    ("repro.core.runtime", None, "aggregate_traffic", "bundling.aggregate"),
    ("repro.core.runtime", None, "node_comm_cost", "scheduler.comm_cost"),
    ("repro.core.runtime", None, "node_compute_time", "scheduler.compute_time"),
    ("repro.core.runtime", None, "compose_phase_timing", "scheduler.timing"),
    ("repro.parallel.pool", "WorkerPool", "__init__", "parallel.spawn"),
    ("repro.parallel.pool", "WorkerPool", "roundtrip", "parallel.wait"),
    ("repro.parallel.pool", "WorkerPool", "close", "parallel.close"),
    ("repro.parallel.backend", "ProcessBackend", "finish_commit", "parallel.finish_commit"),
    ("repro.analysis.certify", None, "certificate_for", "analysis.certify"),
    ("repro.analysis.dataflow", None, "verify_paths", "analysis.verify"),
    ("repro.analysis.lint", None, "lint_paths", "analysis.lint"),
    ("repro.analysis.bounds", None, "check_bounds_and_shapes", "analysis.bounds"),
    ("repro.analysis.liveness", None, "analyze_liveness", "analysis.liveness"),
)

#: Round-trip tags whose wait is reported on its own; every other tag
#: (init, do_start, prologue, do_end) is ``parallel.wait.other``.
WAIT_TAGS = ("round", "commit")

#: Patch lists currently installed, undone in forked children.
_ACTIVE: list[list] = []
_fork_hook_registered = False


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


def original(module: str, cls: str | None, attr: str):
    """The object a wrap point resolves to when nothing is installed."""
    return vars(_owner(module, cls))[attr]


def _runtime_stats(rt) -> dict[str, float]:
    hits = misses = 0
    if rt.commit_plans is not None:
        hits, misses = rt.commit_plans.stats()
    backend = rt._backend
    if backend is not None:
        hits += backend.plan_hits
        misses += backend.plan_misses
    return {
        "rounds": rt.stats_global_phases + rt.stats_node_phases,
        "certified": rt.stats_certified_phases,
        "plan_hits": hits,
        "plan_misses": misses,
        "copy_bytes": rt.stats_commit_copy_bytes,
        "copy_s": rt.stats_commit_copy_s,
    }


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _wrapper(rec, name: str, fn):
    """The span wrapper for one wrap point, with the counters the
    per-layer metrics need beyond span counts and times."""
    traced = rec.wrap(name, fn)
    if name == "runtime.do":

        def do(rt, *args, **kwargs):
            before = _runtime_stats(rt)
            try:
                return traced(rt, *args, **kwargs)
            finally:
                for key, value in _runtime_stats(rt).items():
                    rec.count(key, value - before[key])

        return do
    if name == "bundling.aggregate":

        def aggregate(*args, **kwargs):
            traffic = traced(*args, **kwargs)
            rec.count(
                "remote_elems",
                sum(nt.remote_read_elems + nt.remote_write_elems for nt in traffic.values()),
            )
            return traffic

        return aggregate
    if name == "parallel.wait":
        by_tag = {tag: rec.wrap(f"{name}.{tag}", fn) for tag in WAIT_TAGS}
        other = rec.wrap(f"{name}.other", fn)

        def roundtrip(pool, tag, *args, **kwargs):
            return by_tag.get(tag, other)(pool, tag, *args, **kwargs)

        return roundtrip
    if name == "parallel.close":

        def close(pool, *args, **kwargs):
            for proc in pool._procs:
                if proc.pid is not None:
                    rec.maximum("worker_rss_mb", _vm_hwm_mb(proc.pid))
            return traced(pool, *args, **kwargs)

        return close
    if name in ("analysis.verify", "analysis.lint"):

        def analysis(*args, **kwargs):
            result = traced(*args, **kwargs)
            diags = result[0] if name == "analysis.verify" else result
            rec.count("findings", len(diags))
            return result

        return analysis
    return traced


def _restore(patches: list) -> None:
    for owner, attr, obj in reversed(patches):
        setattr(owner, attr, obj)


def _restore_in_child() -> None:
    for patches in _ACTIVE:
        _restore(patches)
    _ACTIVE.clear()


@contextmanager
def installed(rec):
    """Install every wrap point's span wrapper for the ``with`` body."""
    global _fork_hook_registered
    if not _fork_hook_registered:
        os.register_at_fork(after_in_child=_restore_in_child)
        _fork_hook_registered = True
    patches: list = []
    _ACTIVE.append(patches)
    try:
        for module, cls, attr, name in WRAP_POINTS:
            owner = _owner(module, cls)
            fn = vars(owner)[attr]
            patches.append((owner, attr, fn))
            setattr(owner, attr, _wrapper(rec, name, fn))
        yield
    finally:
        _restore(patches)
        _ACTIVE.remove(patches)
