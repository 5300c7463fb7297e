"""The fast hot path is an optimisation, not a semantics change.

``hot_path="fast"`` (zero-copy snapshot reads, the vectorized commit
engine, inlined access recording) must be observationally identical to
``hot_path="legacy"`` (copy-on-read, one-op-at-a-time commit replay):
bitwise-equal committed arrays and bitwise-equal simulated times, for
any program.  The hypothesis tests below throw randomly generated
conflicting write/accumulate streams, interleaved with snapshot reads,
at both engines; the reads decide whether a target's round is written
through (a view outstanding at its first write: before it in the same
phase, or carried over from the previous phase) or stays buffered (a
view taken only between writes).  The rest of the module pins down
the zero-copy view semantics, the write-through mode rule and the
regressions (numpy-integer VP counts, worker-pool shutdown, the
runtime/handle reference cycle) fixed alongside the overhaul.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import testing as mkconfig
from repro.core import ppm_function, run_ppm
from repro.machine import Cluster
from repro.parallel.shm import live_ppm_segments

N = 24  # rows of the shared array the generated programs target
VPS = 4  # 2 nodes x 2 VPs


def _cluster(n_nodes=2, cores=2, **cfg):
    return Cluster(mkconfig(n_nodes=n_nodes, cores_per_node=cores, **cfg))


# ----------------------------------------------------------------------
# Generated conflicting operation streams
# ----------------------------------------------------------------------

_rows_fancy = st.lists(
    st.integers(0, N - 1), min_size=1, max_size=8
).map(lambda xs: np.array(xs, dtype=np.int64))
_rows_slice = st.tuples(st.integers(0, N - 1), st.integers(1, 8)).map(
    lambda t: slice(t[0], min(N, t[0] + t[1]))
)
_values = st.floats(-1e6, 1e6, allow_nan=False, width=64)


@st.composite
def _one_op(draw):
    kind = draw(st.sampled_from(["write", "write", "accumulate", "read"]))
    if kind == "read" or draw(st.booleans()):
        rows = draw(_rows_fancy)
        count = rows.size
    else:
        rows = draw(_rows_slice)
        count = rows.stop - rows.start
    scalar = draw(st.booleans())
    if scalar:
        vals = draw(_values)
    else:
        vals = np.array(draw(st.lists(_values, min_size=count, max_size=count)))
    op = draw(st.sampled_from(["add", "maximum", "minimum", "multiply"]))
    return (kind, rows, vals, op)


#: (view carried over from the previous phase?, per-VP op lists).
_programs = st.tuples(
    st.booleans(),
    st.lists(st.lists(_one_op(), max_size=6), min_size=VPS, max_size=VPS),
)


@ppm_function
def _apply_ops(ctx, xs, program, held):
    carry, per_vp = program
    yield ctx.global_phase
    if carry and ctx.node_rank == 0:
        held.append(xs[0:N])  # a view alive across the barrier
    yield ctx.global_phase
    for kind, rows, vals, op in per_vp[ctx.global_rank]:
        if kind == "write":
            xs[rows] = vals
        elif kind == "accumulate":
            xs.accumulate(rows, vals, op=op)
        else:
            held.append(xs[rows])
    yield ctx.global_phase  # commit, then read everything back
    xs[:]


def _run(shared_kind: str, program, hot_path: str):
    """Committed arrays plus every snapshot read the program held,
    read back after the last commit: views must still show the values
    of the phase they were taken in."""
    held: list = []

    def main(ppm):
        if shared_kind == "global":
            xs = ppm.global_shared("x", N)
            xs[:] = np.arange(N, dtype=np.float64)
        else:
            xs = ppm.node_shared("x", N)
            for i in range(2):
                xs.instance(i)[:] = np.arange(N, dtype=np.float64) * (i + 1)
        ppm.reset_clocks()
        ppm.do(2, _apply_ops, xs, program, held)
        if shared_kind == "global":
            out = [xs.committed.copy()]
        else:
            out = [np.asarray(xs.instance(i)) for i in range(2)]
        return np.concatenate(out + [np.ravel(h) for h in held])

    ppm, out = run_ppm(main, _cluster(), hot_path=hot_path)
    return out, ppm.elapsed, ppm.runtime.stats_write_through


def _assert_fast_equals_legacy(shared_kind: str, program) -> int:
    out_fast, t_fast, wt = _run(shared_kind, program, "fast")
    out_legacy, t_legacy, wt_legacy = _run(shared_kind, program, "legacy")
    assert out_fast.tobytes() == out_legacy.tobytes()
    assert t_fast == t_legacy
    assert wt_legacy == 0  # the oracle buffers every write
    return wt


_FANCY = np.array([3, 1, 3, 5], dtype=np.int64)  # duplicate row 3

#: Each write-through trigger point as a fixed program, with the number
#: of target-rounds it writes through (global, node): one global array;
#: one node-shared instance per node (VPs 0-1 on node 0, 2-3 on 1).
_TRIGGERS = {
    # A view taken before the round's first write (VP 0 reads, then
    # everyone writes and accumulates overlapping rows).
    "view_before_first_write": (
        (False, [
            [("read", slice(0, 6), 0.0, "add"), ("write", slice(2, 8), 1.5, "add")],
            [("accumulate", _FANCY, np.arange(4.0), "add")],
            [("read", slice(4, 9), 0.0, "add"), ("write", _FANCY, 7.0, "add")],
            [("accumulate", _FANCY, 2.0, "multiply"), ("write", slice(0, 3), -1.0, "add")],
        ]),
        (1, 2),
    ),
    # The first write finds no view, so the target stays buffered for
    # the round even though views are taken between later writes.
    "view_between_writes": (
        (False, [
            [("write", slice(2, 8), 1.5, "add"), ("read", slice(0, 6), 0.0, "add")],
            [("accumulate", _FANCY, np.arange(4.0), "add")],
            [("write", _FANCY, 7.0, "add"), ("read", slice(4, 9), 0.0, "add")],
            [("accumulate", _FANCY, 2.0, "multiply"), ("write", slice(0, 3), -1.0, "add")],
        ]),
        (0, 0),
    ),
    # A view taken in the preceding phase, still outstanding.
    "view_from_previous_phase": (
        (True, [
            [("write", slice(2, 8), 1.5, "add")],
            [("accumulate", _FANCY, np.arange(4.0), "add")],
            [("write", _FANCY, 7.0, "add")],
            [("accumulate", _FANCY, 2.0, "maximum"), ("write", slice(0, 3), -1.0, "add")],
        ]),
        (1, 2),
    ),
}


class TestFastEqualsLegacy:
    @settings(max_examples=30, deadline=None)
    @given(program=_programs)
    def test_global_shared_commit_bitwise_equal(self, program):
        _assert_fast_equals_legacy("global", program)

    @settings(max_examples=15, deadline=None)
    @given(program=_programs)
    def test_node_shared_commit_bitwise_equal(self, program):
        _assert_fast_equals_legacy("node", program)

    @pytest.mark.parametrize("trigger", list(_TRIGGERS))
    @pytest.mark.parametrize("shared_kind", ["global", "node"])
    def test_write_through_trigger_points(self, trigger, shared_kind):
        """Each trigger point is exercised, takes the mode the
        first-write rule says, and stays bitwise equal to legacy."""
        program, (wt_global, wt_node) = _TRIGGERS[trigger]
        wt = _assert_fast_equals_legacy(shared_kind, program)
        assert wt == (wt_global if shared_kind == "global" else wt_node)


# ----------------------------------------------------------------------
# Zero-copy view semantics
# ----------------------------------------------------------------------

class TestZeroCopyViews:
    def test_basic_index_reads_are_readonly_views(self):
        seen = {}

        @ppm_function
        def probe(ctx, xs):
            yield ctx.global_phase
            chunk = xs[0:4]
            seen["writeable"] = chunk.flags.writeable
            seen["owns"] = chunk.base is not None
            with pytest.raises(ValueError):
                chunk[0] = 99.0

        def main(ppm):
            xs = ppm.global_shared("x", 8)
            xs[:] = np.arange(8.0)
            ppm.do(1, probe, xs)

        run_ppm(main, _cluster(n_nodes=1, cores=1), hot_path="fast")
        assert seen["writeable"] is False
        assert seen["owns"] is True  # a view, not a fresh copy

    def test_view_across_barrier_keeps_phase_start_values(self):
        """Copy-on-commit: a view taken in phase k still shows phase
        k's snapshot after the barrier commits new values."""
        seen = {}

        @ppm_function
        def hold(ctx, xs):
            yield ctx.global_phase
            before = xs[0:4]
            xs[0:4] = np.full(4, 7.0)
            yield ctx.global_phase
            seen["held"] = np.asarray(before).copy()
            seen["fresh"] = np.asarray(xs[0:4]).copy()

        def main(ppm):
            xs = ppm.global_shared("x", 8)
            xs[:] = np.arange(8.0)
            ppm.do(1, hold, xs)

        run_ppm(main, _cluster(n_nodes=1, cores=1), hot_path="fast")
        np.testing.assert_array_equal(seen["held"], np.arange(4.0))
        np.testing.assert_array_equal(seen["fresh"], np.full(4, 7.0))

    def test_legacy_mode_still_returns_copies(self):
        seen = {}

        @ppm_function
        def probe(ctx, xs):
            yield ctx.global_phase
            chunk = xs[0:4]
            seen["writeable"] = chunk.flags.writeable

        def main(ppm):
            xs = ppm.global_shared("x", 8)
            ppm.do(1, probe, xs)

        run_ppm(main, _cluster(n_nodes=1, cores=1), hot_path="legacy")
        assert seen["writeable"] is True


# ----------------------------------------------------------------------
# Regressions fixed alongside the overhaul
# ----------------------------------------------------------------------

class TestNumpyIntVpCounts:
    def test_do_accepts_numpy_integer_counts(self):
        """np.int64 VP counts used to fall into the per-node-sequence
        branch and die with a length error."""
        ran = []

        @ppm_function
        def touch(ctx):
            yield ctx.global_phase
            ran.append(ctx.global_rank)

        def main(ppm):
            ppm.do(np.int64(2), touch)

        run_ppm(main, _cluster())
        assert sorted(ran) == [0, 1, 2, 3]

    def test_negative_numpy_count_still_rejected(self):
        def main(ppm):
            ppm.do(np.int64(-1), lambda ctx: None)

        with pytest.raises(ValueError):
            run_ppm(main, _cluster())


@ppm_function
def _touch(ctx):
    yield ctx.global_phase


class TestRuntimeClose:
    """Closing a runtime shuts the process executor's worker pool down
    and detaches the shared handles from it."""

    def test_closed_runtime_freed_without_collection(self):
        """close() cuts the runtime <-> handle reference cycle, so a
        finished run's runtime dies by reference counting alone, while
        the handles keep serving driver-level reads."""

        @ppm_function
        def bump(ctx, xs):
            yield ctx.global_phase
            xs[ctx.global_rank] = xs[ctx.global_rank] + 1.0

        def main(ppm):
            xs = ppm.global_shared("x", 4)
            ys = ppm.node_shared("y", 3)
            ppm.do(2, bump, xs)
            return xs, ys

        gc.collect()
        gc.disable()
        try:
            ppm, (xs, ys) = run_ppm(main, _cluster())
            assert set(ppm.runtime.shared_registry) == {"x", "y"}
            ref = weakref.ref(ppm.runtime)
            del ppm
            assert ref() is None
        finally:
            gc.enable()
        np.testing.assert_array_equal(xs[:], np.ones(4))
        np.testing.assert_array_equal(xs.committed, np.ones(4))
        np.testing.assert_array_equal(xs.local_view(1), np.ones(2))
        np.testing.assert_array_equal(ys.instance(1), np.zeros(3))

    def test_program_reused_after_close(self):
        """do() re-attaches handles detached by close()."""
        from repro.core.program import PpmProgram

        @ppm_function
        def bump(ctx, xs):
            yield ctx.global_phase
            xs[ctx.global_rank] = xs[ctx.global_rank] + 1.0

        ppm = PpmProgram(_cluster())
        xs = ppm.global_shared("x", 4)
        ppm.do(2, bump, xs)
        ppm.close()
        assert xs.runtime is not ppm.runtime
        ppm.do(2, bump, xs)
        assert xs.runtime is ppm.runtime
        np.testing.assert_array_equal(xs.committed, np.full(4, 2.0))
        ppm.close()

    def test_worker_pool_shut_down_by_run_ppm(self):
        def main(ppm):
            ppm.do(2, _touch)
            return ppm.runtime

        _, runtime = run_ppm(main, _cluster(), executor="process", workers=2)
        assert runtime._backend is None  # run_ppm closed it
        assert live_ppm_segments() == []

    def test_context_manager_closes_pool(self):
        from repro.core.program import PpmProgram

        with PpmProgram(_cluster(), executor="process", workers=2) as ppm:
            ppm.do(2, _touch)
            assert ppm.runtime._backend is not None
        assert ppm.runtime._backend is None

    def test_close_is_idempotent_and_pool_recreated(self):
        from repro.core.program import PpmProgram

        ppm = PpmProgram(_cluster(), executor="process", workers=2)
        ppm.do(2, _touch)
        ppm.close()
        ppm.close()
        ppm.do(2, _touch)  # pool transparently recreated
        assert ppm.runtime._backend is not None
        ppm.close()
        assert live_ppm_segments() == []
