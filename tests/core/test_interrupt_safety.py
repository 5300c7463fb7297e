"""Interrupt safety of ``run_ppm``: a KeyboardInterrupt inside a VP
body must propagate (not be swallowed or re-wrapped), must not leak a
partial commit, and must leave no live worker pool behind — on the
sequential engine and on the process executor.  On the sequential
engine that includes rounds that write through to their copy-on-commit
copy: an aborted round drops the copy, so the committed state stays the
phase-start cut."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import testing as mkconfig
from repro.core import ppm_function, run_ppm
from repro.core.errors import SharedAccessError, VpProgramError
from repro.machine import Cluster
from repro.parallel.shm import live_ppm_segments

#: run_ppm options per engine.
ENGINES = {"sequential": {}, "process": {"executor": "process", "workers": 2}}


def _cluster(**kw):
    return Cluster(mkconfig(n_nodes=2, cores_per_node=2, **kw))


@ppm_function
def _interrupting(ctx, A, interrupt):
    yield ctx.global_phase
    A[ctx.global_rank] = 1.0
    yield ctx.global_phase
    A[ctx.global_rank] = 2.0
    if interrupt and ctx.global_rank == 3:
        raise KeyboardInterrupt
    yield ctx.global_phase
    A[ctx.global_rank] = 3.0


@pytest.mark.parametrize("executor", list(ENGINES))
class TestKeyboardInterrupt:
    def test_propagates_uncommitted(self, executor):
        """The interrupt surfaces as KeyboardInterrupt (BaseException
        must not be converted to VpProgramError) and the interrupted
        phase's buffered writes never commit."""
        state = {}

        def main(ppm):
            A = ppm.global_shared("A", 4)
            A[:] = -1.0
            try:
                ppm.do(2, _interrupting, A, interrupt=True)
            finally:
                # Read before run_ppm's cleanup unmaps the process
                # executor's segments.
                state["A"] = A.committed

        with pytest.raises(KeyboardInterrupt):
            run_ppm(main, _cluster(), **ENGINES[executor])
        committed = state["A"]
        # Phase 0 (writes of 1.0) committed; the interrupted phase 1
        # aborted before its barrier, so no element ever became 2.0.
        assert np.array_equal(committed, np.full(4, 1.0))

    def test_worker_pool_shut_down(self, executor):
        """run_ppm's cleanup must release the worker pool and its
        shared-memory segments even when the driver dies mid-phase."""
        captured = {}

        def main(ppm):
            A = ppm.global_shared("A", 4)
            captured["runtime"] = ppm.runtime
            ppm.do(2, _interrupting, A, interrupt=True)

        with pytest.raises(KeyboardInterrupt):
            run_ppm(main, _cluster(), **ENGINES[executor])
        assert captured["runtime"]._backend is None
        assert live_ppm_segments() == []

    def test_clean_run_unaffected(self, executor):
        def main(ppm):
            A = ppm.global_shared("A", 4)
            ppm.do(2, _interrupting, A, interrupt=False)
            return A.committed

        _, a = run_ppm(main, _cluster(), **ENGINES[executor])
        assert np.array_equal(a, np.full(4, 3.0))


@ppm_function
def _write_through_abort(ctx, A, B, how):
    yield ctx.global_phase
    A[ctx.global_rank] = 1.0
    B[0:2] = np.full(2, 1.0)
    yield ctx.global_phase
    # The reads leave snapshot views outstanding, so every VP's writes
    # go straight into the copy-on-commit copies.
    a, b = A[0:4], B[0:2]
    A[ctx.global_rank] = a[ctx.global_rank] + 1.0
    A.accumulate(np.array([0, 0]), 10.0)
    B[0:2] = b + 1.0
    if ctx.global_rank == 3:
        if how == "interrupt":
            raise KeyboardInterrupt
        raise RuntimeError("VP failed mid-round")
    yield ctx.global_phase


class TestWriteThroughAbort:
    @pytest.mark.parametrize("how", ["interrupt", "error"])
    def test_aborted_round_keeps_phase_start_cut(self, how):
        state = {}

        def main(ppm):
            A = ppm.global_shared("A", 4)
            B = ppm.node_shared("B", 2)
            state["rt"] = ppm.runtime
            try:
                ppm.do(2, _write_through_abort, A, B, how)
            finally:
                state["A"] = A.committed
                state["B"] = [B.instance(i).copy() for i in range(2)]
                state["pending"] = [A._next] + list(B._next)

        expected = KeyboardInterrupt if how == "interrupt" else VpProgramError
        with pytest.raises(expected):
            run_ppm(main, _cluster())
        # Ranks 0-2 wrote through before rank 3 aborted the round.
        assert state["rt"].stats_write_through == 3  # A, B on nodes 0 and 1
        assert np.array_equal(state["A"], np.full(4, 1.0))
        for inst in state["B"]:
            assert np.array_equal(inst, np.full(2, 1.0))
        assert all(p is None for p in state["pending"])

    def test_program_continues_after_aborted_round(self):
        """A driver that catches the failure runs on from the cut."""

        @ppm_function
        def bump(ctx, A):
            yield ctx.global_phase
            A[ctx.global_rank] = A[0:4][ctx.global_rank] + 1.0

        def main(ppm):
            A = ppm.global_shared("A", 4)
            B = ppm.node_shared("B", 2)
            with pytest.raises(VpProgramError):
                ppm.do(2, _write_through_abort, A, B, "error")
            ppm.do(2, bump, A)
            return A.committed

        _, a = run_ppm(main, _cluster())
        assert np.array_equal(a, np.full(4, 2.0))


class TestWriteThroughModeRule:
    def test_view_after_buffered_first_write_keeps_round_buffered(self):
        """A target whose first write of the round was buffered stays
        buffered even once a view is taken: a later write-through op
        must not land before an earlier buffered op of a lower rank."""

        @ppm_function
        def kernel(ctx, A):
            yield ctx.global_phase
            if ctx.global_rank == 0:
                A[0:4] = np.full(4, 5.0)  # first write: no view yet
            else:
                A[0:4][0]  # a view of the phase-start buffer
                A[ctx.global_rank] = float(ctx.global_rank)

        def main(ppm):
            A = ppm.global_shared("A", 4)
            ppm.do(2, kernel, A)
            return A.committed

        ppm, a = run_ppm(main, _cluster())
        assert ppm.runtime.stats_write_through == 0
        assert np.array_equal(a, np.array([5.0, 1.0, 2.0, 3.0]))

    def test_global_write_in_node_phase_still_rejected(self):
        """The node-phase check precedes the write-through decision:
        an outstanding view does not open a path around it."""

        @ppm_function
        def kernel(ctx, A):
            yield ctx.node_phase
            A[0:4]
            A[ctx.global_rank] = 1.0

        def main(ppm):
            A = ppm.global_shared("A", 4)
            try:
                ppm.do(2, kernel, A)
            finally:
                assert A._next is None
                assert np.array_equal(A.committed, np.zeros(4))

        with pytest.raises(VpProgramError) as info:
            run_ppm(main, _cluster())
        assert isinstance(info.value.__cause__, SharedAccessError)
