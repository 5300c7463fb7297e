"""Interrupt safety of ``run_ppm``: a KeyboardInterrupt inside a VP
body must propagate (not be swallowed or re-wrapped), must not leak a
partial commit, and must leave no live worker pool behind — on the
sequential engine and on the process executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import testing as mkconfig
from repro.core import ppm_function, run_ppm
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
