"""Bitwise engine equivalence, property-swept.

The backend's headline contract: for any kernel, seed and worker
count, ``executor="process"`` commits bitwise-identical shared arrays
and reports the identical simulated time as the inline executor — on
both of its commit paths (certified rounds committing in place
worker-side, and record shipping, which ``sanitize="strict"`` forces
for every round).  Hypothesis sweeps seeds and worker counts over the
engine matrix for the three Figure-1 workloads (CG, BFS, multigrid)
and over a synthetic kernel exercising every recorded construct.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.cg import build_chimney_problem, ppm_cg_solve
from repro.apps.graph import hashed_graph, ppm_bfs
from repro.apps.multigrid import build_mg_problem, ppm_mg_solve
from repro.config import manycore, testing as mkconfig
from repro.core import run_ppm
from repro.machine import Cluster
from repro.parallel import backend as backend_mod
from repro.parallel.shm import live_ppm_segments

# Process pools fork real processes; a handful of examples with
# generous deadlines beats hypothesis defaults here.
SWEEP = settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def synthetic_kernel(ctx, A, B, seed):
    """Touches every recorded construct: global/node phases, latency
    phases, remote reads, writes, accumulates, reduce and scan."""
    rng = np.random.default_rng(seed * 1000 + ctx.global_rank)
    n = len(A)
    yield ctx.global_phase
    A[ctx.global_rank % n] = float(rng.integers(0, 100))
    h = ctx.reduce(float(rng.random()), "max")
    yield ctx.phase("global", latency_rounds=2)
    peer = float(A[(ctx.global_rank * 7 + 3) % n])
    s = ctx.scan(int(peer) % 5 + 1, "sum")
    ctx.work(10.0 * (ctx.global_rank % 4))
    yield ctx.node_phase
    B[ctx.node_rank % len(B)] = h.value + ctx.node_id
    yield ctx.global_phase
    rows = rng.integers(0, n, size=3)
    A.accumulate(rows, np.full(3, float(s.value)))
    yield ctx.global_phase


def synthetic_main(ppm, seed):
    A = ppm.global_shared("A", 24)
    B = ppm.node_shared("B", 6)
    ppm.do(6, synthetic_kernel, A, B, seed)
    insts = [B.instance(i).copy() for i in range(ppm.node_count)]
    return ppm.elapsed, A.committed.copy(), insts


class TestSyntheticEquivalence:
    @SWEEP
    @given(seed=st.integers(0, 10_000), workers=st.integers(1, 5))
    def test_bitwise_identical(self, seed, workers):
        cl = lambda: Cluster(mkconfig(n_nodes=3, cores_per_node=2))  # noqa: E731
        _, (t1, a1, b1) = run_ppm(synthetic_main, cl(), seed)
        _, (t2, a2, b2) = run_ppm(
            synthetic_main, cl(), seed, executor="process", workers=workers
        )
        assert t1 == t2
        np.testing.assert_array_equal(a1, a2)
        for x, y in zip(b1, b2):
            np.testing.assert_array_equal(x, y)
        assert live_ppm_segments() == []


def _cg(seed, **opts):
    prob = build_chimney_problem(6, 6, 4, seed=seed)
    res, t = ppm_cg_solve(
        prob, Cluster(manycore(n_nodes=4, cores_per_node=2)), max_iters=8,
        **opts,
    )
    return res.x, t


def _bfs(seed, **opts):
    g = hashed_graph(128, degree=5, seed=seed)
    return ppm_bfs(g, 0, Cluster(manycore(n_nodes=4, cores_per_node=2)), **opts)


def _multigrid(seed, **opts):
    prob = build_mg_problem(levels=3, seed=seed)
    return ppm_mg_solve(
        prob, Cluster(mkconfig(n_nodes=2, cores_per_node=2)), cycles=2, **opts
    )


#: Engines compared against the inline run: the process executor with
#: its default zero-merge commit, and with record shipping forced.
ENGINES = {
    "process": {"executor": "process"},
    "process-strict": {"executor": "process", "sanitize": "strict"},
}


class TestAppEquivalence:
    """The engine matrix: {inline, process zero-merge, process record
    shipping} x {CG, BFS, multigrid}."""

    @staticmethod
    def _check(app, seed, workers):
        ref, t_ref = app(seed)
        for name, opts in ENGINES.items():
            out, t = app(seed, workers=workers, **opts)
            assert t == t_ref, name
            np.testing.assert_array_equal(out, ref, err_msg=name)
            assert live_ppm_segments() == []
            if opts.get("sanitize") == "strict":
                assert backend_mod.LAST_RUN_STATS["zm_rounds"] == 0

    @SWEEP
    @given(seed=st.integers(1, 50), workers=st.integers(2, 4))
    def test_cg(self, seed, workers):
        self._check(_cg, seed, workers)

    @SWEEP
    @given(seed=st.integers(1, 50), workers=st.integers(2, 4))
    def test_bfs(self, seed, workers):
        self._check(_bfs, seed, workers)

    @SWEEP
    @given(seed=st.integers(1, 50), workers=st.integers(2, 4))
    def test_multigrid(self, seed, workers):
        self._check(_multigrid, seed, workers)
