"""The fast hot path is an optimisation, not a semantics change.

``hot_path="fast"`` (zero-copy snapshot reads, the vectorized commit
engine, inlined access recording) must be observationally identical to
``hot_path="legacy"`` (copy-on-read, one-op-at-a-time commit replay):
bitwise-equal committed arrays and bitwise-equal simulated times, for
any program.  The hypothesis tests below throw randomly generated
conflicting write/accumulate streams at both engines; the rest of the
module pins down the zero-copy view semantics and two regressions
(numpy-integer VP counts, worker-pool shutdown) fixed alongside the
overhaul.
"""

from __future__ import annotations

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
    kind = draw(st.sampled_from(["write", "write", "accumulate"]))
    if draw(st.booleans()):
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


_programs = st.lists(
    st.lists(_one_op(), max_size=6), min_size=VPS, max_size=VPS
)


@ppm_function
def _apply_ops(ctx, xs, per_vp):
    yield ctx.global_phase
    for kind, rows, vals, op in per_vp[ctx.global_rank]:
        if kind == "write":
            xs[rows] = vals
        else:
            xs.accumulate(rows, vals, op=op)
    yield ctx.global_phase  # commit, then read everything back
    xs[:]


def _run(shared_kind: str, per_vp, hot_path: str):
    def main(ppm):
        if shared_kind == "global":
            xs = ppm.global_shared("x", N)
        else:
            xs = ppm.node_shared("x", N)
        ppm.reset_clocks()
        ppm.do(2, _apply_ops, xs, per_vp)
        if shared_kind == "global":
            return xs.committed.copy()
        return np.concatenate([np.asarray(xs.instance(i)) for i in range(2)])

    ppm, out = run_ppm(main, _cluster(), hot_path=hot_path)
    return out, ppm.elapsed


class TestFastEqualsLegacy:
    @settings(max_examples=30, deadline=None)
    @given(per_vp=_programs)
    def test_global_shared_commit_bitwise_equal(self, per_vp):
        out_fast, t_fast = _run("global", per_vp, "fast")
        out_legacy, t_legacy = _run("global", per_vp, "legacy")
        assert out_fast.tobytes() == out_legacy.tobytes()
        assert t_fast == t_legacy

    @settings(max_examples=15, deadline=None)
    @given(per_vp=_programs)
    def test_node_shared_commit_bitwise_equal(self, per_vp):
        out_fast, t_fast = _run("node", per_vp, "fast")
        out_legacy, t_legacy = _run("node", per_vp, "legacy")
        assert out_fast.tobytes() == out_legacy.tobytes()
        assert t_fast == t_legacy


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
    """The process executor's worker pool is the runtime's only
    closeable resource."""

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
