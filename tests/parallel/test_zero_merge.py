"""The certified zero-merge commit path of the process backend.

When a ``do``'s kernel carries a conflict-freedom certificate, workers
commit their shard's buffered operations directly into the shared
segments and reply with a fixed-size digest — no write-operation
records ever cross the pipe.  These tests pin down the contract:

* **byte count** — a certified CG run ships *zero* record bytes: every
  round holds, every commit group resolves ``local``, no reply carries
  an ``"ops"`` payload, and each commit reply pickles to a few hundred
  bytes regardless of problem size;
* **protocol** — a certified round costs one pool round trip: its
  commit rides on the next round command, and only the last round of a
  ``do`` pays a standalone ``commit`` trip;
* **trace equivalence** — the three engines (inline, process
  zero-merge, process record-replay under ``sanitize="strict"``)
  produce identical traces (modulo ``worker_span``/
  ``zero_merge_commit`` interleaving); the array and simulated-time
  half of the three-engine contract is property-swept in
  ``test_equivalence.py``;
* **digest verification** — with ``PPM_ZERO_MERGE_VERIFY`` set the
  parent recomputes every committed-rows checksum, and a mismatch
  raises;
* **plan cache** — the worker-side commit-plan cache converges to a
  high hit rate on iterative solvers.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.apps.cg import build_chimney_problem, ppm_cg_solve
from repro.config import manycore, testing as mkconfig
from repro.core import run_ppm
from repro.machine import Cluster
from repro.obs import PhaseTrace
from repro.parallel import backend as backend_mod
from repro.parallel.pool import WorkerPool

def _cg_cluster():
    return Cluster(manycore(n_nodes=4, cores_per_node=2))


@pytest.fixture
def captured_roundtrips(monkeypatch):
    """Record every pool round-trip as ``(tag, payload, replies)``."""
    captured = []
    real = WorkerPool.roundtrip

    def wrapped(self, tag, payload, **kwargs):
        replies = real(self, tag, payload, **kwargs)
        captured.append((tag, payload, replies))
        return replies

    monkeypatch.setattr(WorkerPool, "roundtrip", wrapped)
    return captured


# ----------------------------------------------------------------------
# Byte count: certified CG ships no write-operation records
# ----------------------------------------------------------------------

class TestZeroRecordBytes:
    def test_certified_cg_ships_no_ops(self, captured_roundtrips):
        prob = build_chimney_problem(6, 6, 4, seed=7)
        ppm_cg_solve(
            prob, _cg_cluster(), max_iters=6, executor="process", workers=2
        )
        rounds = [c for c in captured_roundtrips if c[0] == "round"]
        # Commit-carrying dispatches: round commands carrying the
        # previous round's fused commit, and standalone commit trips.
        # Their digests come back under the reply's "commit" key and
        # as the whole reply, respectively.
        commits = [
            (p["commit"], [None if r is None else r["commit"] for r in replies])
            for _t, p, replies in rounds
            if p["commit"] is not None
        ] + [
            (p, [None if r is None else r["groups"] for r in replies])
            for t, p, replies in captured_roundtrips
            if t == "commit"
        ]
        assert rounds and commits

        # Every round of the certified solve holds its operations
        # worker-side, and every commit group resolves to a local
        # (in-place) commit.
        assert all(p["mode"] == "hold" for _t, p, _r in rounds)
        assert all(
            decision == "local"
            for cmd, _digests in commits
            for _key, decision in cmd["groups"]
        )

        # Zero record bytes on the pipe: no reply anywhere carries an
        # operation stream.
        for _tag, _payload, replies in rounds:
            for rep in replies:
                if rep is None:
                    continue
                assert "ops" not in rep.get("report", {})
                for _node_id, report, _flags in rep.get("nodes", ()):
                    assert "ops" not in report
        for _cmd, digests in commits:
            for groups in digests:
                if groups is None:
                    continue
                for _key, digest in groups:
                    assert "ops" not in digest

        # The digest is fixed-size: a few hundred bytes however large
        # the vectors are (record-shipping replies grow with the
        # operation count).
        sizes = [
            len(pickle.dumps(groups))
            for _cmd, digests in commits
            for groups in digests
            if groups is not None
        ]
        assert max(sizes) < 512, max(sizes)

        # And work actually happened through the zero-merge path.
        stats = backend_mod.LAST_RUN_STATS
        assert stats["zm_rounds"] > 0
        assert stats["zm_ops"] > 0
        assert stats["bytes_avoided"] > 0

    def test_certified_round_costs_one_roundtrip(self, captured_roundtrips):
        prob = build_chimney_problem(6, 6, 4, seed=7)
        trace = PhaseTrace()
        ppm_cg_solve(
            prob, _cg_cluster(), max_iters=6, trace=trace,
            executor="process", workers=2,
        )
        phases = sum(1 for e in trace.events if e.kind == "phase_begin")
        tags = [t for t, _p, _r in captured_roundtrips]
        # CG runs global phases only: one phase per round.  Beyond one
        # trip per round, a do pays a fixed four (do_start, prologue,
        # the final flush, do_end), plus the pool's one-off init.
        expected = {
            "init": 1, "do_start": 1, "prologue": 1,
            "round": phases, "commit": 1, "do_end": 1,
        }
        assert {t: tags.count(t) for t in set(tags)} == expected
        # Every round but the first carries its predecessor's commit;
        # the last round's commit is the final flush.
        carried = [p["commit"] is not None for t, p, _r in captured_roundtrips if t == "round"]
        assert carried == [False] + [True] * (phases - 1)
        assert tags.index("commit") == len(tags) - 2
        # The backend publishes the same per-do counts.
        stats = backend_mod.LAST_RUN_STATS
        assert stats["rounds"] == phases
        del expected["init"]
        assert stats["roundtrips"] == expected

    def test_zero_merge_off_ships_ops(self, captured_roundtrips):
        # The strict sanitizer checks every phase parent-side, so it
        # turns zero-merge off and restores the record-shipping
        # protocol.
        prob = build_chimney_problem(6, 6, 4, seed=7)
        ppm_cg_solve(
            prob, _cg_cluster(), max_iters=3,
            executor="process", workers=2, sanitize="strict",
        )
        rounds = [c for c in captured_roundtrips if c[0] == "round"]
        commits = [c for c in captured_roundtrips if c[0] == "commit"]
        assert rounds and not commits
        assert all(p["mode"] == "ship" for _t, p, _r in rounds)
        assert any(
            "ops" in rep.get("report", {})
            for _t, _p, replies in rounds
            for rep in replies
            if rep is not None
        )


# ----------------------------------------------------------------------
# Three-engine equivalence
# ----------------------------------------------------------------------

class TestThreeEngineEquivalence:
    """Inline, process zero-merge and process record-replay must emit
    the same trace, apart from the process-only events."""

    def test_traces_identical_modulo_process_events(self):
        prob = build_chimney_problem(6, 6, 4, seed=3)
        traces = [PhaseTrace() for _ in range(3)]
        ppm_cg_solve(prob, _cg_cluster(), max_iters=4, trace=traces[0])
        ppm_cg_solve(
            prob, _cg_cluster(), max_iters=4, trace=traces[1],
            executor="process", workers=2,
        )
        ppm_cg_solve(
            prob, _cg_cluster(), max_iters=4, trace=traces[2],
            executor="process", workers=2, sanitize="strict",
        )
        assert backend_mod.LAST_RUN_STATS["zm_rounds"] == 0
        skip = ("worker_span", "zero_merge_commit")
        streams = [
            [e.to_dict() for e in tr.events if e.kind not in skip]
            for tr in traces
        ]
        assert streams[0] == streams[1] == streams[2]


# ----------------------------------------------------------------------
# Digest verification
# ----------------------------------------------------------------------

class TestDigestVerify:
    def test_verified_run_passes(self, monkeypatch):
        monkeypatch.setenv("PPM_ZERO_MERGE_VERIFY", "1")
        prob = build_chimney_problem(6, 6, 4, seed=11)
        r1, t1 = ppm_cg_solve(prob, _cg_cluster(), max_iters=6)
        r2, t2 = ppm_cg_solve(
            prob, _cg_cluster(), max_iters=6, executor="process", workers=2
        )
        assert t1 == t2
        np.testing.assert_array_equal(r1.x, r2.x)
        assert backend_mod.LAST_RUN_STATS["zm_rounds"] > 0

    def test_every_held_round_verified(self, monkeypatch):
        # Fused commits are verified when their digests arrive with the
        # next round's replies; the last round's, after the final flush.
        from repro.parallel.backend import ProcessBackend

        monkeypatch.setenv("PPM_ZERO_MERGE_VERIFY", "1")
        checked: list[int] = []
        groups: list[tuple[int, int]] = []
        real_count = ProcessBackend._count_digests
        real_verify = ProcessBackend._verify_digest

        def count(self, node_key, entries):
            n0 = len(checked)
            real_count(self, node_key, entries)
            if any(d.get("ops_n") for _w, d in entries):
                groups.append((self._pending_phases[node_key], len(checked) - n0))

        def verify(self, w, digest):
            checked.append(len(digest["checksums"]))
            real_verify(self, w, digest)

        monkeypatch.setattr(ProcessBackend, "_count_digests", count)
        monkeypatch.setattr(ProcessBackend, "_verify_digest", verify)
        trace = PhaseTrace()
        prob = build_chimney_problem(6, 6, 4, seed=11)
        ppm_cg_solve(
            prob, _cg_cluster(), max_iters=6, trace=trace,
            executor="process", workers=2,
        )
        phases = sum(1 for e in trace.events if e.kind == "phase_begin")
        assert len(groups) == backend_mod.LAST_RUN_STATS["zm_rounds"] > 0
        assert all(n > 0 for _phase, n in groups)
        assert all(n > 0 for n in checked)
        # The CG kernel's last round writes the solve statistics.
        assert groups[-1][0] == phases - 1

    def test_mismatch_raises(self):
        from repro.parallel.backend import ProcessBackend

        class FakeShared:
            _data = np.arange(8.0)

        class FakeRT:
            shared_registry = {"A": FakeShared()}

        be = ProcessBackend.__new__(ProcessBackend)
        be.rt = FakeRT()
        be._arrays = [{}]
        rows = np.array([0, 3, 5])
        digest = {"checksums": [("A", None, 0xDEADBEEF, ("n", 1, rows))]}
        with pytest.raises(RuntimeError, match="digest mismatch"):
            be._verify_digest(0, digest)


class TestCommitBarrier:
    """Round k+1's bodies read rows other workers committed in the same
    trip: the workers' commit barrier must hold every worker back until
    all commits are in place."""

    def test_oversubscribed_pool_bitwise(self):
        # More workers than this host's cores: barrier arrivals are
        # spread across scheduler time slices.
        prob = build_chimney_problem(6, 6, 4, seed=13)
        r1, t1 = ppm_cg_solve(prob, _cg_cluster(), max_iters=8)
        r2, t2 = ppm_cg_solve(
            prob, _cg_cluster(), max_iters=8, executor="process", workers=4
        )
        assert t1 == t2
        np.testing.assert_array_equal(r1.x, r2.x)

    def test_stalled_workers_resume_bitwise(self, monkeypatch):
        # With no time to wait at the barrier, workers reply stalled
        # (committed, not advanced) and the parent advances them with
        # a second trip: results must not change.
        from repro.parallel import worker as worker_mod

        monkeypatch.setattr(worker_mod, "GATE_TIMEOUT_S", 0.0)
        prob = build_chimney_problem(6, 6, 4, seed=13)
        r1, t1 = ppm_cg_solve(prob, _cg_cluster(), max_iters=8)
        r2, t2 = ppm_cg_solve(
            prob, _cg_cluster(), max_iters=8, executor="process", workers=2
        )
        assert t1 == t2
        np.testing.assert_array_equal(r1.x, r2.x)
        stats = backend_mod.LAST_RUN_STATS
        assert stats["roundtrips"]["round"] > stats["rounds"]


# ----------------------------------------------------------------------
# Error path: finished rounds still commit
# ----------------------------------------------------------------------

def write_rank_kernel(ctx, A):
    yield ctx.global_phase
    A[ctx.global_rank] = float(ctx.global_rank + 1)
    yield ctx.global_phase


class TestErrorBetweenRounds:
    def test_pending_commit_flushed_on_error(self, monkeypatch):
        # A parent-side error between two rounds must find the earlier
        # round committed, as the inline engine would have: its commit
        # was waiting for the next round command, which never went.
        from repro.parallel.backend import ProcessBackend

        real = ProcessBackend.begin_round
        calls = []

        def begin_round(self, *args):
            calls.append(args[0])
            if len(calls) == 2:
                raise RuntimeError("injected between rounds")
            return real(self, *args)

        monkeypatch.setattr(ProcessBackend, "begin_round", begin_round)
        box = []

        def main(ppm):
            A = ppm.global_shared("A", 16)
            try:
                ppm.do(8, write_rank_kernel, A)
            finally:
                box.append(A.committed.copy())

        with pytest.raises(RuntimeError, match="injected"):
            run_ppm(
                main, Cluster(mkconfig(n_nodes=2, cores_per_node=2)),
                executor="process", workers=2,
            )
        assert backend_mod.LAST_RUN_STATS["zm_rounds"] == 1
        np.testing.assert_array_equal(box[0], np.arange(1.0, 17.0))


# ----------------------------------------------------------------------
# Commit-plan cache
# ----------------------------------------------------------------------

class TestPlanCache:
    def test_iterative_solver_converges_to_hits(self):
        prob = build_chimney_problem(6, 6, 4, seed=7)
        ppm_cg_solve(
            prob, _cg_cluster(), max_iters=12, executor="process", workers=2
        )
        stats = backend_mod.LAST_RUN_STATS
        hits, misses = stats["plan_hits"], stats["plan_misses"]
        assert hits + misses > 0
        rate = hits / (hits + misses)
        # Each distinct access pattern compiles once per worker and
        # hits on every later round; 12 CG iterations make warm-up
        # noise small.
        assert rate >= 0.85, (hits, misses)
