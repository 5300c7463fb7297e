import os

import hooks
from metrics import layer_sum_error, traced_pass_metrics
from spans import SpanRecorder
from workloads import CgSweep, CgSweepProcess


def _traced_pass(workload):
    rec = SpanRecorder()
    workload.make_inputs()
    with hooks.installed(rec):
        token = rec.begin_pass()
        out, _ = workload.run_pass()
        rec.close(token)
    return rec, out


def test_plain_runs_are_unwrapped_after_a_traced_run():
    originals = [hooks.original(m, c, a) for m, c, a, _ in hooks.WRAP_POINTS]
    rec, _ = _traced_pass(CgSweep(1, nodes=(2,), nx=4))
    assert rec.passes
    now = [hooks.original(m, c, a) for m, c, a, _ in hooks.WRAP_POINTS]
    assert all(a is b for a, b in zip(originals, now))
    assert not hooks._ACTIVE


def test_traced_pass_counts_layer_calls():
    rec, _ = _traced_pass(CgSweep(1, nodes=(1, 2), nx=4))
    m = traced_pass_metrics(rec.pass_spans(0), rec.names, rec.passes[0][1])
    assert m["shared.reads"] > 0 and m["shared.writes"] > 0
    assert m["phase.commits"] == m["runtime.rounds"] > 0
    assert m["parallel.spawns"] == 0
    assert abs(layer_sum_error(m)) < 1e-9


def test_forked_children_put_the_originals_back():
    originals = [hooks.original(m, c, a) for m, c, a, _ in hooks.WRAP_POINTS]
    with hooks.installed(SpanRecorder()):
        wrapped = [hooks.original(m, c, a) for m, c, a, _ in hooks.WRAP_POINTS]
        assert not any(a is b for a, b in zip(originals, wrapped))
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                now = [hooks.original(m, c, a) for m, c, a, _ in hooks.WRAP_POINTS]
                os.write(w, bytes(a is b for a, b in zip(originals, now)))
            finally:
                os._exit(0)
        os.close(w)
        with os.fdopen(r, "rb") as fh:
            restored = fh.read()
        os.waitpid(pid, 0)
    assert list(restored) == [1] * len(hooks.WRAP_POINTS)


def test_process_pass_records_only_the_parent():
    wl = CgSweepProcess(1, nodes=(2,), nx=4)
    rec, out = _traced_pass(wl)
    m = traced_pass_metrics(rec.pass_spans(0), rec.names, rec.passes[0][1])
    # VP accesses happen in the workers; only the driver's own setup
    # writes (and no reads) are recorded in the parent.
    assert m["shared.reads"] == 0
    assert m["parallel.spawns"] == 1 and m["parallel.round_wait_s"] > 0
    assert abs(layer_sum_error(m)) < 1e-9
    wl.make_reference()
    wl.check(out)
