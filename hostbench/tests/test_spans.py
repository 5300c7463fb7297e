import numpy as np
import pytest

from metrics import LAYER_SELF, layer_sum_error, traced_pass_metrics
from spans import ROOT, SpanRecorder, self_times


def test_self_time_subtracts_nested_children():
    # root [0,100) > a [10,40) > a1 [15,25); root > b [50,90)
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 90]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [30, 20, 10, 40]


def test_overlapping_children_count_once_and_clip_to_parent():
    # children [10,30) and [20,50) cover [10,50); [90,120) sticks out of
    # the parent and only [90,100) of it counts.
    start = [0, 10, 20, 90]
    end = [100, 30, 50, 120]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == 100 - 40 - 10


def test_layer_self_times_add_up_to_the_root():
    clock = iter(range(0, 1000, 5)).__next__
    rec = SpanRecorder(clock=clock)
    outer = rec.wrap("runtime.do", lambda: inner())
    inner = rec.wrap("shared.read", lambda: None)
    token = rec.begin_pass()
    outer()
    rec.wrap("phase.commit", lambda: None)()
    rec.close(token)
    spans = rec.pass_spans(0)
    m = traced_pass_metrics(spans, rec.names, rec.passes[0][1])
    root = spans[spans[:, 4] == -1][0]
    assert rec.names[root[1]] == ROOT
    assert m["tracing.pass_s"] == pytest.approx((root[3] - root[2]) * 1e-9)
    # Clock reads 0, 5, 10, ...: root [0,35) > do [5,20) > read [10,15);
    # root > commit [25,30).
    by_layer = {layer: sum(m[k] for k in keys) for layer, keys in LAYER_SELF.items()}
    assert by_layer == pytest.approx(
        {"runtime": 10e-9, "shared": 5e-9, "phase": 5e-9, "bundling": 0.0, "scheduler": 0.0,
         "parallel": 0.0, "analysis": 0.0, "unattributed": 15e-9}
    )
    assert layer_sum_error(m) == pytest.approx(0.0, abs=1e-15)


def test_pass_spans_are_reindexed_per_pass():
    rec = SpanRecorder()
    f = rec.wrap("shared.read", lambda: None)
    for _ in range(2):
        token = rec.begin_pass()
        f()
        f()
        rec.close(token)
    second = rec.pass_spans(1)
    assert second[:, 0].tolist() == [0, 1, 2]
    assert second[:, 4].tolist() == [-1, 0, 0]
    assert np.all(second[1:, 2] >= second[0, 2])
