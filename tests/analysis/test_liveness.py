"""Unit tests for the liveness pass: PPM409 dead writes.

A write overwritten by a later phase before any read is flagged;
phase loops and unanalyzable kernels are skipped (the static phase
order is then unsound for deadness), and the shipped apps are clean.
"""

from __future__ import annotations

import os

from repro.analysis.dataflow import verify_file, verify_source


def rules(diags):
    return {d.rule for d in diags}


HEADER = '''
from repro.core import ppm_function
from repro.apps.common import split_range

def build(ppm, cluster):
    X = ppm.global_shared("X", 64)
    ppm.do(cluster.total_cores(), k, X)

@ppm_function
'''


DEAD = HEADER + '''
def k(ctx, X):
    yield ctx.global_phase
    lo, hi = split_range(64, ctx.global_vp_count)[ctx.global_rank]
    X[lo:hi] = 1.0
    yield ctx.global_phase
    X[lo:hi] = 2.0
'''


PHASE_LOOP = HEADER + '''
def k(ctx, X):
    lo, hi = split_range(64, ctx.global_vp_count)[ctx.global_rank]
    for _ in range(3):
        yield ctx.global_phase
        X[lo:hi] = 1.0
'''


UNANALYZABLE = HEADER + '''
def k(ctx, X):
    if ctx.global_rank == 0:
        yield ctx.global_phase
    X[0] = 1.0
'''


def diags_of(src, name="probe.py") -> list:
    diags, _summaries = verify_source(src, name)
    return diags


class TestDeadWrites:
    def test_overwritten_block_is_ppm409(self):
        d = next(d for d in diags_of(DEAD) if d.rule == "PPM409")
        assert d.kernel == "k"
        assert d.severity == "warning"
        assert d.variable == "X"

    def test_phase_loops_disable_deadness(self):
        # Segments repeat dynamically under a phase loop: the static
        # "later phase overwrites" order is unsound, so no PPM409.
        assert "PPM409" not in rules(diags_of(PHASE_LOOP))


class TestDegradation:
    def test_unanalyzable_kernel_gets_no_liveness_findings(self):
        # PPM410 (pruning degraded) is retired, and deadness is not
        # claimed for a kernel the verifier cannot analyze.
        assert not rules(diags_of(UNANALYZABLE)) & {"PPM409", "PPM410"}


class TestShippedApps:
    def test_cg_kernel_has_no_liveness_findings(self):
        root = os.path.join(os.path.dirname(__file__), "..", "..")
        path = os.path.join(root, "src", "repro", "apps", "cg", "ppm_cg.py")
        diags, summaries = verify_file(os.path.normpath(path))
        assert summaries
        assert not rules(diags) & {"PPM406", "PPM408", "PPM409", "PPM410"}
