import json
import os
import subprocess
import sys

import numpy as np

import metrics
import run
from workloads import CG_ITERS, BarnesHut, CgSweep, VerifyApps


class PerturbedCg(CgSweep):
    def run_pass(self, obs_trace=False):
        out, events = super().run_pass(obs_trace)
        n, result, sim_s = out[0]
        x = result.x.copy()
        x[0] += 1e-6
        out[0] = (n, type(result)(x, result.iterations, result.residual_norm, result.converged), sim_s)
        return out, events


def _run(workload):
    workload.make_inputs()
    workload.make_reference()
    return run.Run(workload)


def test_perturbed_output_counts_as_failed_pass():
    r = _run(PerturbedCg(1, nodes=(1, 2), nx=4))
    assert r.timed_pass() is None
    assert (r.attempted, r.failed) == (1, 1)
    r.wl = CgSweep(1, nodes=(1, 2), nx=4)
    r.wl.make_inputs()
    r.wl.make_reference()
    assert r.timed_pass() is not None
    assert (r.attempted, r.failed) == (2, 1)


def test_unexpected_findings_fail_the_pass():
    wl = VerifyApps(1)
    wl.findings = frozenset({("PPM401", "ppm_cg.py", 1, "_cg_kernel")})
    r = _run(wl)
    assert r.timed_pass() is None and r.failed == 1


def test_raising_pass_counts_as_failed():
    class Broken(CgSweep):
        def run_pass(self, obs_trace=False):
            raise ValueError("boom")

    r = _run(Broken(1, nodes=(1,), nx=4))
    assert r.timed_pass() is None and (r.attempted, r.failed) == (1, 1)


def test_seed_changes_inputs_and_nothing_else():
    a, b = CgSweep(1, nodes=(1, 2), nx=4), CgSweep(2, nodes=(1, 2), nx=4)
    for w in (a, b):
        w.make_inputs()
    assert (a.nodes, a.nx, a.run_opts) == (b.nodes, b.nx, b.run_opts)
    assert (a.problem.A != b.problem.A).nnz == 0
    assert not np.array_equal(a.problem.b, b.problem.b)
    (out_a, _), (out_b, _) = a.run_pass(), b.run_pass()
    assert [(n, r.iterations, t) for n, r, t in out_a] == [(n, r.iterations, t) for n, r, t in out_b]
    assert all(r.iterations == CG_ITERS for _, r, _ in out_a)

    p, q = BarnesHut(1, particles=64), BarnesHut(2, particles=64)
    p.make_inputs()
    q.make_inputs()
    assert p.particles == q.particles
    assert not np.array_equal(p.cloud[0], q.cloud[0])

    v, w = VerifyApps(1), VerifyApps(2)
    v.make_inputs()
    w.make_inputs()
    assert sorted(v.paths) == sorted(w.paths) and len(v.paths) == 6


def test_benchmark_json_matches_metric_definitions():
    root = os.path.dirname(run.HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    assert e2e == metrics.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == {k: v[:2] for k, v in metrics.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run_workloads())


def run_workloads():
    from workloads import WORKLOADS

    return WORKLOADS


def test_tail_percentile_needs_ten_samples_beyond():
    assert metrics.percentile_tail(list(range(19))) is None
    p, _ = metrics.percentile_tail(list(range(100)))
    assert p == 90


def test_exit_stops_orphaned_descendants():
    # A child that leaves a grandchild running when it ends: as the
    # subreaper, the benchmark gets the grandchild back and stops it.
    script = (
        "import subprocess, sys, time, run\n"
        "run.adopt_descendants()\n"
        "subprocess.run([sys.executable, '-c', "
        "'import subprocess; subprocess.Popen([\"sleep\", \"60\"])'])\n"
        "time.sleep(0.2)\n"
        "before = run._children()\n"
        "run.stop_descendants()\n"
        "print(len(before), len(run._children()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=run.HERE, timeout=60)
    assert proc.stdout.split() == ["1", "0"], proc.stderr
