"""The benchmark's four workloads: inputs from a seed, one pass, and the
check every pass's output must pass.

Each workload drives the system only through its public entry points
(``ppm_cg_solve``, ``ppm_bh_simulate``, ``verify_paths``/``lint_paths``,
``Cluster``/``franklin``).  The seed reaches the program only through
the inputs it generates.  Analysis entry points are called through their
defining modules so that the traced run's wrappers (:mod:`hooks`) see
the calls.
"""

from __future__ import annotations

import glob
import multiprocessing
import os

import numpy as np

from repro.analysis import dataflow, lint
from repro.apps.barneshut import make_plummer_cloud, ppm_bh_simulate, serial_bh_simulate
from repro.apps.cg import build_chimney_problem, ppm_cg_solve, serial_cg_solve
from repro.config import franklin
from repro.machine import Cluster
from repro.obs import PhaseTrace
from repro.parallel import live_ppm_segments

#: Figure-1 CG sweep.
CG_NX = 12
CG_NODES = (1, 2, 4, 8, 16, 32, 64)
CG_ITERS = 30
#: Figure-3 Barnes-Hut run.
BH_PARTICLES = 2048
BH_NODES = 8
BH_STEPS = 2
#: Pool size of the process workload: the host's 2 CPUs.
WORKERS = 2

#: Simulated CG solve time per node count, recorded on this tree.  The
#: cost model prices work and traffic, never values, so these hold for
#: every seed (the seed only changes the right-hand side).
CG_SIMULATED_S = {
    1: "0x1.8fced50fbc606p-7",
    2: "0x1.dc2e4fdac4edfp-8",
    4: "0x1.51641824dc4f1p-8",
    8: "0x1.31c3b63c81541p-8",
    16: "0x1.4aa50c35e5b7bp-8",
    32: "0x1.7355a6ea53decp-8",
    64: "0x1.a95f3d04f6bccp-8",
}
#: Simulated Barnes-Hut time for the default seed.  The tree, and so
#: the priced work, depends on the particles; other seeds are checked
#: for pass-to-pass equality instead.
BH_SIMULATED_S = {1: "0x1.4328dad0d7aefp-8"}
#: Rounding tolerance against the serial references, relative to the
#: reference's largest magnitude: the distributed reductions sum in a
#: different order, which moves results by a few ulps per iteration.
RTOL = 1e-12

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
APP_KERNELS = "src/repro/apps/*/ppm_*.py"
#: Kernels the verifier must certify, and the findings it must report
#: over them (verifier + linter), recorded on this tree.
CERTIFIED_KERNELS = frozenset(
    {"_bh_kernel", "_bfs_kernel", "_cg_kernel", "_gen_kernel", "_mg_kernel", "_trsv_kernel"}
)
RECORDED_FINDINGS: frozenset = frozenset()


class CheckFailed(Exception):
    """A pass produced output that differs from the reference."""


def _close(name: str, got: np.ndarray, ref: np.ndarray) -> None:
    err = float(np.max(np.abs(got - ref)))
    scale = max(1.0, float(np.max(np.abs(ref))))
    if not err <= RTOL * scale:
        raise CheckFailed(f"{name} differs from the serial reference by {err:.3e}")


class Workload:
    """Inputs, one pass and its check.  ``run_pass`` returns the pass's
    output and the number of observability events it emitted (0 unless
    ``obs_trace``)."""

    name = ""
    #: Whether a pass runs PPM programs: only those can turn the
    #: program's own observability trace on and have a serial reference.
    runs_ppm = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def make_inputs(self) -> None:
        raise NotImplementedError

    def run_pass(self, obs_trace: bool = False):
        raise NotImplementedError

    def make_reference(self) -> None:
        """Compute what :meth:`check` compares against (after set-up)."""

    def check(self, output) -> None:
        raise NotImplementedError


class CgSweep(Workload):
    """Figure-1 CG over every node count; ``run_opts`` select the executor."""

    name = "cg_fig1"

    def __init__(self, seed: int, *, nodes=CG_NODES, nx=CG_NX, **run_opts) -> None:
        super().__init__(seed)
        self.nodes = tuple(nodes)
        self.nx = nx
        self.run_opts = run_opts

    def make_inputs(self) -> None:
        self.problem = build_chimney_problem(self.nx, seed=self.seed)

    def run_pass(self, obs_trace: bool = False):
        out, events = [], 0
        for n in self.nodes:
            tr = PhaseTrace() if obs_trace else None
            result, sim_s = ppm_cg_solve(
                self.problem,
                Cluster(franklin(n_nodes=n)),
                max_iters=CG_ITERS,
                tol=0.0,
                trace=tr,
                **self.run_opts,
            )
            out.append((n, result, sim_s))
            events += len(tr.events) if tr is not None else 0
        return out, events

    def make_reference(self) -> None:
        self.reference = serial_cg_solve(
            self.problem.A, self.problem.b, max_iters=CG_ITERS, tol=0.0
        ).x

    def check(self, output) -> None:
        for n, result, sim_s in output:
            if result.iterations != CG_ITERS:
                raise CheckFailed(f"{n} nodes ran {result.iterations} iterations")
            _close(f"x on {n} nodes", result.x, self.reference)
            want = CG_SIMULATED_S.get(n) if self.nx == CG_NX else None
            if want is not None and sim_s.hex() != want:
                raise CheckFailed(f"simulated time on {n} nodes is {sim_s.hex()}, recorded {want}")


class CgSweepProcess(CgSweep):
    """The same sweep on the process executor with a 2-worker pool; every
    pass must leave no shared-memory segment and no live worker."""

    name = "cg_fig1_process"

    def __init__(self, seed: int, **kw) -> None:
        super().__init__(seed, executor="process", workers=WORKERS, **kw)

    def check(self, output) -> None:
        super().check(output)
        segments = live_ppm_segments()
        if segments:
            raise CheckFailed(f"shared-memory segments left behind: {segments}")
        alive = [p.name for p in multiprocessing.active_children()]
        if alive:
            raise CheckFailed(f"worker processes left running: {alive}")


class BarnesHut(Workload):
    """Figure-3 Barnes-Hut on a Plummer cloud."""

    name = "barneshut"

    def __init__(self, seed: int, *, particles: int = BH_PARTICLES) -> None:
        super().__init__(seed)
        self.particles = particles
        self.simulated_s = BH_SIMULATED_S.get(seed) if particles == BH_PARTICLES else None

    def make_inputs(self) -> None:
        self.cloud = make_plummer_cloud(self.particles, seed=self.seed)

    def run_pass(self, obs_trace: bool = False):
        tr = PhaseTrace() if obs_trace else None
        pos, vel, mass = self.cloud
        out = ppm_bh_simulate(
            pos, vel, mass, Cluster(franklin(n_nodes=BH_NODES)), steps=BH_STEPS, trace=tr
        )
        return out, len(tr.events) if tr is not None else 0

    def make_reference(self) -> None:
        self.reference = serial_bh_simulate(*self.cloud, steps=BH_STEPS)

    def check(self, output) -> None:
        pos, vel, sim_s = output
        _close("positions", pos, self.reference[0])
        _close("velocities", vel, self.reference[1])
        if self.simulated_s is None:
            # The first checked pass records it; later passes must agree.
            self.simulated_s = sim_s.hex()
        if sim_s.hex() != self.simulated_s:
            raise CheckFailed(f"simulated time is {sim_s.hex()}, expected {self.simulated_s}")


class VerifyApps(Workload):
    """Dataflow verifier plus linter over the six application kernels.
    The seed only fixes the order the kernel files are handed over in."""

    name = "verify_apps"
    runs_ppm = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.findings = RECORDED_FINDINGS

    def make_inputs(self) -> None:
        paths = sorted(glob.glob(os.path.join(ROOT, APP_KERNELS)))
        order = np.random.default_rng(self.seed).permutation(len(paths))
        self.paths = [paths[i] for i in order]

    def run_pass(self, obs_trace: bool = False):
        diags, summaries = dataflow.verify_paths(self.paths)
        diags = diags + lint.lint_paths(self.paths)
        return (diags, summaries), 0

    def check(self, output) -> None:
        diags, summaries = output
        certified = {s.name for s in summaries if s.certified}
        if certified != CERTIFIED_KERNELS or len(summaries) != len(CERTIFIED_KERNELS):
            raise CheckFailed(f"certified kernels {sorted(certified)} of {len(summaries)}")
        found = frozenset(
            (d.rule, os.path.basename(d.path or ""), d.line, d.kernel) for d in diags
        )
        if found != self.findings:
            raise CheckFailed(f"findings {sorted(found)} differ from {sorted(self.findings)}")


WORKLOADS = {
    w.name: w for w in (CgSweep, CgSweepProcess, BarnesHut, VerifyApps)
}
