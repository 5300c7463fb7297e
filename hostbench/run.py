"""Host-time benchmark of the PPM reproduction, end to end and per layer.

Run from the repository root::

    python3 hostbench/run.py --workload cg_fig1 --seed 1 --seconds 12 --trace 0
    python3 hostbench/run.py --workload all --seed 1 --seconds 12

``--trace 0`` measures the unmodified program and reports the
end-to-end metrics, each timed sample scaled to a reference host speed
by a control sampled while it runs (:mod:`hostspeed`; the raw samples
and the control means are in the record); ``--trace 1`` adds span
wrappers around every layer boundary (:mod:`hooks`) and reports the
per-layer metrics of the median traced pass, alternating with plain
passes so the tracing overhead is measured in the same window.  Every
pass's output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload in its own interpreter and prints
every end-to-end metric, ``fail_frac`` included, as one table.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Set-up samples per run: fresh interpreters started one after another,
#: so the load still comes from one process at a time.
SETUP_SAMPLES = 3
#: A run measures at least this many passes, however long they take.
MIN_PASSES = 3
#: A fresh set-up interpreter that takes longer than this has failed.
SETUP_TIMEOUT_S = 60


#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_descendants() -> None:
    """Make this process the subreaper of everything it starts, so a
    descendant whose parent ended (a set-up child killed on time-out,
    the resource tracker of a set-up child) comes back to it to be
    stopped and waited for by :func:`stop_descendants`."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - not Linux
        pass


def _children() -> list[int]:
    pids = []
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path) as fh:
            pids += [int(p) for p in fh.read().split()]
    return pids


def stop_descendants() -> None:
    """Stop every process this one started and wait until each has
    ended.  Runs at exit, after multiprocessing has joined the program's
    pool workers.  Creating a shared-memory segment starts
    multiprocessing's resource tracker, which otherwise outlives this
    process: it is stopped the way multiprocessing's own tests stop it,
    which waits for it.  Whatever is left (only after a failure) is
    killed and waited for, until no child remains."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    while True:
        pids = _children()
        if not pids:
            break
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        for pid in pids:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass


def since_start_s() -> float:
    """Seconds since this process was created (10 ms resolution): the
    set-up time of a fresh interpreter, interpreter start-up included."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def steal_s() -> float:
    """Cumulative CPU time stolen from this host by its hypervisor."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def cpu_s(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"unknown"`` outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha1 over ``src/repro``, identifying the measured code without git."""
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:12]


def host_tags() -> dict:
    import numpy
    import scipy

    model = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "git_rev": git_rev(),
        "src_sha1": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Run:
    """One benchmark run of one workload: set-up, timed passes, checks."""

    def __init__(self, workload) -> None:
        self.wl = workload
        self.attempted = 0
        self.failed = 0

    def timed_pass(self, obs_trace: bool = False, rec=None, speed=None):
        """One checked pass: (wall s, parent CPU s, child CPU s, events),
        or None when it raised or its output failed the check.  With a
        span recorder, the pass (not its check) is its root span; with a
        :class:`~hostspeed.HostSpeed`, the pass is one of its windows."""
        self.attempted += 1
        window = speed.active() if speed is not None else contextlib.nullcontext()
        try:
            with window:
                c0, k0 = cpu_s(resource.RUSAGE_SELF), cpu_s(resource.RUSAGE_CHILDREN)
                t0 = time.perf_counter()
                token = rec.begin_pass() if rec is not None else None
                try:
                    out, events = self.wl.run_pass(obs_trace)
                finally:
                    if token is not None:
                        rec.close(token)
                wall = time.perf_counter() - t0
                c1, k1 = cpu_s(resource.RUSAGE_SELF), cpu_s(resource.RUSAGE_CHILDREN)
            self.wl.check(out)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        return wall, c1 - c0, k1 - k0, events

    def check_warmup(self, out) -> None:
        self.attempted += 1
        try:
            self.wl.check(out)
        except Exception:
            self.failed += 1
            traceback.print_exc()


def setup(args):
    """Imports, inputs and the untimed warm-up pass; returns the
    workload, its warm-up output and the input-generation seconds."""
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    t0 = time.perf_counter()
    wl.make_inputs()
    inputs_s = time.perf_counter() - t0
    warm, _ = wl.run_pass()
    return wl, warm, inputs_s


def fresh_setup_s(args, run: Run) -> tuple[float, float] | None:
    """Set-up seconds of a fresh interpreter, interpreter start-up
    included, at the reference speed and raw; None if it failed (a
    failed attempt)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    run.attempted += 1
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        run.failed += 1
        return None
    if proc.returncode != 0:
        run.failed += 1
        sys.stderr.write(proc.stderr)
        return None
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["raw_setup_s"]


def setup_only(args) -> dict:
    """The ``--setup-only`` child: set up once, sampling the host speed."""
    from hostspeed import HostSpeed

    speed = HostSpeed()
    with speed.active():
        setup(args)
        raw = since_start_s()
    return {"setup_s": speed.at_reference(raw), "raw_setup_s": raw - speed.spent}


def measure(args) -> tuple[dict, dict]:
    from hostspeed import HostSpeed
    from metrics import END_TO_END, median, percentile_tail

    wl, warm, inputs_s = setup(args)
    run = Run(wl)
    setups, setups_raw = [], []
    for _ in range(SETUP_SAMPLES):
        s = fresh_setup_s(args, run)
        if s is not None:
            setups.append(s[0])
            setups_raw.append(s[1])
    wl.make_reference()
    run.check_warmup(warm)

    speed = HostSpeed()
    walls, cpus, walls_raw, cpus_raw, controls = [], [], [], [], []
    passes = 0
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end or passes < MIN_PASSES:
        passes += 1
        r = run.timed_pass(speed=speed)
        if r is None:
            continue
        walls.append(speed.at_reference(r[0]))
        cpus.append(speed.at_reference(r[1] + r[2], cpu=True))
        walls_raw.append(r[0] - speed.spent)
        cpus_raw.append(r[1] + r[2] - speed.spent)
        controls.append(speed.mean_control_s())
    values = {
        "run_s": median(walls),
        "cpu_s": median(cpus),
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}
    extra = {
        "passes": len(walls),
        "run_s_samples": walls,
        "setup_s_samples": setups,
        "run_s_tail": percentile_tail(walls),
        "raw_run_s": median(walls_raw),
        "raw_cpu_s": median(cpus_raw),
        "raw_setup_s": median(setups_raw),
        "raw_run_s_samples": walls_raw,
        "raw_setup_s_samples": setups_raw,
        "control_s_means": controls,
        "fail_frac": run.failed / run.attempted,
        "inputs_s": inputs_s,
    }
    return _result(run, metrics), extra


def measure_traced(args) -> tuple[dict, dict]:
    import hooks
    from metrics import PER_LAYER, LAYER_SELF, layer_sum_error, median, traced_pass_metrics
    from spans import SpanRecorder
    from workloads import WORKERS

    wl, warm, inputs_s = setup(args)
    run = Run(wl)
    t0 = time.perf_counter()
    wl.make_reference()
    serial_s = time.perf_counter() - t0
    run.check_warmup(warm)

    rec = SpanRecorder()
    plain, traced, obs = [], [], []
    events = 0
    cycles = 0
    t_end = time.perf_counter() + args.seconds
    while cycles == 0 or time.perf_counter() < t_end:
        cycles += 1
        r = run.timed_pass()
        if r is not None:
            plain.append(r[0])
        with hooks.installed(rec):
            r = run.timed_pass(rec=rec)
        if r is not None:
            traced.append((len(rec.passes) - 1, r[2]))
        if wl.runs_ppm:
            r = run.timed_pass(obs_trace=True)
            if r is not None:
                obs.append(r[0])
                events = r[3]
    if not traced:
        raise RuntimeError("no traced pass completed")

    candidates = []
    for k, child_cpu in traced:
        m = traced_pass_metrics(rec.pass_spans(k), rec.names, rec.passes[k][1])
        candidates.append((m["tracing.pass_s"], k, m, child_cpu))
    candidates.sort()
    _, k, m, child_cpu = candidates[(len(candidates) - 1) // 2]
    err = layer_sum_error(m)
    if abs(err) > 1e-6:
        raise RuntimeError(f"layer self times miss the traced pass time by {err} s")
    plain_s = median(plain)
    workers = WORKERS if m["parallel.spawns"] else 0
    m.update({
        "parallel.worker_cpu_s": child_cpu if workers else 0.0,
        "parallel.worker_busy_frac": child_cpu / (workers * m["runtime.do_s"]) if workers else 0.0,
        "obs.trace_ratio": median(obs) / plain_s if obs and plain_s else 0.0,
        "obs.events": events,
        "apps.inputs_s": inputs_s,
        "apps.serial_s": serial_s if wl.runs_ppm else 0.0,
        "tracing.plain_s": plain_s,
        "tracing.overhead_s": median([t for t, *_ in candidates]) - plain_s,
    })
    os.makedirs(OUT, exist_ok=True)
    rec.save(os.path.join(OUT, f"spans-{wl.name}.npz"))
    for layer, keys in LAYER_SELF.items():
        s = sum(m[k] for k in keys)
        print(f"layer {layer:<13} self {s:9.4f} s  {100 * s / m['tracing.pass_s']:5.1f}%")
    print(f"traced pass {m['tracing.pass_s']:.4f} s, plain {plain_s:.4f} s, "
          f"overhead {m['tracing.overhead_s']:+.4f} s, layer sum error {err:.1e} s")
    metrics = {k: {"value": m[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    extra = {
        "traced_passes": len(traced),
        "plain_passes": len(plain),
        "obs_passes": len(obs),
        "representative_pass": k,
        "fail_frac": run.failed / run.attempted,
    }
    return _result(run, metrics), extra


def _result(run: Run, metrics: dict) -> dict:
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Every workload in its own interpreter; one table of every
    end-to-end metric with its unit, plus ``fail_frac``."""
    from metrics import END_TO_END
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    cols = list(END_TO_END) + ["fail_frac"]
    units = [END_TO_END[c][0] for c in END_TO_END] + ["ratio"]
    print(f"{'workload':<16}" + "".join(f"{f'{c} [{u}]':>18}" for c, u in zip(cols, units)))
    merged = {}
    for name, r in results.items():
        fail_frac = r["failed"] / r["attempted"]
        vals = [r["metrics"][c]["value"] for c in END_TO_END] + [fail_frac]
        print(f"{name:<16}" + "".join(f"{v:>18.4f}" for v in vals))
        for c, v in zip(cols, vals):
            merged[f"{name}.{c}"] = {"value": v, "unit": units[cols.index(c)]}
    ratio = results["cg_fig1"]["metrics"]["run_s"]["value"] / results["cg_fig1_process"]["metrics"]["run_s"]["value"]
    print(f"process-vs-inline speed (cg_fig1.run_s / cg_fig1_process.run_s): {ratio:.3f}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": merged,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Registered before anything that starts a process, so it runs last.
    atexit.register(stop_descendants)
    adopt_descendants()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import WORKLOADS

    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    if args.setup_only:
        print(json.dumps(setup_only(args)))
        return 0

    steal0 = steal_s()
    result, extra = (measure_traced if args.trace else measure)(args)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **host_tags(),
        "steal_s": steal_s() - steal0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        **extra,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "records.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
