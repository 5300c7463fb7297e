"""Steadiness check: two sets of benchmark runs of the same tree, compared
against the bounds in ``BENCHMARK.json``.

Run from the repository root::

    python3 hostbench/steady.py

Each run is a fresh ``hostbench/run.py --trace 0`` invocation of
``run_seconds`` with its own seed; there are two sets of ten seeds (set
``k`` uses seeds ``10*k+1 ...``) over every workload in
``BENCHMARK.json``.  Runs go round-robin over the workloads, one at a
time.  For every workload and end-to-end
metric the table shows each set's median and quartiles, its spread
(interquartile distance over the median), and the second set's median
change against the first, next to the metric's bound.  A spread above
the bound, or a second median worse than the first by more than the
bound, is flagged, for every metric.  Exits 1 when anything is flagged
or a run failed.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR over median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    values = {(k, w, m): [] for k in range(SETS) for w in workloads for m in metrics}
    failed = 0
    started = time.perf_counter()
    for k in range(SETS):
        for i in range(RUNS):
            seed = k * RUNS + i + 1
            for w in workloads:
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
                took = time.perf_counter() - t0
                if proc.returncode != 0:
                    failed += 1
                    print(f"set {k} seed {seed} {w}: exit {proc.returncode}\n{proc.stderr}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                failed += result["failed"]
                for m in metrics:
                    values[(k, w, m)].append(result["metrics"][m]["value"])
                shown = " ".join(f"{m}={result['metrics'][m]['value']:.4g}" for m in metrics)
                print(f"set {k} seed {seed:>3} {w:<16} {took:6.1f}s  {shown}", flush=True)
    print(f"total {time.perf_counter() - started:.0f} s, failed passes or runs: {failed}")

    flagged = failed > 0
    print(f"\n{'workload':<16} {'metric':<12} " + " ".join(
        f"{f'set{k} median [q1, q3] spread':>40}" for k in range(SETS)
    ) + f" {'change':>8} {'bound':>6}")
    for w in workloads:
        for m, meta in metrics.items():
            cells, medians = [], []
            for k in range(SETS):
                vals = values[(k, w, m)]
                if len(vals) < 2:
                    cells.append(f"{'(too few runs)':>40}")
                    continue
                med, q1, q3, sp = spread(vals)
                medians.append(med)
                mark = "!" if sp > meta["bound"] else " "
                flagged |= mark == "!"
                cells.append(f"{med:11.4f} [{q1:9.4f}, {q3:9.4f}] {100 * sp:5.1f}%{mark}")
            change = ""
            if len(medians) == 2:
                rel = (medians[1] - medians[0]) / medians[0]
                worse = rel if meta["better"] == "lower" else -rel
                flag = "!" if worse > meta["bound"] else " "
                flagged |= flag == "!"
                change = f"{100 * rel:+6.1f}%{flag}"
            print(f"{w:<16} {m:<12} " + " ".join(cells) + f" {change:>8} {meta['bound']:>6}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
