"""Host-speed sampling, so timed metrics are reported at a reference speed.

This 2-CPU host's speed changes by up to 2x from one second to the next,
both CPUs alike, and CPU time tracks wall time, so it is not steal.  A
multi-second pass averages over many such changes, yet the share of slow
seconds differs from run to run, and raw pass times of the same code
spread by 10-30% across runs, more than any useful bound.  So while a
timed sample runs, a ``SIGALRM`` handler times a fixed, tiny control
(:meth:`HostSpeed.control_s`: dict updates, method calls and numpy
arithmetic on 2000-element arrays, none of it the program's) every
:data:`SAMPLE_PERIOD_S`.  The sample's seconds, net of the handler's own,
times :data:`CONTROL_REF_S` over the mean control time, is the sample at
the reference speed.  A change to the program cannot move the control,
so a slower program still reads slower; a slow stretch of the host does
not.  Large-array numpy work was tried as control and tracks the
workloads worse.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Wall seconds between two control samples.  The handler takes ~2% of
#: the time, which is taken out of the sample again.
SAMPLE_PERIOD_S = 0.02
#: Seconds the control takes at the reference speed: about its mean
#: inside a pass on the 2-CPU Xeon host the bounds were set on (it runs
#: in ~0.25 ms on its own, with warm caches).
CONTROL_REF_S = 0.0004


class _Item:
    def __init__(self, v: int) -> None:
        self.v = v

    def get(self) -> int:
        return self.v


class HostSpeed:
    """Samples the host's speed inside :meth:`active` windows.

    After a window, :attr:`controls` holds its control times (wall
    seconds, CPU seconds), :attr:`spent` the wall seconds the handler
    took, and :meth:`at_reference` converts seconds measured across the
    window.
    """

    def __init__(self) -> None:
        self._items = [_Item(i) for i in range(50)]
        self._a = np.arange(2000.0)
        self._b = self._a[::-1].copy()
        self.controls: list[tuple[float, float]] = []
        self.spent = 0.0

    def control_s(self) -> tuple[float, float]:
        """Wall and CPU seconds of the fixed control."""
        t0, c0 = time.perf_counter(), time.thread_time()
        d: dict[int, int] = {}
        for i in range(1500):
            d[i % 97] = d.get(i % 97, 0) + i
        total = 0
        for _ in range(6):
            for item in self._items:
                total += item.get()
        a = self._a
        for _ in range(30):
            a = a * 0.5 + self._b
        return time.perf_counter() - t0, time.thread_time() - c0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.controls.append(self.control_s())
        self.spent += time.perf_counter() - t0

    @contextmanager
    def active(self):
        """Sample the control every :data:`SAMPLE_PERIOD_S` for the body;
        a body shorter than one period gets one sample right after it."""
        self.controls, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if not self.controls:
            self.controls.append(self.control_s())

    def mean_control_s(self, cpu: bool = False) -> float:
        """Mean control wall (or CPU) seconds of the last window."""
        return statistics.fmean(c[cpu] for c in self.controls)

    def at_reference(self, raw: float, cpu: bool = False) -> float:
        """``raw`` wall (or CPU) seconds measured across the last window,
        net of the handler's time, at the reference speed."""
        return (raw - self.spent) * CONTROL_REF_S / self.mean_control_s(cpu)
