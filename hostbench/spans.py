"""In-memory span recorder and the self-time arithmetic over its spans.

A span is one call across a layer boundary: ``(index, name code, start
ns, end ns, parent index)``.  Spans are appended to a flat ``array`` when
they close, so recording costs one tuple and one ``array.extend`` per
call; nothing is written out until :meth:`SpanRecorder.save` at the end
of the run.  The root span of every pass is named ``"pass"``; every
other name is ``"<layer>.<what>"`` and the part before the first dot is
the layer the span's self time is charged to.
"""

from __future__ import annotations

import itertools
import time
from array import array
from collections import defaultdict

import numpy as np

ROOT = "pass"


def layer_of(name: str) -> str:
    """The layer a span name is charged to (``"shared.read"`` -> ``"shared"``)."""
    return name.split(".", 1)[0]


class SpanRecorder:
    """Spans and counters of one benchmark run, kept in memory.

    ``open``/``close`` (and :meth:`wrap`, which uses them around a call)
    record nested spans; ``count`` adds to a named counter of the
    current pass.  Passes are numbered from 0 by :meth:`begin_pass`.
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._ids = itertools.count()
        self._stack = [-1]
        self._buf = array("q")
        #: Per pass: the first span index and its counters.
        self.passes: list[tuple[int, dict]] = []

    def code(self, name: str) -> int:
        c = self._codes.get(name)
        if c is None:
            c = self._codes[name] = len(self.names)
            self.names.append(name)
        return c

    def begin_pass(self) -> tuple[int, int, int]:
        """Open the root span of a new pass; close it with :meth:`close`."""
        token = self.open(ROOT)
        self.passes.append((token[0], defaultdict(float)))
        return token

    def count(self, name: str, value: float = 1) -> None:
        self.passes[-1][1][name] += value

    def maximum(self, name: str, value: float) -> None:
        counters = self.passes[-1][1]
        counters[name] = max(counters[name], value)

    def open(self, name: str) -> tuple[int, int, int]:
        i = next(self._ids)
        self._stack.append(i)
        return i, self.code(name), self.clock()

    def close(self, token: tuple[int, int, int]) -> None:
        t1 = self.clock()
        i, code, t0 = token
        self._stack.pop()
        self._buf.extend((i, code, t0, t1, self._stack[-1]))

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``.

        The hot accessors go through here, so the closure keeps every
        lookup local instead of calling :meth:`open`/:meth:`close`.
        """
        code = self.code(name)
        ids, stack, ext, clock = self._ids, self._stack, self._buf.extend, self.clock

        def traced(*args, **kwargs):
            i = next(ids)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ext((i, code, t0, t1, stack[-1]))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def spans(self) -> np.ndarray:
        """All closed spans as an ``(n, 5)`` int64 array ordered by index."""
        a = np.frombuffer(self._buf, dtype=np.int64).reshape(-1, 5)
        return a[np.argsort(a[:, 0], kind="stable")]

    def pass_spans(self, k: int) -> np.ndarray:
        """Spans of pass ``k``, re-indexed so that parents point into the
        result.  Span indices are handed out in opening order and passes
        run one after another, so a pass owns the index range from its
        root span to the next pass's root."""
        a = self.spans()
        lo = self.passes[k][0]
        hi = self.passes[k + 1][0] if k + 1 < len(self.passes) else a[-1, 0] + 1
        sub = a[(a[:, 0] >= lo) & (a[:, 0] < hi)].copy()
        sub[:, 0] -= lo
        sub[:, 4] = np.where(sub[:, 4] >= 0, sub[:, 4] - lo, -1)
        return sub

    def save(self, path: str) -> None:
        """Write every span, the name table and per-pass counters."""
        counters = [dict(c) for _, c in self.passes]
        np.savez(
            path,
            spans=self.spans(),
            names=np.array(self.names),
            counters=np.array(repr(counters)),
        )


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of its interval that its
    children cover (children clipped to the parent, overlaps counted
    once).  ``parent[i]`` is the index of span ``i``'s parent, or -1."""
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(start.size, dtype=np.int64)
    kids = np.nonzero(parent >= 0)[0]
    p = parent[kids]
    s = np.maximum(start[kids], start[p])
    e = np.minimum(end[kids], end[p])
    order = np.lexsort((s, p))
    last, reach = -1, 0
    for pi, si, ei in zip(p[order].tolist(), s[order].tolist(), e[order].tolist()):
        if pi != last:
            last, reach = pi, int(start[pi])
        lo = max(si, reach)
        if ei > lo:
            covered[pi] += ei - lo
            reach = ei
    return end - start - covered

