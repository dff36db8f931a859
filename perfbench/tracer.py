"""A thread-safe span recorder for the traced benchmark sessions.

Each thread keeps its own span stack, so a span's parent is the span that
was open in the same thread when it started.  Spans opened by a worker
thread (zvtrack fans ``class_spectrum`` out over a thread pool) are roots of
that thread's tree; like every span they carry the id of the job that was
running when they started.  Spans live in per-thread columnar buffers in
memory and are written out once, when the session ends.

Because children always run in their parent's thread and a thread runs one
span at a time, the children of a span are disjoint sub-intervals of it, so
self time is exactly the span's duration minus the sum of its children's.
"""

from __future__ import annotations

import collections
import functools
import itertools
import threading
from array import array
from time import perf_counter

import numpy as np


class _Buffer:
    """One thread's open-span stack and its finished spans, column by column."""

    def __init__(self, thread_index: int):
        self.thread = thread_index
        self.stack: list[int] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.sid = array("q")
        self.parent = array("q")
        self.job = array("i")


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._ids = itertools.count()
        self._names: dict[str, int] = {}
        self.counts: collections.Counter = collections.Counter()
        self.job = -1  # set by the session before each job; read by every thread

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def name_id(self, name: str) -> int:
        with self._lock:
            return self._names.setdefault(name, len(self._names))

    def count(self, name: str, n=1) -> None:
        with self._lock:
            self.counts[name] += n

    def open(self) -> tuple[_Buffer, int, int, float]:
        buf = self._buffer()
        sid = next(self._ids)
        parent = buf.stack[-1] if buf.stack else -1
        buf.stack.append(sid)
        return buf, sid, parent, perf_counter()

    def close(self, name_id: int, token) -> None:
        t1 = perf_counter()
        buf, sid, parent, t0 = token
        buf.stack.pop()
        buf.name.append(name_id)
        buf.start.append(t0)
        buf.end.append(t1)
        buf.sid.append(sid)
        buf.parent.append(parent)
        buf.job.append(self.job)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as a span named ``name``.

        ``after(args, kwargs, result)`` runs once the span has closed, so
        the bookkeeping it does (counting points, records, bytes) stays out
        of the span's own time.
        """
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(nid, token)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def table(self) -> dict[str, np.ndarray]:
        """All finished spans as columns, with self time; call once spans are closed."""
        with self._lock:
            bufs = list(self._buffers)
            names = sorted(self._names, key=self._names.get)
        cols = {
            key: np.concatenate([np.frombuffer(getattr(b, key), dtype=dt) for b in bufs])
            for key, dt in (
                ("name", np.int32),
                ("start", np.float64),
                ("end", np.float64),
                ("sid", np.int64),
                ("parent", np.int64),
                ("job", np.int32),
            )
        }
        cols["thread"] = np.concatenate([np.full(len(b.sid), b.thread, dtype=np.int32) for b in bufs])
        dur = cols["end"] - cols["start"]
        # span ids are 0..n-1, so they index an array directly
        child_sum = np.zeros(len(dur))
        nested = cols["parent"] >= 0
        np.add.at(child_sum, cols["parent"][nested], dur[nested])
        cols["self"] = dur - child_sum[cols["sid"]]
        cols["names"] = np.array(names)
        return cols

    @staticmethod
    def totals(table) -> dict[str, tuple[int, float]]:
        """span name -> (number of spans, summed self time)."""
        out = {}
        for i, name in enumerate(table["names"]):
            sel = table["name"] == i
            out[str(name)] = (int(sel.sum()), float(table["self"][sel].sum()))
        return out
