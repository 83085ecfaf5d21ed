"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, op id, count).  Spans are recorded
only around the benchmark's own calls into the package's public
functions; nothing inside the package is instrumented.  The recorder
keeps flat typed arrays so a long traced run stays small in memory, and
writes them out once, when the run ends.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from time import perf_counter

import numpy as np


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: layer functions are called directly, spans cost nothing."""

    enabled = False

    def wrap(self, name, fn):
        return fn

    def span(self, name, count=1):
        return _NULL_SPAN

    def begin_op(self, op_id):
        pass


class _Span:
    __slots__ = ("tracer", "nid", "count", "idx")

    def __init__(self, tracer, nid, count):
        self.tracer = tracer
        self.nid = nid
        self.count = count

    def __enter__(self):
        self.idx = self.tracer._open(self.nid, self.count)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


class Tracer:
    """Tracing on: every wrapped call and every ``span`` block is recorded."""

    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.count = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op_id = -1

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, count: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.count.append(count)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> None:
        """Spans opened from now on belong to operation ``op_id``."""
        self._op_id = op_id

    def span(self, name: str, count: int = 1) -> _Span:
        """Context manager recording one span; ``count`` is the number of
        calls it stands for (a replay loop records one span for many calls)."""
        return _Span(self, self._nid(name), count)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._nid(name)

        def traced(*args, **kwargs):
            idx = self._open(nid, 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- reading the record -------------------------------------------------

    def spans(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(op ids, durations in s, counts) of every span called ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            empty = np.zeros(0)
            return empty.astype(int), empty, empty.astype(int)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        sel = ids == nid
        dur = np.frombuffer(self.end)[sel] - np.frombuffer(self.start)[sel]
        return (
            np.frombuffer(self.op, dtype=np.int32)[sel],
            dur,
            np.frombuffer(self.count, dtype=np.int32)[sel],
        )

    def write(self, path: Path) -> None:
        """Write every span to ``path`` as a compressed numpy archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            count=np.frombuffer(self.count, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
