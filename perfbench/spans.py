"""In-memory span recorder for the traced benchmark run.

The recorder times calls into the program's public functions from the
benchmark's own files: :func:`SpanRecorder.wrap` replaces a function
on its owning class or module with a wrapper that opens a span around
the call and restores the original on :meth:`SpanRecorder.uninstall`.
Nothing under ``src/`` is edited and wrappers never touch arguments
or results, so traced runs must produce the same outcome digests as
untraced ones (the benchmark checks this).

A span is ``(name, start, end, parent, trace)``: nanosecond
``perf_counter`` stamps, the index of the enclosing span on the same
thread (``-1`` at the root), and a trace id (episode index or serve
request id).  Spans live in per-thread buffers of compact arrays until
the run ends; :meth:`SpanRecorder.summary` then folds them into per-name
call counts, busy time and self time, where self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["SpanRecorder", "self_times"]

_now = time.perf_counter_ns


class _Buffer:
    """One thread's spans, open-span stack, trace id and counters."""

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.trace = array("q")
        self.stack: List[int] = []
        self.current_trace = -1
        self.counts: Dict[str, float] = {}


class SpanRecorder:
    """Per-thread span buffers plus exact event counters."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self._installed: List[Tuple[object, str, object, Optional[str]]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def name_id(self, name: str) -> int:
        """Intern a span name."""
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self._names)
                self._names.append(name)
            return self._ids[name]

    def begin(self, name_id: int) -> int:
        """Open a span on the calling thread; returns its handle."""
        buf = self._buffer()
        index = len(buf.start)
        buf.name.append(name_id)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.trace.append(buf.current_trace)
        buf.end.append(-1)
        buf.stack.append(index)
        buf.start.append(_now())
        return index

    def end(self, index: int) -> None:
        """Close the span ``begin`` returned on this thread."""
        stamp = _now()
        buf = self._local.buf
        buf.end[index] = stamp
        buf.stack.pop()

    def set_trace(self, trace: int) -> None:
        """Tag spans the calling thread opens from now on."""
        self._buffer().current_trace = int(trace)

    def current_trace(self) -> int:
        """The trace id the calling thread tags spans with."""
        return self._buffer().current_trace

    def next_trace(self, counter: str) -> None:
        """Count one more ``counter`` and make its index the trace id."""
        buf = self._buffer()
        index = buf.counts.get(counter, 0)
        buf.counts[counter] = index + 1
        buf.current_trace = int(index)

    def count(self, name: str, value: float = 1) -> None:
        """Add to an exact counter (per thread, merged at the end)."""
        counts = self._buffer().counts
        counts[name] = counts.get(name, 0) + value

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable[["SpanRecorder", tuple, object], None]] = None,
        before: Optional[Callable[["SpanRecorder", tuple], None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``before``/``after`` run outside the span and see the call's
        arguments (and result); they may only read them and count.
        """
        original = self._original(owner, attr)
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            handle = begin(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                end(handle)
            if after is not None:
                after(self, args, result)
            return result

        self._install(owner, attr, wrapper, name)

    def count_calls(self, owner: object, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without opening a span."""
        original = self._original(owner, attr)
        count = self.count

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            count(counter)
            return original(*args, **kwargs)

        self._install(owner, attr, wrapper, None)

    @staticmethod
    def _original(owner: object, attr: str):
        """The plain function behind ``owner.attr``."""
        return _unwrap(_raw(owner, attr))

    def _install(self, owner: object, attr: str, wrapper, name: Optional[str]) -> None:
        raw = _raw(owner, attr)
        if isinstance(raw, (staticmethod, classmethod)):
            wrapper = type(raw)(wrapper)
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, raw, name))

    def installed(self) -> List[Tuple[str, object]]:
        """``(span name, original function)`` of every installed span wrapper."""
        return [(name, _unwrap(raw)) for _, _, raw, name in self._installed if name]

    def uninstall(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._installed:
            owner, attr, original, _ = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, float]:
        """Exact counters merged over threads."""
        merged: Dict[str, float] = {}
        for buf in self._buffers:
            for key, value in buf.counts.items():
                merged[key] = merged.get(key, 0) + value
        return merged

    def spans(self) -> Iterable[Tuple[str, int, int, int, int]]:
        """Every span as ``(name, start, end, parent, trace)``.

        ``parent`` indexes the same thread's spans, in this order; ``end``
        is -1 for a span still open.
        """
        for buf in self._buffers:
            for i in range(len(buf.start)):
                yield (
                    self._names[buf.name[i]],
                    buf.start[i],
                    buf.end[i],
                    buf.parent[i],
                    buf.trace[i],
                )

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``busy_ns`` and ``self_ns``."""
        out: Dict[str, Dict[str, float]] = {}
        for buf in self._buffers:
            names = [self._names[i] for i in buf.name]
            selfs = self_times(buf.start, buf.end, buf.parent)
            for i, name in enumerate(names):
                if buf.end[i] < 0:
                    continue
                entry = out.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
                entry["calls"] += 1
                entry["busy_ns"] += buf.end[i] - buf.start[i]
                entry["self_ns"] += selfs[i]
        return out

    def dump(self, path) -> None:
        """Write all spans once, one tab-separated line each."""
        with open(path, "w") as handle:
            for name, start, end, parent, trace in self.spans():
                handle.write(f"{name}\t{start}\t{end}\t{parent}\t{trace}\n")


def _raw(owner: object, attr: str):
    """``owner.attr`` as stored: a class's own attribute, or a module's."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _unwrap(raw):
    """The function inside a static or class method."""
    return raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw


def self_times(starts, ends, parents) -> List[int]:
    """Duration minus the union of child intervals, per span.

    Children are clipped to their parent's interval and merged before
    subtraction, so overlapping or out-of-bounds children never drive a
    self time negative.  Open spans (``end < 0``) count as zero.
    """
    n = len(starts)
    children: Dict[int, List[Tuple[int, int]]] = {}
    for i in range(n):
        parent = parents[i]
        if parent >= 0 and ends[i] >= 0:
            children.setdefault(parent, []).append((starts[i], ends[i]))
    out = [0] * n
    for i in range(n):
        if ends[i] < 0:
            continue
        lo, hi = starts[i], ends[i]
        covered = 0
        cursor = lo
        for c_lo, c_hi in sorted(children.get(i, ())):
            c_lo, c_hi = max(c_lo, cursor), min(c_hi, hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                cursor = c_hi
        out[i] = (hi - lo) - covered
    return out
