"""Structured tracing: a ring-buffer log of typed lifecycle events.

BullFrog's claims are temporal — lazy migration cost folded into
foreground latency, background passes racing the workload — so the
interesting question is always *when* things happened relative to each
other.  :class:`TraceLog` records **complete spans** (name + start +
duration, Chrome ``ph: "X"``) and **instant events** (``ph: "i"``) from
any thread, bounded by a ring buffer that evicts the oldest events.

Two export shapes:

* :meth:`TraceLog.to_chrome` — the Chrome ``trace_event`` JSON object
  (load the file in ``about:tracing`` or https://ui.perfetto.dev);
  thread-name metadata events are synthesized so foreground workers and
  ``bullfrog-background-*`` threads land on labelled rows, making the
  overlap between foreground migration spans and background passes
  directly visible.
* :meth:`TraceLog.events` — the plain event list, for programmatic
  assertions and the text event log.

Timestamps are microseconds since the log's creation (Chrome's unit),
taken from ``time.perf_counter`` — monotonic, comparable across
threads in one process.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Iterator


class TraceEvent:
    """One trace record.  ``ph`` is the Chrome phase: ``"X"`` complete
    span, ``"i"`` instant."""

    __slots__ = ("name", "cat", "ph", "ts", "dur", "tid", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        ph: str,
        ts: float,
        dur: float | None,
        tid: int,
        args: dict[str, Any] | None,
    ) -> None:
        self.name = name
        self.cat = cat
        self.ph = ph
        self.ts = ts
        self.dur = dur
        self.tid = tid
        self.args = args

    def to_chrome(self, pid: int = 1) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "cat": self.cat or "repro",
            "ph": self.ph,
            "ts": self.ts,
            "pid": pid,
            "tid": self.tid,
        }
        if self.ph == "X":
            out["dur"] = self.dur if self.dur is not None else 0.0
        if self.ph == "i":
            out["s"] = "t"  # instant scope: thread
        if self.args:
            out["args"] = self.args
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TraceEvent({self.name!r}, ph={self.ph!r}, ts={self.ts:.1f}, "
            f"dur={self.dur}, tid={self.tid})"
        )


class _Span:
    """Context manager recording one complete event on exit."""

    __slots__ = ("_log", "name", "cat", "args", "_start")

    def __init__(self, log: "TraceLog", name: str, cat: str, args: dict | None):
        self._log = log
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self) -> "_Span":
        self._start = self._log.now_us()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            args = dict(self.args or ())
            args["error"] = exc_type.__name__
            self.args = args
        self._log.complete(self.name, self._start, cat=self.cat, args=self.args)
        return False


class TraceLog:
    """Thread-safe bounded event log.

    Appends are **latch-free**: a bounded ``deque.append`` is atomic
    under the GIL, so the hot path is one append plus one integer bump
    (eviction is implicit in ``maxlen`` and accounted by comparing the
    append count against the live length).  Thread names are resolved
    once per thread, not per event — ``threading.current_thread()`` is
    an order of magnitude more expensive than the append itself.
    Readers copy the deque in one C call (no Python-level iteration),
    so snapshots are consistent without stopping writers.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._latch = threading.Lock()  # serializes clear(), not appends
        self._epoch = time.perf_counter()
        self._thread_names: dict[int, str] = {}
        self._appends = 0

    # -- clock ---------------------------------------------------------
    def now_us(self) -> float:
        """Microseconds since the log's epoch."""
        return (time.perf_counter() - self._epoch) * 1e6

    # -- emission ------------------------------------------------------
    def _append(self, event: TraceEvent) -> None:
        self._events.append(event)
        self._appends += 1
        if event.tid not in self._thread_names:
            self._thread_names[event.tid] = threading.current_thread().name

    def instant(
        self, name: str, cat: str = "", args: dict[str, Any] | None = None
    ) -> None:
        self._append(
            TraceEvent(name, cat, "i", self.now_us(), None, threading.get_ident(), args)
        )

    def complete(
        self,
        name: str,
        start_us: float,
        cat: str = "",
        args: dict[str, Any] | None = None,
        end_us: float | None = None,
    ) -> None:
        """Record a finished span that began at ``start_us`` (from
        :meth:`now_us`)."""
        end = end_us if end_us is not None else self.now_us()
        self._append(
            TraceEvent(
                name,
                cat,
                "X",
                start_us,
                max(0.0, end - start_us),
                threading.get_ident(),
                args,
            )
        )

    def span(
        self, name: str, cat: str = "", args: dict[str, Any] | None = None
    ) -> _Span:
        """``with trace.span("migrate.wip", args={...}): ...``"""
        return _Span(self, name, cat, args)

    # -- reading -------------------------------------------------------
    def events(self) -> list[TraceEvent]:
        """Point-in-time snapshot, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events evicted by the ring so far."""
        return max(0, self._appends - len(self._events))

    def clear(self) -> None:
        with self._latch:
            self._events.clear()
            self._appends = 0

    def spans(self, name: str | None = None) -> Iterator[TraceEvent]:
        for event in self.events():
            if event.ph == "X" and (name is None or event.name == name):
                yield event

    def events_for_trace(self, trace_id: int) -> list[TraceEvent]:
        """Every event whose args carry the given ``trace`` id — the
        request tree one client statement produced, across threads."""
        return [
            event
            for event in self.events()
            if event.args is not None and event.args.get("trace") == trace_id
        ]

    # -- export --------------------------------------------------------
    def to_chrome(self, pid: int = 1) -> dict[str, Any]:
        """The Chrome ``trace_event`` object (``json.dump`` it to a file
        and open in ``about:tracing`` / Perfetto)."""
        events = list(self._events)
        names = dict(self._thread_names)
        trace_events: list[dict[str, Any]] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": tname},
            }
            for tid, tname in sorted(names.items())
        ]
        trace_events.extend(event.to_chrome(pid) for event in events)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def to_chrome_json(self, pid: int = 1) -> str:
        return json.dumps(self.to_chrome(pid), default=str)


def merge_chrome(
    documents: list[dict[str, Any]],
    names: list[str] | None = None,
) -> dict[str, Any]:
    """Stitch multiple :meth:`TraceLog.to_chrome` documents into one
    Perfetto-loadable trace, one process row per document.

    The distributed story: a client process and a ``bullfrogd`` process
    each keep their own :class:`TraceLog`; export both, merge, and the
    shared ``trace`` ids in span args tie a request's client-side span
    to the server-loop and engine spans it caused.  (In-process tests
    can instead hand the client the server's log and skip the merge.)
    """
    merged: list[dict[str, Any]] = []
    for index, document in enumerate(documents):
        pid = index + 1
        merged.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {
                    "name": names[index]
                    if names is not None and index < len(names)
                    else f"process-{pid}"
                },
            }
        )
        for event in document.get("traceEvents", ()):
            reassigned = dict(event)
            reassigned["pid"] = pid
            merged.append(reassigned)
    return {"traceEvents": merged, "displayTimeUnit": "ms"}


__all__ = ["TraceEvent", "TraceLog", "merge_chrome"]
