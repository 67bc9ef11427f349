"""Process-wide metric registry: counters, gauges, histograms.

The registry is the single source of truth for every numeric the system
exposes — the engine's :class:`~repro.core.stats.MigrationStats` is a
*view* over registry counters, the bench recorders feed the same
histograms, and the export surfaces (Prometheus text, JSON snapshot,
the shell's ``\\metrics``) all render from here.

Design points:

* **Lock-free writes, locked reads.**  There is no latch on the write
  path at all: unit increments take ``Counter.inc1`` (a pre-bound
  allocation-free ``deque.append`` of the interned ``1``), while
  ``Counter.inc(amount)`` and ``Histogram.observe`` append to the same
  per-cell ``deque`` — a single C call the GIL makes atomic, so
  concurrent updates are never lost — and the queued amounts are
  folded into the cell's totals under its lock on reads (exports,
  snapshots) or after a bounded number of appends.  The
  registry-level latch is taken only when a new metric family or a new
  label child is created — a once-per-name event, not a per-increment
  one.
* **``labels(**kv)`` child API.**  A family registered with
  ``labelnames`` hands out per-label-value children; a family without
  labels *is* its own single cell, so ``registry.counter("x").inc()``
  works directly (the prometheus-client idiom).
* **Near-zero cost when unregistered.**  :meth:`MetricRegistry.get`
  returns the shared :data:`NULL_METRIC` for unknown names, whose
  ``inc``/``set``/``observe`` are no-ops — callers can hold a metric
  handle unconditionally and pay one method call when observability is
  off.  Hot paths that want literally zero cost guard with
  ``obs is not None`` instead (the fault-seam pattern).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from functools import partial
from typing import Any, Iterable, Sequence

DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)


class NullMetric:
    """No-op stand-in for an unregistered metric (and for disabled
    observability).  Accepts the whole cell API and does nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def inc1(self) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, **kv: Any) -> "NullMetric":
        return self

    @property
    def value(self) -> float:
        return 0


NULL_METRIC = NullMetric()


class Counter:
    """Monotonically increasing cell.

    ``inc`` is lock-free but exact.  Unit increments — the hot case on
    the no-op migration loop, where a statement bumps a handful of
    counters by one — take :attr:`inc1`, a pre-bound
    ``partial(deque.append, 1)``: one atomic C call that allocates
    *nothing* (``1`` is an interned small int; an
    ``itertools.count().__next__`` here would heap-allocate a fresh
    PyLong per call, and three of those per statement measurably churn
    the allocator under the hot loop).  Arbitrary amounts append to
    the same deque and are folded into ``_base`` under the cell lock
    on reads (exports, snapshots) or after ``_COMPACT`` appends to
    bound memory; :meth:`maybe_compact` lets hot callers bound the
    inc1 queue on their own sampled cadence.  On slow hosts a lock
    round-trip costs ~5x the append, and reads are rare next to
    writes."""

    __slots__ = ("_base", "_events", "inc1", "_lock")
    kind = "counter"
    _COMPACT = 4096

    def __init__(self) -> None:
        self._base = 0
        self._events: deque = deque()
        # Hot-path unit increment: bind once, call with no glue.
        self.inc1 = partial(self._events.append, 1)
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        if amount == 1:
            self._events.append(1)
        else:
            if amount < 0:
                raise ValueError("counters cannot decrease")
            self._events.append(amount)
        if len(self._events) > self._COMPACT:
            self._compact()

    def maybe_compact(self) -> None:
        """Fold the queued increments if the queue has grown past the
        compaction bound.  ``inc1`` itself never checks (that is the
        point); writers with a natural sampled cadence call this on
        their slow path so a scrape-less process stays bounded."""
        if len(self._events) > self._COMPACT:
            self._compact()

    def _compact(self) -> float:
        with self._lock:
            base = self._base
            events = self._events
            try:
                while True:
                    base += events.popleft()
            except IndexError:
                pass
            self._base = base
            return base

    @property
    def value(self) -> float:
        return self._compact()


class Gauge:
    """Settable cell; ``None`` until first set (rendered only once set)."""

    __slots__ = ("_value", "_lock")
    kind = "gauge"

    def __init__(self) -> None:
        self._value: float | None = None
        self._lock = threading.Lock()

    def set(self, value: float | None) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value = (self._value or 0) + amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float | None:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram cell (cumulative bucket counts + sum).

    Same write path as :class:`Counter`: ``observe`` is one atomic
    ``deque.append``; bucketing (a ``bisect`` per sample) is deferred
    to the locked drain that runs on reads or after ``_COMPACT``
    appends, keeping the per-sample hot cost off the measured path."""

    __slots__ = ("buckets", "_counts", "_sum", "_count", "_events", "_lock")
    kind = "histogram"
    _COMPACT = 4096

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        ordered = tuple(sorted(buckets))
        if not ordered:
            raise ValueError("histograms need at least one bucket bound")
        self.buckets = ordered
        self._counts = [0] * (len(ordered) + 1)  # +1 = the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._events: deque = deque()
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        events = self._events
        events.append(value)
        if len(events) > self._COMPACT:
            self._drain()

    def _drain_locked(self) -> None:
        counts = self._counts
        buckets = self.buckets
        events = self._events
        total = 0.0
        drained = 0
        try:
            while True:
                value = events.popleft()
                # bisect_left: first bound >= value, i.e. the
                # `value <= bound` bucket; falls off the end into +Inf.
                counts[bisect_left(buckets, value)] += 1
                total += value
                drained += 1
        except IndexError:
            pass
        self._sum += total
        self._count += drained

    def _drain(self) -> None:
        with self._lock:
            self._drain_locked()

    def state(self) -> tuple[tuple[int, ...], int, float]:
        """Raw ``(per_bucket_counts, count, sum)`` read atomically —
        the final slot is the +Inf bucket.  The history sampler scrapes
        this shape: per-bucket (non-cumulative) counts merge across
        label children and difference across samples without the string
        keys :meth:`snapshot` builds for export."""
        with self._lock:
            self._drain_locked()
            return tuple(self._counts), self._count, self._sum

    def snapshot(self) -> dict[str, Any]:
        """Cumulative ``{le: count}`` mapping plus sum/count, read
        atomically."""
        with self._lock:
            self._drain_locked()
            counts = list(self._counts)
            total = self._count
            total_sum = self._sum
        cumulative: dict[str, float] = {}
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            cumulative[repr(bound)] = running
        cumulative["+Inf"] = running + counts[-1]
        return {"buckets": cumulative, "sum": total_sum, "count": total}

    @property
    def count(self) -> int:
        with self._lock:
            self._drain_locked()
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            self._drain_locked()
            return self._sum


_CELL_FACTORIES = {
    "counter": Counter,
    "gauge": Gauge,
}


class MetricFamily:
    """One registered name.  With ``labelnames`` it is a parent handing
    out children via :meth:`labels`; without, it delegates the cell API
    to a single default child so it can be used directly."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> None:
        _validate_name(name)
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self._buckets = tuple(buckets) if buckets is not None else None
        self._children: dict[tuple, Any] = {}
        self._latch = threading.Lock()  # creation only, never on inc/observe
        self._default = None if self.labelnames else self._make_cell()

    def _make_cell(self):
        if self.kind == "histogram":
            return Histogram(self._buckets or DEFAULT_LATENCY_BUCKETS)
        return _CELL_FACTORIES[self.kind]()

    # -- child API -----------------------------------------------------
    def labels(self, **kv: Any):
        if not self.labelnames:
            raise ValueError(f"metric {self.name!r} was registered without labels")
        try:
            key = tuple(str(kv[name]) for name in self.labelnames)
        except KeyError as exc:
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}"
            ) from exc
        # Latch-free fast path: dict reads are safe against concurrent
        # inserts under the GIL, and children are never removed.
        child = self._children.get(key)
        if child is not None:
            return child
        with self._latch:
            child = self._children.get(key)
            if child is None:
                child = self._make_cell()
                self._children[key] = child
            return child

    # -- unlabeled delegation ------------------------------------------
    def cell(self):
        """The single default cell (unlabeled families only).  Hot
        paths bind this once and call ``inc``/``observe`` on the cell
        directly, skipping the per-call family delegation."""
        return self._cell()

    def _cell(self):
        if self._default is None:
            raise ValueError(
                f"metric {self.name!r} has labels {self.labelnames}; "
                f"use .labels(...)"
            )
        return self._default

    def inc(self, amount: float = 1) -> None:
        self._cell().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self._cell().dec(amount)

    def set(self, value: float | None) -> None:
        self._cell().set(value)

    def observe(self, value: float) -> None:
        self._cell().observe(value)

    @property
    def value(self):
        return self._cell().value

    @property
    def count(self):
        return self._cell().count

    @property
    def sum(self):
        return self._cell().sum

    # -- collection ----------------------------------------------------
    def samples(self) -> list[tuple[dict[str, str], Any]]:
        """``[(labels_dict, cell), ...]`` — a point-in-time child list."""
        if self._default is not None:
            return [({}, self._default)]
        with self._latch:
            children = list(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), cell) for key, cell in children
        ]


class MetricRegistry:
    """Named metric families.  Registration is idempotent: asking for an
    existing name with the same kind returns the existing family, so
    independent components can share series without coordination."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._latch = threading.Lock()

    # -- registration --------------------------------------------------
    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] | None = None,
    ) -> MetricFamily:
        existing = self._families.get(name)
        if existing is None:
            with self._latch:
                existing = self._families.get(name)
                if existing is None:
                    existing = MetricFamily(name, kind, help, labelnames, buckets)
                    self._families[name] = existing
                    return existing
        if existing.kind != kind or existing.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered as {existing.kind} "
                f"with labels {existing.labelnames}"
            )
        return existing

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, "counter", help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> MetricFamily:
        return self._register(name, "histogram", help, labelnames, buckets)

    # -- lookup --------------------------------------------------------
    def get(self, name: str):
        """The family, or :data:`NULL_METRIC` when unregistered — callers
        can hold and poke the result unconditionally."""
        return self._families.get(name, NULL_METRIC)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def families(self) -> list[MetricFamily]:
        with self._latch:
            return list(self._families.values())

    # -- snapshots -----------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-able view of every family: the shape embedded in bench
        artifacts and answered by the ``metrics json`` verb."""
        out: dict[str, Any] = {}
        for family in self.families():
            samples = []
            for labels, cell in family.samples():
                if family.kind == "histogram":
                    samples.append({"labels": labels, **cell.snapshot()})
                else:
                    value = cell.value
                    if value is None:
                        continue
                    samples.append({"labels": labels, "value": value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return out


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricRegistry",
    "NullMetric",
    "NULL_METRIC",
    "DEFAULT_LATENCY_BUCKETS",
]
