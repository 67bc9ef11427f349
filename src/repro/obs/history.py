"""Metrics time-series history: a background sampler over the registry.

Every other observability surface — registry snapshots, ``bullfrog_stat_*``
views, Prometheus text — is *point-in-time*: cumulative counters since
process start.  An operator watching a lazy migration degrade needs
rates and trends ("QPS fell when the claim loop went hot", "lock-wait
p99 spiked 30 seconds before the stall"), and the flight recorder needs
the recent past to still exist when an incident fires.  This module
adds that dimension:

* :class:`MetricsHistory` — a daemon thread scrapes an
  :class:`~repro.obs.observability.Observability` bundle's registry and
  wait-class totals every ``interval`` seconds into a fixed-width ring
  of :class:`HistorySample` snapshots (counters merged per family and
  kept per label child, gauges, and histogram bucket states).  The
  ring is a ``deque(maxlen=capacity)``: appends are GIL-atomic,
  readers copy, nothing blocks the sampler.
* **Window queries** over the ring: :meth:`MetricsHistory.rate` (sum of
  positive adjacent deltas — a counter that *shrinks* between samples
  was reset, e.g. a registry replaced under a live sampler, and the
  post-reset value counts from zero rather than poisoning the rate
  with a huge negative) and :meth:`MetricsHistory.percentile`
  (histogram bucket-count deltas between the window's endpoints,
  linearly interpolated within the bucket).
* **One derivation** of the headline numbers (rates, p50/p95/p99,
  lock-wait p99, wait ms/s) from a run of samples: :func:`_derive`.
  :meth:`MetricsHistory.summary` applies it to the trailing window
  (what ``\\top`` renders), :meth:`MetricsHistory.rows` to each
  adjacent sample pair (the ``bullfrog_stat_history`` view and the
  ``history`` verb).
* **Listeners**: the health engine registers one and is re-evaluated on
  the sampling cadence, which is what turns "rule over a history
  window" into a live breach signal without a second timer thread.

Overhead contract: the sampler is a *reader* — the write path gains
nothing.  Scraping N families at 4 Hz from a side thread costs lock
round-trips on the cells only at scrape instants; the bench
(``benchmarks/bench_obs_overhead.py``, leg ``sampler``) prices a bundle
with the sampler running — what a monitored bullfrogd runs — against a
detached database, bound <5%.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Iterable

# Registry names the derived summary/rows read.  Nothing here is
# required to exist: a series nobody has registered yet (no migration
# submitted, no server running) degrades to None/0.0.
STATEMENTS_TOTAL = "repro_statements_total"
STATEMENT_SECONDS = "repro_statement_seconds"
TXN_COMMITS = "repro_txn_commits_total"
TXN_ABORTS = "repro_txn_aborts_total"
DEADLOCKS = "repro_deadlock_aborts_total"
LOCK_TIMEOUTS = "repro_lock_timeouts_total"
SERIALIZATION_FAILURES = "repro_serialization_failures_total"
WAL_BATCHES = "repro_wal_batches_total"
LOCK_WAIT_SECONDS = "repro_lock_wait_seconds"
MIGRATION_FRACTION = "bullfrog_migration_progress_fraction"
MIGRATION_TUPLE_RATE = "bullfrog_migration_tuples_per_second"
MIGRATION_ETA = "bullfrog_migration_eta_seconds"
MIGRATION_RUNNING = "bullfrog_migration_running"
MIGRATION_TUPLES = "bullfrog_migration_tuples_migrated_total"
MIGRATION_GRANULES = "bullfrog_migration_granules_migrated_total"


def _flat(name: str, labels: dict[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


class HistorySample:
    """One scrape: flattened scalars plus merged histogram states.

    ``counters`` maps both the bare family name (children summed — the
    shape rates want) and each labeled child (``name{k=v}``);
    ``gauges`` maps set gauges only; ``hists`` maps family name to
    ``(bounds, per_bucket_counts, count, sum)`` merged across label
    children (all children of a family share bucket bounds), with the
    final slot of ``per_bucket_counts`` being the +Inf bucket.
    ``waits`` carries the wait-class classifier totals
    (``{cls: (count, total_seconds)}``).
    """

    __slots__ = ("ts", "mono", "counters", "gauges", "hists", "waits")

    def __init__(
        self,
        ts: float,
        mono: float,
        counters: dict[str, float],
        gauges: dict[str, float],
        hists: dict[str, tuple],
        waits: dict[str, tuple[int, float]],
    ) -> None:
        self.ts = ts
        self.mono = mono
        self.counters = counters
        self.gauges = gauges
        self.hists = hists
        self.waits = waits


def sum_positive_deltas(values: Iterable[float]) -> float:
    """Total increase across a counter series, treating any decrease as
    a reset: the post-reset reading counts from zero.  This is the
    Prometheus ``increase()`` convention and the reason the overhead
    bench's live registry swaps cannot poison a rate."""
    total = 0.0
    prev: float | None = None
    for value in values:
        if prev is None:
            prev = value
            continue
        delta = value - prev
        total += delta if delta >= 0.0 else value
        prev = value
    return total


def percentile_from_buckets(
    bounds: tuple[float, ...], bucket_counts: list[float], q: float
) -> float | None:
    """Linear-interpolated quantile from per-bucket (non-cumulative)
    counts; the final slot is the +Inf bucket, reported as the highest
    finite bound (there is nothing to interpolate toward)."""
    total = sum(bucket_counts)
    if total <= 0.0:
        return None
    target = q * total
    running = 0.0
    lo = 0.0
    for bound, count in zip(bounds, bucket_counts):
        if count > 0.0 and running + count >= target:
            return lo + (bound - lo) * (target - running) / count
        running += count
        lo = bound
    return bounds[-1]


def _span(samples: list[HistorySample]) -> float:
    """Seconds between the first and last sample (0.0 with fewer than
    two)."""
    return samples[-1].mono - samples[0].mono if len(samples) >= 2 else 0.0


def _rate(samples: list[HistorySample], name: str) -> float | None:
    """Per-second reset-aware increase of counter ``name`` across the
    samples; ``None`` with fewer than two or no elapsed time."""
    dt = _span(samples)
    if dt <= 0.0:
        return None
    return sum_positive_deltas(s.counters.get(name, 0.0) for s in samples) / dt


def _percentile(
    samples: list[HistorySample], name: str, q: float
) -> float | None:
    """Quantile of histogram ``name`` across the samples: bucket-count
    deltas between the first and last sample holding it, interpolated
    within the landing bucket.  A shrinking bucket count means the
    registry was reset in between; the newest cumulative state stands
    in alone (everything it holds arrived after the reset)."""
    held = [s.hists[name] for s in samples if name in s.hists]
    if not held:
        return None
    bounds, new_counts, _, _ = held[-1]
    if len(held) == 1 or len(held[0][1]) != len(new_counts):
        return percentile_from_buckets(bounds, list(new_counts), q)
    deltas = [n - o for n, o in zip(new_counts, held[0][1])]
    if any(d < 0 for d in deltas):  # reset in between
        deltas = list(new_counts)
    return percentile_from_buckets(bounds, deltas, q)


def _wait_rates(samples: list[HistorySample]) -> dict[str, float]:
    """Wait-class milliseconds accrued per second of wall time across
    the samples."""
    dt = _span(samples)
    if dt <= 0.0:
        return {}
    out: dict[str, float] = {}
    for cls in set(samples[0].waits) | set(samples[-1].waits):
        seconds = sum_positive_deltas(s.waits.get(cls, (0, 0.0))[1] for s in samples)
        out[cls] = seconds * 1e3 / dt
    return out


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1e3


def _derive(samples: list[HistorySample]) -> dict[str, Any]:
    """The headline numbers over a run of samples, oldest first: the
    counter rates, statement p50/p95/p99 and lock-wait p99 in ms, and
    wait-class ms per second.  ``qps`` counts statements and
    ``commits_per_sec`` transactions, which an autocommit SELECT is
    not.  :meth:`MetricsHistory.summary` applies
    it to a window, :meth:`MetricsHistory.rows` to each adjacent pair,
    so the two surfaces cannot disagree."""
    return {
        "qps": _rate(samples, STATEMENTS_TOTAL),
        "commits_per_sec": _rate(samples, TXN_COMMITS),
        "aborts_per_sec": _rate(samples, TXN_ABORTS),
        "deadlocks_per_sec": _rate(samples, DEADLOCKS),
        "serialization_failures_per_sec": _rate(samples, SERIALIZATION_FAILURES),
        "wal_batches_per_sec": _rate(samples, WAL_BATCHES),
        "p50_ms": _ms(_percentile(samples, STATEMENT_SECONDS, 0.50)),
        "p95_ms": _ms(_percentile(samples, STATEMENT_SECONDS, 0.95)),
        "p99_ms": _ms(_percentile(samples, STATEMENT_SECONDS, 0.99)),
        "lock_wait_p99_ms": _ms(_percentile(samples, LOCK_WAIT_SECONDS, 0.99)),
        "wait_ms_per_sec": _wait_rates(samples),
    }


class MetricsHistory:
    """Fixed-width ring of snapshots of one
    :class:`~repro.obs.observability.Observability` bundle's registry
    and wait-class totals, with window queries.  The sampler thread is
    started explicitly (:meth:`start`) or implicitly by
    ``Observability.attach_history``; :meth:`sample_now` scrapes
    synchronously for deterministic tests and for callers that want a
    fresh endpoint sample.
    """

    def __init__(
        self,
        obs: Any,
        interval: float = 0.25,
        capacity: int = 240,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if capacity < 2:
            raise ValueError("capacity must hold at least two samples")
        self.obs = obs
        self.interval = interval
        self.capacity = capacity
        self._ring: deque[HistorySample] = deque(maxlen=capacity)
        self._listeners: list[Callable[[HistorySample], None]] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._latch = threading.Lock()  # start/stop only
        self.samples_taken = 0
        self.samples_evicted = 0
        self.sampler_errors = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MetricsHistory":
        with self._latch:
            if self._thread is None or not self._thread.is_alive():
                self._stop = threading.Event()
                self._thread = threading.Thread(
                    target=self._run,
                    name="repro-history-sampler",
                    daemon=True,
                )
                self._thread.start()
        return self

    def stop(self) -> None:
        with self._latch:
            thread = self._thread
            self._stop.set()
            self._thread = None
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)

    close = stop

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def _run(self) -> None:
        stop = self._stop
        while not stop.wait(self.interval):
            try:
                self.sample_now()
            except Exception:
                # A scrape must never kill the sampler: a torn metric
                # family mid-registration is transient, and the next
                # tick retries.
                self.sampler_errors += 1

    def add_listener(self, listener: Callable[[HistorySample], None]) -> None:
        """Called with each new sample, on the sampler thread (or the
        caller's, for :meth:`sample_now`).  Listener errors are counted,
        never raised — the health engine hangs off this."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Scraping
    # ------------------------------------------------------------------
    def sample_now(self) -> HistorySample:
        sample = self._scrape()
        if len(self._ring) == self.capacity:
            self.samples_evicted += 1
        self._ring.append(sample)
        self.samples_taken += 1
        for listener in self._listeners:
            try:
                listener(sample)
            except Exception:
                self.sampler_errors += 1
        return sample

    def _scrape(self) -> HistorySample:
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        hists: dict[str, tuple] = {}
        for family in self.obs.registry.families():
            kind = family.kind
            if kind == "counter":
                total = 0.0
                for labels, cell in family.samples():
                    value = cell.value
                    total += value
                    if labels:
                        counters[_flat(family.name, labels)] = value
                counters[family.name] = total
            elif kind == "gauge":
                for labels, cell in family.samples():
                    value = cell.value
                    if value is None:
                        continue
                    gauges[_flat(family.name, labels)] = value
            else:  # histogram: merge children (shared bounds per family)
                bounds: tuple[float, ...] | None = None
                merged: list[float] | None = None
                count = 0
                total_sum = 0.0
                for labels, cell in family.samples():
                    child_counts, child_count, child_sum = cell.state()
                    if merged is None:
                        bounds = cell.buckets
                        merged = list(child_counts)
                    else:
                        for i, c in enumerate(child_counts):
                            merged[i] += c
                    count += child_count
                    total_sum += child_sum
                if merged is not None and bounds is not None:
                    hists[family.name] = (bounds, merged, count, total_sum)
        return HistorySample(
            time.time(), time.perf_counter(), counters, gauges, hists,
            self.obs.wait_events_snapshot(),
        )

    # ------------------------------------------------------------------
    # Window queries
    # ------------------------------------------------------------------
    def samples(self, window: float | None = None) -> list[HistorySample]:
        """Retained samples, oldest first; ``window`` keeps only those
        within the trailing ``window`` seconds of the newest sample
        (endpoints inclusive)."""
        out = list(self._ring)
        if window is None or not out:
            return out
        cutoff = out[-1].mono - window - 1e-9
        return [s for s in out if s.mono >= cutoff]

    def latest(self) -> HistorySample | None:
        try:
            return self._ring[-1]
        except IndexError:
            return None

    def rate(self, name: str, window: float | None = None) -> float | None:
        """Per-second increase of counter ``name`` over the window,
        reset-aware (see :func:`sum_positive_deltas`).  ``None`` until
        two samples exist or when no time has passed."""
        return _rate(self.samples(window), name)

    def percentile(
        self, name: str, q: float, window: float | None = None
    ) -> float | None:
        """Quantile of histogram ``name`` over the window, in seconds
        (see :func:`_percentile`)."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        return _percentile(self.samples(window), name, q)

    # ------------------------------------------------------------------
    # Derived surfaces
    # ------------------------------------------------------------------
    def summary(self, window: float = 5.0) -> dict[str, Any]:
        """The headline numbers ``\\top`` renders over the trailing
        window, plus the newest sample's migration-progress gauges."""
        samples = self.samples(window)
        latest = samples[-1] if samples else None
        gauges = latest.gauges if latest is not None else {}
        return {
            "ts": latest.ts if latest is not None else None,
            "window_seconds": _span(samples),
            "samples": len(samples),
            "interval": self.interval,
            **_derive(samples),
            "migration": {
                "running": gauges.get(MIGRATION_RUNNING),
                "fraction": gauges.get(MIGRATION_FRACTION),
                "tuples_per_sec": gauges.get(MIGRATION_TUPLE_RATE),
                "eta_seconds": gauges.get(MIGRATION_ETA),
            },
        }

    def rows(self, window: float | None = None) -> list[dict[str, Any]]:
        """One derived row per adjacent sample pair, oldest first — the
        shape behind ``bullfrog_stat_history`` and the ``history``
        verb.  Each row is :func:`_derive` over its pair; migration
        numbers are the row's gauge readings."""
        samples = self.samples(window)
        rows: list[dict[str, Any]] = []
        for prev, cur in zip(samples, samples[1:]):
            dt = cur.mono - prev.mono
            if dt <= 0.0:
                continue
            derived = _derive([prev, cur])
            waits = derived["wait_ms_per_sec"]
            rows.append(
                {
                    "ts": cur.ts,
                    "dt_seconds": dt,
                    "qps": derived["qps"],
                    "commits_per_sec": derived["commits_per_sec"],
                    "aborts_per_sec": derived["aborts_per_sec"],
                    "deadlocks_per_sec": derived["deadlocks_per_sec"],
                    "wal_batches_per_sec": derived["wal_batches_per_sec"],
                    "p50_ms": derived["p50_ms"],
                    "p95_ms": derived["p95_ms"],
                    "p99_ms": derived["p99_ms"],
                    "lock_wait_p99_ms": derived["lock_wait_p99_ms"],
                    "lock_wait_ms_per_sec": waits.get("lock"),
                    "migration_wait_ms_per_sec": waits.get("migration"),
                    "migration_fraction": cur.gauges.get(MIGRATION_FRACTION),
                    "migration_tuples_per_sec": cur.gauges.get(
                        MIGRATION_TUPLE_RATE
                    ),
                    "migration_eta_seconds": cur.gauges.get(MIGRATION_ETA),
                }
            )
        return rows

    def to_json(self, window: float | None = None) -> dict[str, Any]:
        """The ``history json`` document (and an incident bundle's
        ``history.json``): config, derived rows, and the
        trailing-window summary."""
        return {
            "interval": self.interval,
            "capacity": self.capacity,
            "samples_taken": self.samples_taken,
            "samples_evicted": self.samples_evicted,
            "sampler_errors": self.sampler_errors,
            "running": self.running,
            "rows": self.rows(window),
            "summary": self.summary(window if window is not None else 5.0),
        }


__all__ = [
    "HistorySample",
    "MetricsHistory",
    "percentile_from_buckets",
    "sum_positive_deltas",
]
