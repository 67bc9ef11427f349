"""Open-loop workload driver (the OLTP-Bench substitute).

"OLTP-Bench has the ability to support tight control of transaction
mixtures, request rates, and access distributions over time" (section
4).  This driver reproduces the parts the experiments rely on:

* **open-loop arrivals** — requests are *scheduled* at a fixed rate;
  when the database cannot keep up, a queue builds and latency grows
  (throughput saturates), which is how the 700-TPS runs fall behind in
  the paper;
* **closed-loop mode** (``rate=None``) — workers fire back-to-back; the
  measured rate is the system's maximum throughput, used to calibrate
  the LOW/HIGH request rates;
* event markers — migration start/end points, plotted as the paper's
  circles.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from ..errors import NetworkError
from .metrics import LatencyRecorder, ThroughputSeries


class ClientLike(Protocol):
    def run_random(self) -> tuple[str, bool]: ...


@dataclass
class DriverConfig:
    duration: float = 10.0
    rate: float | None = None  # scheduled txns/second; None = closed loop
    workers: int = 4
    bucket_seconds: float = 0.5


@dataclass
class DriverResult:
    duration: float
    config: DriverConfig
    completed: int
    failed: int
    throughput: list[tuple[float, float]]
    latencies: LatencyRecorder
    events: list[tuple[float, str]]
    errors: dict[str, int] = field(default_factory=dict)
    # Connection-level accounting for networked runs: a dropped socket
    # is an infrastructure failure, not a TPC-C abort, and must not
    # pollute ``failed``.  ``reconnects`` sums each client's
    # ``reconnects`` attribute (if it has one) after the run.
    connection_errors: int = 0
    reconnects: int = 0

    @property
    def overall_tps(self) -> float:
        return self.completed / self.duration if self.duration else 0.0

    def latency_values(self, txn_type: str | None = None, after: float = 0.0) -> list[float]:
        return [s.latency for s in self.latencies.samples(txn_type, after)]


class WorkloadDriver:
    """Runs ``config.workers`` threads, each with its own client."""

    def __init__(
        self,
        make_client: Callable[[int], ClientLike],
        config: DriverConfig,
        registry: Any = None,
    ) -> None:
        self.make_client = make_client
        self.config = config
        # With a metric registry the recorders double as metric sources
        # (bench_txn_completed_total / bench_txn_latency_seconds), so an
        # exporter scraping the engine's registry sees the workload too.
        self.throughput = ThroughputSeries(config.bucket_seconds, registry=registry)
        self.latencies = LatencyRecorder(registry=registry)
        self._events: list[tuple[float, str]] = []
        self._events_latch = threading.Lock()
        self._start = 0.0
        self._stop = threading.Event()
        self._completed = 0
        self._failed = 0
        self._connection_errors = 0
        self._errors: dict[str, int] = {}
        self._clients: list[Any] = []
        self._count_latch = threading.Lock()
        self._arrival_counter = 0
        self._arrival_latch = threading.Lock()

    # ------------------------------------------------------------------
    def mark(self, label: str) -> None:
        """Record an event at the current experiment-relative time."""
        with self._events_latch:
            self._events.append((self.elapsed(), label))

    def elapsed(self) -> float:
        return time.monotonic() - self._start

    def _next_arrival(self) -> float | None:
        """Open loop: claim the next scheduled arrival timestamp."""
        rate = self.config.rate
        assert rate is not None
        with self._arrival_latch:
            index = self._arrival_counter
            self._arrival_counter += 1
        at = index / rate
        if at >= self.config.duration:
            return None
        return at

    # ------------------------------------------------------------------
    def run(self, on_start: Callable[["WorkloadDriver"], None] | None = None) -> DriverResult:
        self._start = time.monotonic()
        threads = [
            threading.Thread(
                target=self._worker, args=(index,), daemon=True,
                name=f"driver-{index}",
            )
            for index in range(self.config.workers)
        ]
        for thread in threads:
            thread.start()
        if on_start is not None:
            on_start(self)
        time.sleep(max(0.0, self._start + self.config.duration - time.monotonic()))
        self._stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        with self._count_latch:
            clients = list(self._clients)
        return DriverResult(
            duration=self.config.duration,
            config=self.config,
            completed=self._completed,
            failed=self._failed,
            throughput=self.throughput.series(self.config.duration),
            latencies=self.latencies,
            events=sorted(self._events),
            errors=dict(self._errors),
            connection_errors=self._connection_errors,
            reconnects=sum(
                getattr(client, "reconnects", 0) for client in clients
            ),
        )

    # ------------------------------------------------------------------
    def _worker(self, index: int) -> None:
        client = self.make_client(index)
        with self._count_latch:
            self._clients.append(client)
        try:
            self._worker_loop(client)
        finally:
            # Networked clients hold sockets; embedded ones have no
            # close() and are left alone.
            close = getattr(client, "close", None)
            if callable(close):
                try:
                    close()
                except Exception:  # noqa: BLE001 - teardown is best-effort
                    pass

    def _worker_loop(self, client: ClientLike) -> None:
        closed_loop = self.config.rate is None
        while not self._stop.is_set():
            if closed_loop:
                issue_at = self.elapsed()
                if issue_at >= self.config.duration:
                    return
            else:
                arrival = self._next_arrival()
                if arrival is None:
                    return
                # Wait for the scheduled arrival (open loop): if we are
                # behind, run immediately — the backlog IS the queue.
                delay = arrival - self.elapsed()
                if delay > 0:
                    if self._stop.wait(delay):
                        return
                issue_at = arrival
            begin = time.monotonic()
            try:
                txn_type, ok = client.run_random()
            except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                self._record_error(exc)
                continue
            end = time.monotonic()
            done_at = end - self._start
            latency = done_at - issue_at  # includes queueing delay
            with self._count_latch:
                if ok:
                    self._completed += 1
                else:
                    self._failed += 1
            if ok:
                self.throughput.record(done_at)
                self.latencies.record(issue_at, latency, txn_type)

    def _record_error(self, exc: Exception) -> None:
        name = type(exc).__name__
        with self._count_latch:
            if isinstance(exc, NetworkError):
                self._connection_errors += 1
            else:
                self._failed += 1
            self._errors[name] = self._errors.get(name, 0) + 1

