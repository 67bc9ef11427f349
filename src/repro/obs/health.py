"""Declarative health rules over the metrics history.

A :class:`HealthEngine` holds a list of rules, each a predicate over a
trailing window of the :class:`~repro.obs.history.MetricsHistory` ring
(threshold on a derived value, rate of a counter, absence of an
expected series, migration-progress stall).  Evaluation produces a
JSON-able report — one row per rule with its measured value, bound,
and status — that drives three surfaces:

* the ``/healthz`` endpoint on
  :class:`~repro.obs.export.MetricsServer` (``200`` while no
  critical-severity rule is breached, ``503`` otherwise);
* the ``bullfrog_stat_health`` system view;
* **transition events**: a rule changing status emits a
  ``health.transition`` instant into the trace log (so an incident's
  Perfetto document shows *when* the system went unhealthy relative to
  the spans around it) and bumps
  ``repro_health_transitions_total{rule=...}``; a transition *into*
  ``critical`` additionally fires the registered breach listeners —
  which is how the flight recorder's "dump exactly once per breach"
  works without polling.

The engine re-evaluates as a history listener, i.e. on the sampling
cadence — no second timer thread — and keeps the last report cached
for cheap reads (``/healthz`` under load does not recompute per
request).
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

from .history import (
    DEADLOCKS,
    LOCK_WAIT_SECONDS,
    MIGRATION_FRACTION,
    MIGRATION_GRANULES,
    MIGRATION_RUNNING,
    MIGRATION_TUPLES,
    MetricsHistory,
    SERIALIZATION_FAILURES,
)

OK = "ok"
WARN = "warn"
CRITICAL = "critical"
UNKNOWN = "unknown"

# Overall-status aggregation: the worst breached rule wins; unknown
# never degrades a healthy report (a rule over a series that does not
# exist yet — e.g. no migration submitted — is not an incident).
_RANK = {OK: 0, UNKNOWN: 0, WARN: 1, CRITICAL: 2}


def overall_status(results: list[dict[str, Any]]) -> str:
    """The worst status among rule results; ``unknown`` never degrades
    it.  Shared by the engine's report and the console's rendering of
    ``bullfrog_stat_health`` rows."""
    overall = OK
    for result in results:
        if _RANK[result["status"]] > _RANK[overall]:
            overall = result["status"]
    return overall


class HealthContext:
    """What a rule sees at evaluation time."""

    __slots__ = ("history", "now", "engine")

    def __init__(
        self, history: MetricsHistory, now: float, engine: "HealthEngine"
    ) -> None:
        self.history = history
        self.now = now
        self.engine = engine


class HealthRule:
    """Base rule: subclasses implement :meth:`measure` returning
    ``(value, breached, detail)`` — ``breached=None`` (typically with
    ``value=None``) reports ``unknown``."""

    def __init__(
        self,
        name: str,
        *,
        severity: str = CRITICAL,
        window: float = 5.0,
        description: str = "",
    ) -> None:
        if severity not in (WARN, CRITICAL):
            raise ValueError(f"severity must be warn or critical, not {severity!r}")
        self.name = name
        self.severity = severity
        self.window = window
        self.description = description

    def measure(
        self, ctx: HealthContext
    ) -> tuple[float | None, bool | None, str]:
        raise NotImplementedError

    def bound_repr(self) -> float | None:
        return getattr(self, "bound", None)

    def evaluate(self, ctx: HealthContext) -> dict[str, Any]:
        try:
            value, breached, detail = self.measure(ctx)
        except Exception as exc:  # a broken rule is unknown, not fatal
            value, breached, detail = None, None, f"rule error: {exc!r}"
        if breached is None:
            status = UNKNOWN
        elif breached:
            status = self.severity
        else:
            status = OK
        return {
            "rule": self.name,
            "severity": self.severity,
            "status": status,
            "value": value,
            "bound": self.bound_repr(),
            "window_seconds": self.window,
            "detail": detail,
        }


class ThresholdRule(HealthRule):
    """``value_fn(ctx) > bound`` breaches.  The workhorse: ad-hoc rules
    (an embedding application's, a test's) are thresholds over
    arbitrary callables."""

    def __init__(
        self,
        name: str,
        value_fn: Callable[[HealthContext], float | None],
        bound: float,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, **kwargs)
        self.value_fn = value_fn
        self.bound = bound

    def measure(self, ctx: HealthContext):
        value = self.value_fn(ctx)
        if value is None:
            return None, None, "no reading"
        return value, value > self.bound, ""


class RateRule(HealthRule):
    """Per-second increase of a registry counter over the window
    exceeds the bound (reset-aware, like everything in history)."""

    def __init__(self, name: str, metric: str, bound: float, **kwargs: Any) -> None:
        super().__init__(name, **kwargs)
        self.metric = metric
        self.bound = bound

    def measure(self, ctx: HealthContext):
        value = ctx.history.rate(self.metric, self.window)
        if value is None:
            return None, None, "fewer than two samples in window"
        return value, value > self.bound, f"rate of {self.metric}"


class PercentileRule(HealthRule):
    """Window quantile of a latency histogram, in milliseconds,
    exceeds the bound (e.g. lock-wait p99 > 250 ms)."""

    def __init__(
        self, name: str, metric: str, q: float, bound_ms: float, **kwargs: Any
    ) -> None:
        super().__init__(name, **kwargs)
        self.metric = metric
        self.q = q
        self.bound = bound_ms

    def measure(self, ctx: HealthContext):
        seconds = ctx.history.percentile(self.metric, self.q, self.window)
        if seconds is None:
            return None, None, "no observations in window"
        value = seconds * 1e3
        return value, value > self.bound, f"p{int(self.q * 100)} of {self.metric}"


class AbsenceRule(HealthRule):
    """An expected series has no reading — the inverse predicate: the
    metric *disappearing* is the breach (a scrape target gone dark, a
    heartbeat gauge nobody set).  Grace: unknown until the history has
    a sample at all."""

    def __init__(self, name: str, metric: str, **kwargs: Any) -> None:
        super().__init__(name, **kwargs)
        self.metric = metric

    def measure(self, ctx: HealthContext):
        if ctx.history.latest() is None:
            return None, None, "no samples yet"
        value = ctx.history.value(self.metric)
        if value is None:
            return None, True, f"{self.metric} absent from newest sample"
        return value, False, ""


class MigrationStalledRule(HealthRule):
    """A migration reports itself running and incomplete, yet moved no
    granules and no tuples across the whole window — the lazy
    migration's claim loop (foreground) and the background migrator
    have both gone quiet.  This is the paper's failure mode worth an
    incident bundle: progress gauges frozen while ETA claims
    otherwise."""

    def __init__(self, name: str = "migration_stalled", **kwargs: Any) -> None:
        kwargs.setdefault("window", 10.0)
        super().__init__(name, **kwargs)
        self.bound = 0.0

    def measure(self, ctx: HealthContext):
        history = ctx.history
        latest = history.latest()
        if latest is None:
            return None, None, "no samples yet"
        running = latest.gauges.get(MIGRATION_RUNNING)
        if not running:
            return 0.0, False, "no migration running"
        fraction = latest.gauges.get(MIGRATION_FRACTION)
        if fraction is not None and fraction >= 1.0:
            return 0.0, False, "migration complete"
        samples = history.samples(self.window)
        if len(samples) < 2 or (
            samples[-1].mono - samples[0].mono
        ) < self.window * 0.5:
            return None, None, "window not yet covered"
        tuples = history.rate(MIGRATION_TUPLES, self.window) or 0.0
        granules = history.rate(MIGRATION_GRANULES, self.window) or 0.0
        moved = tuples + granules
        return (
            moved,
            moved <= 0.0,
            f"running migration advanced {moved:.1f} units/s over "
            f"{self.window:.0f}s",
        )


def default_rules(
    *,
    serialization_failures_per_sec: float = 10.0,
    deadlocks_per_sec: float = 5.0,
    lock_wait_p99_ms: float = 250.0,
    migration_stall_window: float = 10.0,
    window: float = 5.0,
) -> list[HealthRule]:
    """The stock rule set from the issue's examples.  Bounds are
    deliberately generous — a healthy system under TPC-C load stays
    ``ok`` — and each is a constructor knob for deployments (and for
    tests, which tighten one to force a breach)."""
    return [
        RateRule(
            "serialization_failures",
            SERIALIZATION_FAILURES,
            serialization_failures_per_sec,
            severity=CRITICAL,
            window=window,
            description="snapshot-isolation first-updater-wins aborts/sec",
        ),
        RateRule(
            "deadlock_rate",
            DEADLOCKS,
            deadlocks_per_sec,
            severity=CRITICAL,
            window=window,
            description="deadlock-victim aborts/sec",
        ),
        PercentileRule(
            "lock_wait_p99",
            LOCK_WAIT_SECONDS,
            0.99,
            lock_wait_p99_ms,
            severity=WARN,
            window=window,
            description="contended lock-acquisition p99",
        ),
        MigrationStalledRule(
            window=migration_stall_window,
            severity=CRITICAL,
            description="running migration moved nothing all window",
        ),
    ]


class HealthEngine:
    """Evaluates rules over a history, tracks per-rule status
    transitions, and fans breaches out to listeners.

    ``obs`` (optional) supplies the trace log for transition instants
    and the registry for the transitions counter; without it the engine
    still evaluates and reports.  :meth:`attach` registers the engine
    as a history listener so evaluation follows the sampling cadence.
    """

    def __init__(
        self,
        history: MetricsHistory,
        rules: list[HealthRule] | None = None,
        *,
        obs: Any = None,
    ) -> None:
        self.history = history
        self.rules: list[HealthRule] = (
            list(rules) if rules is not None else default_rules()
        )
        self.obs = obs if obs is not None else history.obs
        self._latch = threading.Lock()
        self._last_status: dict[str, str] = {}
        self._since: dict[str, float] = {}
        self._breaches: dict[str, int] = {}
        self._report: dict[str, Any] | None = None
        self._breach_listeners: list[
            Callable[[dict[str, Any], dict[str, Any]], None]
        ] = []
        self._transitions_counter = None
        obs_ = self.obs
        if obs_ is not None and getattr(obs_, "metrics_enabled", False):
            self._transitions_counter = obs_.registry.counter(
                "repro_health_transitions_total",
                "health-rule status transitions",
                labelnames=("rule",),
            )
        self._attached = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self) -> "HealthEngine":
        """Evaluate after every history sample (idempotent)."""
        if not self._attached:
            self._attached = True
            self.history.add_listener(lambda _sample: self.evaluate())
        return self

    def add_rule(self, rule: HealthRule) -> None:
        self.rules.append(rule)

    def on_breach(
        self, listener: Callable[[dict[str, Any], dict[str, Any]], None]
    ) -> None:
        """``listener(rule_result, report)`` fires on each transition
        *into* ``critical`` — once per breach, not once per unhealthy
        sample.  The flight recorder registers here."""
        self._breach_listeners.append(listener)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, now: float | None = None) -> dict[str, Any]:
        now = time.time() if now is None else now
        ctx = HealthContext(self.history, now, self)
        results = [rule.evaluate(ctx) for rule in self.rules]
        fired: list[dict[str, Any]] = []
        with self._latch:
            for result in results:
                name = result["rule"]
                status = result["status"]
                previous = self._last_status.get(name)
                if previous != status:
                    self._last_status[name] = status
                    self._since[name] = now
                    if previous is not None:
                        self._record_transition(name, previous, status, result)
                    if status == CRITICAL:
                        self._breaches[name] = self._breaches.get(name, 0) + 1
                        fired.append(result)
                result["since"] = self._since.get(name, now)
                result["breaches"] = self._breaches.get(name, 0)
            report = {
                "status": overall_status(results),
                "ts": now,
                "rules": results,
            }
            self._report = report
        for result in fired:
            for listener in self._breach_listeners:
                try:
                    listener(result, report)
                except Exception:
                    pass  # a failing dump must not poison evaluation
        return report

    def _record_transition(
        self, rule: str, previous: str, status: str, result: dict[str, Any]
    ) -> None:
        counter = self._transitions_counter
        if counter is not None:
            counter.labels(rule=rule).inc()
        obs = self.obs
        if obs is not None and getattr(obs, "tracing_enabled", False):
            obs.trace.instant(
                "health.transition",
                cat="health",
                args={
                    "rule": rule,
                    "from": previous,
                    "to": status,
                    "value": result.get("value"),
                    "bound": result.get("bound"),
                },
            )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def report(self, max_age: float | None = None) -> dict[str, Any]:
        """The last evaluation, re-run when absent or older than
        ``max_age`` seconds (``/healthz`` passes ~1s so request floods
        read the cache)."""
        current = self._report
        if current is not None and (
            max_age is None or time.time() - current["ts"] <= max_age
        ):
            return current
        return self.evaluate()

    @property
    def status(self) -> str:
        report = self._report
        return report["status"] if report is not None else UNKNOWN

    @property
    def healthy(self) -> bool:
        """False only on a breached critical rule — the ``/healthz``
        predicate (warn degrades the report, not the status code)."""
        return self.status != CRITICAL


__all__ = [
    "AbsenceRule",
    "CRITICAL",
    "HealthContext",
    "HealthEngine",
    "HealthRule",
    "MigrationStalledRule",
    "OK",
    "PercentileRule",
    "RateRule",
    "ThresholdRule",
    "UNKNOWN",
    "WARN",
    "default_rules",
    "overall_status",
]
