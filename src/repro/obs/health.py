"""Declarative health rules over the metrics history.

A :class:`HealthEngine` holds a list of :class:`HealthRule` s, each a
name, a ``measure`` over a trailing window of the
:class:`~repro.obs.history.MetricsHistory` ring, a bound and a
severity.  The stock kinds are constructors of that one class:
:func:`threshold_rule` (any callable), :func:`rate_rule` (counter
rate), :func:`percentile_rule` (histogram quantile) and
:func:`migration_stalled_rule` (a running migration that moved
nothing).  Evaluation produces a JSON-able report — one row per rule
with its measured value, bound, and status — that drives three
surfaces:

* the ``health`` admin verb (``health json`` is the report itself);
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
for cheap reads (a flood of ``health`` requests does not recompute per
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

# What a rule's measure returns: ``(value, breached, detail)``.
Measurement = tuple[float | None, bool | None, str]


def overall_status(results: list[dict[str, Any]]) -> str:
    """The worst status among rule results; ``unknown`` never degrades
    it.  Shared by the engine's report and the console's rendering of
    ``bullfrog_stat_health`` rows."""
    overall = OK
    for result in results:
        if _RANK[result["status"]] > _RANK[overall]:
            overall = result["status"]
    return overall


class HealthRule:
    """One health rule.  ``measure(history, window)`` returns
    ``(value, breached, detail)``; ``breached=None`` (typically with
    ``value=None``) reports ``unknown``, ``True`` the rule's
    ``severity``.  ``bound`` is what the report shows beside the
    value.  The stock kinds below are constructors of this class."""

    def __init__(
        self,
        name: str,
        measure: Callable[[MetricsHistory, float], Measurement],
        *,
        bound: float | None = None,
        severity: str = CRITICAL,
        window: float = 5.0,
    ) -> None:
        if severity not in (WARN, CRITICAL):
            raise ValueError(f"severity must be warn or critical, not {severity!r}")
        self.name = name
        self.measure = measure
        self.bound = bound
        self.severity = severity
        self.window = window

    def evaluate(self, history: MetricsHistory) -> dict[str, Any]:
        try:
            value, breached, detail = self.measure(history, self.window)
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
            "bound": self.bound,
            "window_seconds": self.window,
            "detail": detail,
        }


def _above(
    value: float | None, bound: float, detail: str, missing: str
) -> Measurement:
    if value is None:
        return None, None, missing
    return value, value > bound, detail


def threshold_rule(
    name: str,
    value_fn: Callable[[MetricsHistory], float | None],
    bound: float,
    **kwargs: Any,
) -> HealthRule:
    """``value_fn(history) > bound`` breaches.  The workhorse: ad-hoc
    rules (an embedding application's, a test's) are thresholds over
    arbitrary callables."""
    return HealthRule(
        name,
        lambda history, _window: _above(value_fn(history), bound, "", "no reading"),
        bound=bound,
        **kwargs,
    )


def rate_rule(name: str, metric: str, bound: float, **kwargs: Any) -> HealthRule:
    """Per-second increase of a registry counter over the window
    exceeds the bound (reset-aware, like everything in history)."""
    return HealthRule(
        name,
        lambda history, window: _above(
            history.rate(metric, window),
            bound,
            f"rate of {metric}",
            "fewer than two samples in window",
        ),
        bound=bound,
        **kwargs,
    )


def percentile_rule(
    name: str, metric: str, q: float, bound_ms: float, **kwargs: Any
) -> HealthRule:
    """Window quantile of a latency histogram, in milliseconds,
    exceeds the bound (e.g. lock-wait p99 > 250 ms)."""

    def measure(history: MetricsHistory, window: float) -> Measurement:
        seconds = history.percentile(metric, q, window)
        return _above(
            None if seconds is None else seconds * 1e3,
            bound_ms,
            f"p{int(q * 100)} of {metric}",
            "no observations in window",
        )

    return HealthRule(name, measure, bound=bound_ms, **kwargs)


def _migration_stalled(history: MetricsHistory, window: float) -> Measurement:
    latest = history.latest()
    if latest is None:
        return None, None, "no samples yet"
    if not latest.gauges.get(MIGRATION_RUNNING):
        return 0.0, False, "no migration running"
    fraction = latest.gauges.get(MIGRATION_FRACTION)
    if fraction is not None and fraction >= 1.0:
        return 0.0, False, "migration complete"
    samples = history.samples(window)
    if len(samples) < 2 or (samples[-1].mono - samples[0].mono) < window * 0.5:
        return None, None, "window not yet covered"
    tuples = history.rate(MIGRATION_TUPLES, window) or 0.0
    granules = history.rate(MIGRATION_GRANULES, window) or 0.0
    moved = tuples + granules
    return (
        moved,
        moved <= 0.0,
        f"running migration advanced {moved:.1f} units/s over {window:.0f}s",
    )


def migration_stalled_rule(
    name: str = "migration_stalled", window: float = 10.0, **kwargs: Any
) -> HealthRule:
    """A migration reports itself running and incomplete, yet moved no
    granules and no tuples across the whole window — the lazy
    migration's claim loop (foreground) and the background migrator
    have both gone quiet.  This is the paper's failure mode worth an
    incident bundle: progress gauges frozen while ETA claims
    otherwise."""
    return HealthRule(name, _migration_stalled, bound=0.0, window=window, **kwargs)


def default_rules() -> list[HealthRule]:
    """The stock rule set.  Bounds are deliberately generous — a
    healthy system under TPC-C load stays ``ok``; a caller that needs
    tighter ones builds its own list from the constructors above."""
    return [
        # Snapshot-isolation first-updater-wins aborts/sec.
        rate_rule("serialization_failures", SERIALIZATION_FAILURES, 10.0),
        # Deadlock-victim aborts/sec.
        rate_rule("deadlock_rate", DEADLOCKS, 5.0),
        # Contended lock-acquisition p99.
        percentile_rule(
            "lock_wait_p99", LOCK_WAIT_SECONDS, 0.99, 250.0, severity=WARN
        ),
        # A running migration moved nothing all window.
        migration_stalled_rule(),
    ]


class HealthEngine:
    """Evaluates rules over a history, tracks per-rule status
    transitions, and fans breaches out to listeners.

    The history's bundle (``history.obs``) supplies the trace log for
    transition instants and the registry for the transitions counter.
    :meth:`attach` registers the engine as a history listener so
    evaluation follows the sampling cadence.
    """

    def __init__(
        self,
        history: MetricsHistory,
        rules: list[HealthRule] | None = None,
    ) -> None:
        self.history = history
        self.rules: list[HealthRule] = (
            list(rules) if rules is not None else default_rules()
        )
        self._latch = threading.Lock()
        self._last_status: dict[str, str] = {}
        self._since: dict[str, float] = {}
        self._breaches: dict[str, int] = {}
        self._report: dict[str, Any] | None = None
        self._breach_listeners: list[
            Callable[[dict[str, Any], dict[str, Any]], None]
        ] = []
        self._transitions_counter = history.obs.registry.counter(
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
        results = [rule.evaluate(self.history) for rule in self.rules]
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
        self._transitions_counter.labels(rule=rule).inc()
        self.history.obs.trace.instant(
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
        ``max_age`` seconds (the ``health`` verb passes ~1s so request
        floods read the cache)."""
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


__all__ = [
    "CRITICAL",
    "HealthEngine",
    "HealthRule",
    "OK",
    "UNKNOWN",
    "WARN",
    "default_rules",
    "migration_stalled_rule",
    "overall_status",
    "percentile_rule",
    "rate_rule",
    "threshold_rule",
]
