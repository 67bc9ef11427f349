"""Unified observability: metric registry, lifecycle tracing, export.

Three parts (see DESIGN.md section 9):

* :mod:`repro.obs.registry` — named counters/gauges/histograms with a
  ``labels(**kv)`` child API, lock-striped per cell;
* :mod:`repro.obs.trace` — a ring-buffer :class:`TraceLog` of typed
  span/instant events, exported as Chrome ``trace_event`` JSON;
* :mod:`repro.obs.export` — Prometheus-text + JSON snapshot renders.

On top of them sits the monitoring stack — :mod:`repro.obs.history`
(sampler ring and its one derivation of rates and percentiles),
:mod:`repro.obs.health` (one rule shape) and :mod:`repro.obs.flightrec`
(incident bundles) — and every document any of it produces is read
through one admin verb table, :mod:`repro.obs.console`.

Attach an :class:`Observability` to a database and everything below it
starts emitting::

    from repro import Database
    from repro.obs import Observability

    obs = Observability()
    db = Database(obs=obs)
    ...
    print(render_prometheus(obs.registry))
    open("trace.json", "w").write(obs.trace.to_chrome_json())
"""

from .registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricRegistry,
    NULL_METRIC,
    NullMetric,
)
from .trace import TraceEvent, TraceLog, merge_chrome
from .tracectx import TraceContext, WAIT_CLASSES
from .observability import Observability, POINT_COUNTERS
from .sysviews import SYSTEM_VIEW_NAMES, register_system_views
from .history import HistorySample, MetricsHistory
from .health import (
    HealthEngine,
    HealthRule,
    default_rules,
    migration_stalled_rule,
    percentile_rule,
    rate_rule,
    threshold_rule,
)
from .flightrec import FlightRecorder
from .export import render_prometheus, snapshot_json

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricRegistry",
    "NullMetric",
    "NULL_METRIC",
    "DEFAULT_LATENCY_BUCKETS",
    "TraceEvent",
    "TraceLog",
    "TraceContext",
    "WAIT_CLASSES",
    "merge_chrome",
    "Observability",
    "POINT_COUNTERS",
    "SYSTEM_VIEW_NAMES",
    "register_system_views",
    "HistorySample",
    "MetricsHistory",
    "HealthEngine",
    "HealthRule",
    "threshold_rule",
    "rate_rule",
    "percentile_rule",
    "migration_stalled_rule",
    "default_rules",
    "FlightRecorder",
    "render_prometheus",
    "snapshot_json",
]
