"""Export surfaces: Prometheus text, JSON snapshot, optional HTTP.

Everything here is a pure string render over a
:class:`~repro.obs.registry.MetricRegistry` (no HTTP dependency); the
optional endpoint is stdlib ``http.server`` only, started on demand —
a scrape target for a real Prometheus, or ``curl``-able during a long
bench run.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from .registry import MetricRegistry


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _render_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in sorted(merged.items())
    )
    return "{" + inner + "}"


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(registry: MetricRegistry) -> str:
    """The Prometheus text exposition format (version 0.0.4)."""
    lines: list[str] = []
    for family in registry.families():
        lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels, cell in family.samples():
            if family.kind == "histogram":
                snap = cell.snapshot()
                for le, count in snap["buckets"].items():
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_render_labels(labels, {'le': le})} {count}"
                    )
                lines.append(
                    f"{family.name}_sum{_render_labels(labels)} "
                    f"{_format_value(snap['sum'])}"
                )
                lines.append(
                    f"{family.name}_count{_render_labels(labels)} {snap['count']}"
                )
            else:
                value = cell.value
                if value is None:
                    continue  # unset gauge: no sample
                lines.append(
                    f"{family.name}{_render_labels(labels)} {_format_value(value)}"
                )
    return "\n".join(lines) + "\n"


def snapshot_json(registry: MetricRegistry, indent: int | None = None) -> str:
    """The registry snapshot as a JSON document."""
    return json.dumps(registry.snapshot(), indent=indent, default=str)


class _MetricsHandler(BaseHTTPRequestHandler):
    obs: Any  # the Observability bundle served
    server_ref: Any  # the owning MetricsServer (draining flag)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        path = parsed.path
        status = 200
        obs = self.obs
        history = obs.history
        if path in ("/metrics", "/"):
            body = render_prometheus(obs.registry).encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/metrics.json":
            body = snapshot_json(obs.registry).encode()
            content_type = "application/json"
        elif path == "/trace":
            body = obs.trace.to_chrome_json().encode()
            content_type = "application/json"
        elif path == "/metrics/history" and history is not None:
            window = None
            raw = parse_qs(parsed.query).get("seconds")
            if raw:
                try:
                    window = float(raw[0])
                except ValueError:
                    self.send_error(400, "seconds must be a number")
                    return
            body = json.dumps(history.to_json(window), default=str).encode()
            content_type = "application/json"
        elif path == "/healthz":
            status, body = self._healthz()
            content_type = "application/json"
        else:
            self.send_error(404)
            return
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _healthz(self) -> tuple[int, bytes]:
        """Liveness/health: 503 while the server drains for shutdown or
        a critical rule is breached; 200 otherwise.  With no health
        engine attached the endpoint still exists — a bare metrics
        server is alive by definition — so load balancers get a
        liveness surface either way."""
        server = self.server_ref
        if server is not None and server.draining:
            return 503, json.dumps({"status": "draining"}).encode()
        health = self.obs.health
        if health is None:
            return 200, json.dumps(
                {"status": "ok", "detail": "no health engine attached"}
            ).encode()
        report = health.report(max_age=1.0)
        status = 200 if health.healthy else 503
        return status, json.dumps(report, default=str).encode()

    def log_message(self, format: str, *args: Any) -> None:  # silence stderr
        pass


class MetricsServer:
    """A background stdlib HTTP endpoint over one observability bundle:
    its registry and trace always, its history and health once
    attached.

    ``port=0`` binds an ephemeral port (tests); ``server.port`` reports
    the bound one.  Shutdown is graceful and idempotent:
    :meth:`begin_drain` flips ``/healthz`` to 503 (so a load balancer
    stops routing before the socket goes away), and :meth:`close`
    drains, stops the serve loop, closes the socket, and joins the
    thread — calling it twice is a no-op, not an error.
    """

    def __init__(
        self, obs: Any, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.draining = False
        handler = type(
            "_BoundMetricsHandler",
            (_MetricsHandler,),
            {"obs": obs, "server_ref": self},
        )
        self._server = ThreadingHTTPServer((host, port), handler)
        self.host = host
        self.port = self._server.server_address[1]
        self._closed = False
        self._close_latch = threading.Lock()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def begin_drain(self) -> None:
        """Advertise imminent shutdown: ``/healthz`` answers 503 from
        here on while the other endpoints keep serving (scrapes during
        a rolling restart still land)."""
        self.draining = True

    def close(self) -> None:
        with self._close_latch:
            if self._closed:
                return
            self._closed = True
        self.begin_drain()
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def start_metrics_server(
    obs: Any, host: str = "127.0.0.1", port: int = 0
) -> MetricsServer:
    return MetricsServer(obs, host=host, port=port)


__all__ = [
    "MetricsServer",
    "render_prometheus",
    "snapshot_json",
    "start_metrics_server",
]
