"""Export renders: Prometheus text and a JSON snapshot.

Both are pure string renders over a
:class:`~repro.obs.registry.MetricRegistry`.  They are served through
the admin verb table (:mod:`repro.obs.console`): ``metrics`` answers
with :func:`render_prometheus`, ``metrics json`` with
:func:`snapshot_json` — in-process, over the wire and in the shell.
"""

from __future__ import annotations

import json
from typing import Any

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


__all__ = ["render_prometheus", "snapshot_json"]
