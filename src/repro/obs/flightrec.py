"""Black-box flight recorder: incident bundles on health breach.

When a health rule transitions into ``critical`` (or an operator sends
the ``dump`` verb), the system's recent past is about to age out of
the rings that hold it — the trace log, the metrics-history window,
the slow-query ring.  The :class:`FlightRecorder` freezes all of it
into one **atomic** on-disk bundle under
``results/incidents/<ts>-<reason>/``:

* ``stacks.txt``       — every thread's Python stack via
  ``sys._current_frames()``, names attached (the "what was everyone
  doing" a post-mortem starts from);
* ``trace.json``       — the trace ring as a Chrome ``trace_event``
  document, loadable in Perfetto;
* ``history.json``     — the last ``HISTORY_WINDOW`` seconds of metrics
  history (derived rows + summary);
* ``health.json``      — the health report that fired (or the current
  one, for manual dumps);
* ``slow_queries.json``— the slow-query ring, newest last;
* ``locks.json``       — the lock table with waiter counts and blocker
  attribution;
* ``migrations.json``  — per-engine ``progress()`` (fraction, ETA,
  per-unit bitmaps state, seconds since last advance);
* ``manifest.json``    — reason, timestamps, file list, and whatever
  ``extra`` the trigger attached.

Atomicity: the bundle is assembled in a dot-prefixed temp directory
beside its final name and ``os.replace``d into place, so a reader
(CI's artifact upload, an operator mid-incident) never sees a partial
bundle.  Two bounds keep a flapping rule from filling the disk: a
**rate limit** (``min_interval`` between non-forced dumps — a breach
storm produces one bundle, not one per sample) and a **disk bound**
(oldest bundles are deleted past ``max_incidents`` or ``max_bytes``).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
import time
import traceback
from typing import Any

_TMP_PREFIX = ".tmp-"
# Seconds of metrics history a bundle keeps: the run-up to a breach
# (the default ring, 240 samples at 250 ms, holds exactly this much).
HISTORY_WINDOW = 60.0


def _bundle_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


class FlightRecorder:
    """Snapshot-everything incident dumper over one observability
    bundle: stacks, trace and slow queries always; the bundle's
    attached ``history``/``health`` and the ``db`` (locks, migrations)
    add their sections when present."""

    def __init__(
        self,
        obs: Any,
        *,
        db: Any = None,
        directory: str = os.path.join("results", "incidents"),
        min_interval: float = 30.0,
        max_incidents: int = 8,
        max_bytes: int = 64 * 1024 * 1024,
    ) -> None:
        if max_incidents < 1:
            raise ValueError("max_incidents must be at least 1")
        self.obs = obs
        self.db = db
        self.directory = directory
        self.min_interval = min_interval
        self.max_incidents = max_incidents
        self.max_bytes = max_bytes
        self._latch = threading.Lock()
        self._last_dump_mono: float | None = None
        self._seq = 0
        self.dumps_written = 0
        self.dumps_suppressed = 0
        self.last_dump_path: str | None = None

    # ------------------------------------------------------------------
    # Triggers
    # ------------------------------------------------------------------
    def on_breach(self, rule_result: dict[str, Any], report: dict[str, Any]) -> None:
        """Health-engine breach listener: one bundle per transition
        into critical, rate-limited across rules (a storm that trips
        three rules in the same window still writes one bundle)."""
        self.dump(
            f"health-{rule_result.get('rule', 'unknown')}",
            extra={"rule": rule_result, "report": report},
        )

    # ------------------------------------------------------------------
    # The dump
    # ------------------------------------------------------------------
    def dump(
        self,
        reason: str = "manual",
        *,
        force: bool = False,
        extra: dict[str, Any] | None = None,
    ) -> str | None:
        """Write one incident bundle; returns its directory, or ``None``
        when rate-limited.  ``force`` (operator triggers) bypasses the
        rate limit but never the disk bound."""
        now_mono = time.monotonic()
        with self._latch:
            last = self._last_dump_mono
            if (
                not force
                and last is not None
                and now_mono - last < self.min_interval
            ):
                self.dumps_suppressed += 1
                return None
            self._last_dump_mono = now_mono
            self._seq += 1
            seq = self._seq
        ts = time.time()
        stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime(ts))
        slug = "".join(
            c if c.isalnum() or c in "-_" else "-" for c in reason
        )[:48] or "incident"
        name = f"{stamp}.{int(ts * 1e3) % 1000:03d}-{seq:03d}-{slug}"
        os.makedirs(self.directory, exist_ok=True)
        tmp = os.path.join(self.directory, _TMP_PREFIX + name)
        final = os.path.join(self.directory, name)
        os.makedirs(tmp, exist_ok=True)
        files: list[str] = []
        try:
            self._write_text(tmp, files, "stacks.txt", self._render_stacks())
            for filename, payload in self._sections(reason, ts, extra):
                self._write_json(tmp, files, filename, payload)
            manifest = {
                "reason": reason,
                "ts": ts,
                "iso": time.strftime(
                    "%Y-%m-%dT%H:%M:%S", time.localtime(ts)
                ),
                "files": sorted(files),
                "extra": extra or {},
            }
            self._write_json(tmp, files, "manifest.json", manifest)
            os.replace(tmp, final)
        except Exception:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        with self._latch:
            self.dumps_written += 1
            self.last_dump_path = final
        self._enforce_disk_bound(keep=final)
        return final

    # ------------------------------------------------------------------
    # Sections
    # ------------------------------------------------------------------
    def _sections(self, reason, ts, extra):
        obs = self.obs
        yield "trace.json", obs.trace.to_chrome()
        yield "slow_queries.json", obs.slow_queries()
        history = obs.history
        if history is not None:
            yield "history.json", history.to_json(HISTORY_WINDOW)
        health = obs.health
        if health is not None:
            yield "health.json", health.report(max_age=None)
        db = self.db
        if db is not None:
            try:
                yield "locks.json", db.txns.locks.snapshot()
            except Exception as exc:
                yield "locks.json", {"error": repr(exc)}
            progress = []
            try:
                for engine in db.migration_engines():
                    progress.append(engine.progress())
            except Exception as exc:
                progress = [{"error": repr(exc)}]
            yield "migrations.json", progress

    @staticmethod
    def _render_stacks() -> str:
        names = {t.ident: t.name for t in threading.enumerate()}
        lines: list[str] = []
        for ident, frame in sorted(sys._current_frames().items()):
            lines.append(
                f"--- thread {ident} ({names.get(ident, '?')}) ---"
            )
            lines.extend(
                line.rstrip("\n")
                for line in traceback.format_stack(frame)
            )
            lines.append("")
        return "\n".join(lines)

    @staticmethod
    def _write_text(tmp: str, files: list[str], name: str, text: str) -> None:
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        files.append(name)

    @staticmethod
    def _write_json(tmp: str, files: list[str], name: str, payload: Any) -> None:
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, default=str)
        files.append(name)

    # ------------------------------------------------------------------
    # Disk bound
    # ------------------------------------------------------------------
    def incidents(self) -> list[str]:
        """Finalized bundle directories, oldest first (names sort by
        timestamp + sequence)."""
        try:
            entries = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            os.path.join(self.directory, entry)
            for entry in entries
            if not entry.startswith(_TMP_PREFIX)
            and os.path.isdir(os.path.join(self.directory, entry))
        )

    def _enforce_disk_bound(self, keep: str) -> None:
        bundles = self.incidents()
        while len(bundles) > self.max_incidents and bundles:
            victim = bundles.pop(0)
            if os.path.abspath(victim) == os.path.abspath(keep):
                break  # never delete what we just wrote
            shutil.rmtree(victim, ignore_errors=True)
        total = sum(_bundle_bytes(b) for b in bundles)
        while total > self.max_bytes and bundles:
            victim = bundles.pop(0)
            if os.path.abspath(victim) == os.path.abspath(keep):
                break
            total -= _bundle_bytes(victim)
            shutil.rmtree(victim, ignore_errors=True)


__all__ = ["FlightRecorder"]
