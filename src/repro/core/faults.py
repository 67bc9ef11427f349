"""Fault injection for the migration hot paths.

BullFrog's central claim is *exactly-once* lazy migration under
concurrency and crashes (paper sections 3.3-3.5).  The happy path never
exercises the code that upholds that claim — abort hooks resetting lock
bits, WAL-driven tracker recovery, skip-wait re-claims — so this module
provides named **injection points** threaded through the hot paths
where those guarantees are actually at stake:

======================== ==============================================
point                    where it fires
======================== ==============================================
``migrate.before_claim`` ``_run_migration_loop``, before a claim round
``migrate.after_produce`` ``_migration_txn`` (the one migration
                         transaction, claimed or claim-free), after the
                         output rows were produced but *before* the
                         migration transaction commits
``migrate.before_mark``  ``_migration_txn``, after the migration
                         transaction committed but before the tracker's
                         migrate bits are set — the classic
                         committed-but-untracked crash window
``migrate.after_commit`` ``_migration_txn``, after tracker + stats update
``background.pass``      ``BackgroundMigrator``, before each per-unit
                         pass
``txn.commit``           ``Transaction.commit`` entry
``txn.abort``            ``Transaction.abort``, after undo completed
``wal.flush``            ``RedoLog.append_batch``, before the batch is
                         appended (crash here = commit never durable)
``net.accept``           ``bullfrogd`` accept loop, after ``accept()``
                         returns but before admission control
``net.read``             ``bullfrogd``, before reading the next client
                         frame (ABORT here = the read "fails" and the
                         server runs its abrupt-disconnect cleanup)
``net.write``            ``bullfrogd``, before writing a response frame
                         (ABORT = mid-response connection kill)
======================== ==============================================

A :class:`FaultPlan` is a list of :class:`FaultRule`\\ s; each rule
matches one point and performs one action when it fires:

* ``ABORT``   — raise :class:`~repro.errors.TransactionAborted`, driving
  the abort-hook path (claims reset / marked aborted, caller retries);
* ``CRASH``   — raise :class:`SimulatedCrash`; the harness in
  :mod:`repro.testing` catches it, discards the engine (volatile tracker
  state dies with it) and drives the ``submit(resume=True)`` +
  ``rebuild_trackers`` recovery path;
* ``LATENCY`` — sleep, widening race windows so adversarial
  interleavings actually happen;
* ``CALLBACK`` — run an arbitrary callable (tests).

Zero-cost-when-disabled contract: hot paths hold an optional injector
reference (``None`` by default) and guard every ``fire`` with a plain
``is not None`` check.  The per-statement seam (``migrate.before_claim``)
and the txn/wal/net seams spell the guard inline — no function call, no
dict lookup; the three per-migration-transaction seams and
``background.pass`` go through ``LazyMigrationEngine._seam``, one call
whose body is that guard.  ``benchmarks/bench_fault_overhead.py`` holds
the whole to <2% end-to-end.

These seams are also the observability layer's emission sites: each
point maps to a counter + trace event in
:data:`repro.obs.observability.POINT_COUNTERS`, emitted by the same
hot-path branches under the same contract (one ``obs is not None``
guard per seam, event before fault — see :mod:`repro.obs`).  Adding a
fault point?  Add a matching entry there so the new seam is observable
too.

Raising at ``txn.abort`` is unsupported (an abort must not itself
fail); use ``LATENCY``/``CALLBACK`` there.  An ``ABORT`` rule at
``migrate.before_mark`` would strand lock bits with no recovery — the
transaction already committed — so prefer ``CRASH`` at that point.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from ..errors import TransactionAborted

# The registry of valid point names; ``FaultRule`` validates against it
# so a typo in a test plan fails loudly instead of silently never firing.
FAULT_POINTS: frozenset[str] = frozenset(
    {
        "migrate.before_claim",
        "migrate.after_produce",
        "migrate.before_mark",
        "migrate.after_commit",
        "background.pass",
        "txn.commit",
        "txn.abort",
        "wal.flush",
        "net.accept",
        "net.read",
        "net.write",
        # Cluster two-phase epoch flip (shard side): before the gate
        # closes at PREPARE / before the logical switch at COMMIT.
        "cluster.prepare",
        "cluster.commit",
    }
)


class SimulatedCrash(BaseException):
    """An injected process crash.

    Derives from ``BaseException`` so workload code that defensively
    catches ``Exception`` cannot swallow it — a crash must unwind all
    the way to the harness, exactly like a real ``kill -9`` would take
    down every frame at once.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash injected at {point!r}")
        self.point = point


class FaultAction(Enum):
    ABORT = "abort"
    CRASH = "crash"
    LATENCY = "latency"
    CALLBACK = "callback"


@dataclass
class FaultRule:
    """One injection rule: fire ``action`` at ``point``.

    ``after`` hits at the point are let through untouched, then the rule
    fires at most ``times`` times (``None`` = unlimited).  ``predicate``
    (over the point's context kwargs) can narrow the match further.
    """

    point: str
    action: FaultAction = FaultAction.ABORT
    times: int | None = 1
    after: int = 0
    latency: float = 0.0
    callback: Callable[[dict[str, Any]], None] | None = None
    predicate: Callable[[dict[str, Any]], bool] | None = None

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; "
                f"valid points: {sorted(FAULT_POINTS)}"
            )
        if self.action is FaultAction.LATENCY and self.latency <= 0:
            raise ValueError("LATENCY rules need latency > 0")
        if self.action is FaultAction.CALLBACK and self.callback is None:
            raise ValueError("CALLBACK rules need a callback")
        if self.action in (FaultAction.ABORT, FaultAction.CRASH) and (
            self.point == "txn.abort"
        ):
            raise ValueError("raising at txn.abort is unsupported")


@dataclass
class FaultPlan:
    """A named collection of rules, applied together by one injector."""

    rules: list[FaultRule] = field(default_factory=list)
    name: str = "plan"

    def add(self, rule: FaultRule) -> "FaultPlan":
        self.rules.append(rule)
        return self


@dataclass
class FaultEvent:
    """One rule firing, recorded for assertions."""

    point: str
    action: FaultAction
    hit: int  # the point's hit ordinal at firing time (1-based)


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at the injection points.

    Hot paths never see this class unless a test/bench attaches one:
    they guard on ``<owner>.faults is not None``.  All bookkeeping is
    latched — injection points fire from many worker threads at once.
    """

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan or FaultPlan()
        self._latch = threading.Lock()
        self._hits: dict[str, int] = {}
        self._fired: dict[int, int] = {}  # id(rule) -> times fired
        self.events: list[FaultEvent] = []
        self.crashed = threading.Event()
        # Per-point rule index: points with no armed rule take a
        # latch-free early return in :meth:`fire`, so an *attached*
        # injector only pays for the points its plan actually watches.
        # Consequence: hits are only counted at watched points.
        self._rules_by_point: dict[str, list[FaultRule]] = {}
        for rule in self.plan.rules:
            self._rules_by_point.setdefault(rule.point, []).append(rule)
        # Call sites guard with ``"<point>" in faults.watching`` before
        # even building ``fire``'s context kwargs, so an attached
        # injector costs one frozenset probe at points it ignores.
        self.watching: frozenset[str] = frozenset(self._rules_by_point)

    # ------------------------------------------------------------------
    def hits(self, point: str) -> int:
        """How many times ``point`` was reached (fired or not).  Only
        points the plan has a rule for are counted — unwatched points
        take the latch-free early return in :meth:`fire`."""
        with self._latch:
            return self._hits.get(point, 0)

    def fired(self, point: str | None = None) -> int:
        """How many rules fired (optionally at one point only)."""
        with self._latch:
            return sum(
                1
                for event in self.events
                if point is None or event.point == point
            )

    # ------------------------------------------------------------------
    def fire(self, point: str, **context: Any) -> None:
        """Called from an injection point.  May raise, by design."""
        rules = self._rules_by_point.get(point)
        if rules is None:
            return  # nothing armed here: stay off the latch entirely
        with self._latch:
            hit = self._hits.get(point, 0) + 1
            self._hits[point] = hit
            matched: FaultRule | None = None
            for rule in rules:
                if hit <= rule.after:
                    continue
                fired = self._fired.get(id(rule), 0)
                if rule.times is not None and fired >= rule.times:
                    continue
                if rule.predicate is not None and not rule.predicate(context):
                    continue
                self._fired[id(rule)] = fired + 1
                self.events.append(FaultEvent(point, rule.action, hit))
                matched = rule
                break
        if matched is None:
            return
        if matched.action is FaultAction.LATENCY:
            time.sleep(matched.latency)
            return
        if matched.action is FaultAction.CALLBACK:
            assert matched.callback is not None
            matched.callback(context)
            return
        if matched.action is FaultAction.ABORT:
            raise TransactionAborted(
                f"fault injection: abort at {point!r} (hit {hit})"
            )
        assert matched.action is FaultAction.CRASH
        self.crashed.set()
        raise SimulatedCrash(point)


# Convenience constructors used throughout the stress suite ------------


def abort_once(point: str, after: int = 0) -> FaultPlan:
    return FaultPlan([FaultRule(point, FaultAction.ABORT, times=1, after=after)])


def abort_every(point: str, times: int, after: int = 0) -> FaultPlan:
    return FaultPlan([FaultRule(point, FaultAction.ABORT, times=times, after=after)])


def crash_at(point: str, after: int = 0) -> FaultPlan:
    return FaultPlan([FaultRule(point, FaultAction.CRASH, times=1, after=after)])


def slow_down(point: str, latency: float, times: int | None = None) -> FaultPlan:
    return FaultPlan(
        [FaultRule(point, FaultAction.LATENCY, times=times, latency=latency)]
    )
