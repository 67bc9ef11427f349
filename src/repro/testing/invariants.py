"""Exactly-once invariant checking (paper sections 3.3-3.5).

At any *quiesce point* — no client or background worker mid-migration —
the following must hold for every migration unit, and this module
verifies each of them against ground truth recomputed from the old
(input) tables:

1. **No stuck claims.**  Every granule/group is NOT_STARTED, MIGRATED,
   or (hashmap only) ABORTED.  An IN_PROGRESS entry at quiesce means an
   abort path failed to reset a lock bit — the tuple could never be
   migrated again.

2. **Tracker counts consistent.**  ``tracker.migrated_count`` equals an
   actual recount of migrated granules/groups (the counter is maintained
   incrementally under per-partition latches; drift means lost updates).

3. **Exactly-once output.**  The multiset of rows in each output table
   equals the multiset produced by applying the unit's projection to
   exactly the tuples of *migrated* granules/groups of the old table.
   Extra rows are duplicates (a granule migrated twice, or rows from an
   unmigrated granule leaking through an aborted transaction); missing
   rows are lost tuples (a granule marked migrated whose data never
   committed).

4. **No duplicate keys.**  Each output table's unique column sets hold
   no duplicate key values — the structural half of check 3, still
   meaningful when values were mutated by client DML.

Ground truth is recomputed with the unit's own compiled projections
(bitmap units) or its pre-rendered per-key SELECTs (hashmap units), so
the check is valid mid-migration, after injected aborts, and after
crash recovery — not just at completion.  Value-level checks assume the
client workload did not mutate output rows; pass
``structural_only=True`` when it did (checks 1, 2 and 4 still run).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any, Hashable

from ..errors import ReproError
from ..exec.plan import ExecutionContext

if TYPE_CHECKING:
    from ..core.engine import LazyMigrationEngine, UnitRuntime


class InvariantViolation(ReproError):
    """Raised by :meth:`InvariantReport.raise_if_violated`."""


class InvariantReport:
    """Outcome of one :meth:`InvariantChecker.check` run."""

    def __init__(self) -> None:
        self.violations: list[str] = []
        self.units_checked = 0
        self.rows_verified = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, unit_id: str, message: str) -> None:
        self.violations.append(f"[{unit_id}] {message}")

    def raise_if_violated(self) -> None:
        if self.violations:
            summary = "\n  ".join(self.violations[:20])
            more = len(self.violations) - 20
            if more > 0:
                summary += f"\n  ... and {more} more"
            raise InvariantViolation(
                f"{len(self.violations)} invariant violation(s):\n  {summary}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "ok" if self.ok else f"{len(self.violations)} violations"
        return (
            f"InvariantReport({status}, units={self.units_checked}, "
            f"rows={self.rows_verified})"
        )


class InvariantChecker:
    """Checks one engine's migration state against ground truth."""

    def __init__(self, engine: "LazyMigrationEngine") -> None:
        self.engine = engine
        self.db = engine.db

    # ------------------------------------------------------------------
    def check(
        self,
        expect_complete: bool = False,
        structural_only: bool = False,
    ) -> InvariantReport:
        """Run every invariant over every unit.  Call only at a quiesce
        point: concurrent migrations make IN_PROGRESS entries and
        in-flight output rows legitimate."""
        report = InvariantReport()
        for runtime in self.engine.units:
            report.units_checked += 1
            if runtime.plan.category.uses_bitmap:
                self._check_bitmap_unit(runtime, report, structural_only)
            else:
                self._check_hashmap_unit(runtime, report, structural_only)
            self._check_unique_keys(runtime, report)
            if expect_complete and not runtime.check_complete():
                report.add(
                    runtime.plan.unit_id,
                    "expected migration to be complete but the unit is not",
                )
        return report

    # ------------------------------------------------------------------
    # Bitmap units (Algorithm 2)
    # ------------------------------------------------------------------
    def _check_bitmap_unit(
        self, runtime: "UnitRuntime", report: InvariantReport, structural_only: bool
    ) -> None:
        from ..core.bitmap import IN_PROGRESS, MIGRATED, MigrationBitmap

        tracker = runtime.tracker
        assert isinstance(tracker, MigrationBitmap)
        unit = runtime.plan.unit_id
        migrated: list[int] = []
        for ordinal in range(tracker.size):
            pair = tracker.state(ordinal)
            if pair & IN_PROGRESS:
                report.add(
                    unit,
                    f"granule {ordinal} stuck IN_PROGRESS at quiesce "
                    "(abort path failed to reset the lock bit)",
                )
            if pair & MIGRATED:
                migrated.append(ordinal)
        if len(migrated) != tracker.migrated_count:
            report.add(
                unit,
                f"migrated_count={tracker.migrated_count} but recount "
                f"found {len(migrated)} migrated granules",
            )
        if structural_only:
            return
        self._compare_outputs(runtime, self._expected_rows(runtime, migrated), report)

    def _expected_rows(
        self, runtime: "UnitRuntime", migrated: list[Hashable]
    ) -> dict[str, Counter]:
        """Ground truth: the unit's own read-only production
        (:meth:`UnitRuntime.project`) of exactly the migrated granules
        or groups, over the inputs' current rows.  Rows are laid out and
        coerced by the insert path's own row makers, so multisets
        compare equal to raw heap rows."""
        ctx = ExecutionContext(
            catalog=self.db.catalog, txn=None, allow_retired=True,
            lock_tables=False,
        )
        expected: dict[str, Counter] = {
            output.table: Counter() for output in runtime.plan.outputs
        }
        for name, rows in runtime.project(migrated, ctx).items():
            expected[name].update(rows)
        return expected

    # ------------------------------------------------------------------
    # Hashmap units (Algorithm 3)
    # ------------------------------------------------------------------
    def _check_hashmap_unit(
        self, runtime: "UnitRuntime", report: InvariantReport, structural_only: bool
    ) -> None:
        from ..core.hashmap import GroupState, MigrationHashMap

        tracker = runtime.tracker
        assert isinstance(tracker, MigrationHashMap)
        unit = runtime.plan.unit_id
        states = tracker.snapshot()
        migrated = [k for k, s in states.items() if s is GroupState.MIGRATED]
        stuck = [k for k, s in states.items() if s is GroupState.IN_PROGRESS]
        for key in stuck:
            report.add(
                unit,
                f"group {key!r} stuck IN_PROGRESS at quiesce "
                "(abort path failed to mark it aborted)",
            )
        if len(migrated) != tracker.migrated_count:
            report.add(
                unit,
                f"migrated_count={tracker.migrated_count} but recount "
                f"found {len(migrated)} migrated groups",
            )
        if structural_only:
            return
        self._compare_outputs(runtime, self._expected_rows(runtime, migrated), report)

    # ------------------------------------------------------------------
    # Shared output comparison
    # ------------------------------------------------------------------
    def _compare_outputs(
        self,
        runtime: "UnitRuntime",
        expected: dict[str, Counter],
        report: InvariantReport,
    ) -> None:
        unit = runtime.plan.unit_id
        for table_name, want in expected.items():
            table = self.db.catalog.table(table_name)
            have = Counter(row for _tid, row in table.heap.scan())
            report.rows_verified += sum(have.values())
            if have == want:
                continue
            lost = want - have
            extra = have - want
            for row, count in list(lost.items())[:5]:
                report.add(
                    unit,
                    f"{table_name}: lost tuple {row!r} (expected {want[row]}, "
                    f"found {want[row] - count})",
                )
            for row, count in list(extra.items())[:5]:
                report.add(
                    unit,
                    f"{table_name}: unexpected/duplicate tuple {row!r} "
                    f"(expected {want.get(row, 0)}, found {have[row]})",
                )
            remaining = max(len(lost) + len(extra) - 10, 0)
            if remaining:
                report.add(
                    unit, f"{table_name}: ... and {remaining} more row mismatches"
                )

    def _check_unique_keys(
        self, runtime: "UnitRuntime", report: InvariantReport
    ) -> None:
        unit = runtime.plan.unit_id
        for output in runtime.plan.outputs:
            table = self.db.catalog.table(output.table)
            for columns in table.schema.unique_column_sets():
                positions = [table.schema.column_index(c) for c in columns]
                seen: Counter = Counter(
                    tuple(row[p] for p in positions)
                    for _tid, row in table.heap.scan()
                )
                for key, count in seen.items():
                    if count > 1:
                        report.add(
                            unit,
                            f"{output.table}: duplicate key {key!r} on "
                            f"unique columns {columns} ({count} copies)",
                        )


class ClusterInvariantChecker:
    """Exactly-once invariants across a sharded cluster (DESIGN.md §16).

    Extends the single-node story to SLSM-style shared-nothing
    sharding.  At a cluster-wide quiesce point:

    1. **Per-shard exactly-once.**  Every shard's migration engines
       pass the full single-node :class:`InvariantChecker` — each
       shard's lazy migration migrated its own rows exactly once.
    2. **Placement.**  Every row of every partitioned table lives on
       the shard that owns its partition key; a row on the wrong shard
       means the router misrouted a write (it would also break check 3,
       but this names the shard and key directly).
    3. **No cross-shard duplicates.**  The union of each table's unique
       keys across shards has no repeats — a granule migrated on two
       shards, or a write applied twice by a broadcast, shows up here.
    4. **Replicated identity.**  Replicated tables (``item``) hold the
       same rows on every shard (count-only under ``structural_only``).

    The checker deliberately takes the shard layout as plain data
    (``partition_columns``, ``replicated``, a ``shard_of`` callable)
    instead of importing the cluster package: the testing layer stays
    importable without the network stack, and the tests can hand it a
    deliberately-wrong layout to prove the checks fire.
    """

    def __init__(
        self,
        shard_dbs: list[Any],
        partition_columns: dict[str, str],
        replicated: frozenset[str] | set[str] = frozenset(),
        shard_of: Any = None,
    ) -> None:
        self.shard_dbs = list(shard_dbs)
        self.partition_columns = dict(partition_columns)
        self.replicated = frozenset(replicated)
        n = len(self.shard_dbs)
        self.shard_of = shard_of or (lambda key: (int(key) - 1) % n)

    # ------------------------------------------------------------------
    def check(
        self,
        expect_complete: bool = False,
        structural_only: bool = False,
    ) -> InvariantReport:
        report = InvariantReport()
        for shard, db in enumerate(self.shard_dbs):
            for engine in db.migration_engines():
                local = InvariantChecker(engine).check(
                    expect_complete=expect_complete,
                    structural_only=structural_only,
                )
                report.units_checked += local.units_checked
                report.rows_verified += local.rows_verified
                report.violations.extend(
                    f"[shard {shard}]{violation}"
                    for violation in local.violations
                )
        self._check_placement(report)
        self._check_cross_shard_keys(report)
        self._check_replicated(report, structural_only)
        return report

    def _live_tables(self, db: Any) -> dict[str, Any]:
        return {
            t.schema.name: t
            for t in db.catalog.tables()
            if not t.retired
        }

    def _check_placement(self, report: InvariantReport) -> None:
        for shard, db in enumerate(self.shard_dbs):
            for name, table in self._live_tables(db).items():
                pcol = self.partition_columns.get(name)
                if pcol is None:
                    continue
                position = table.schema.column_index(pcol)
                for _tid, row in table.heap.scan():
                    report.rows_verified += 1
                    owner = self.shard_of(row[position])
                    if owner != shard:
                        report.add(
                            f"cluster:{name}",
                            f"row with {pcol}={row[position]} found on "
                            f"shard {shard} but belongs to shard {owner}",
                        )

    def _check_cross_shard_keys(self, report: InvariantReport) -> None:
        names = {
            name
            for db in self.shard_dbs
            for name in self._live_tables(db)
            if name in self.partition_columns
        }
        for name in sorted(names):
            key_sets: dict[tuple[str, ...], Counter] = {}
            for db in self.shard_dbs:
                table = self._live_tables(db).get(name)
                if table is None:
                    continue
                for columns in table.schema.unique_column_sets():
                    positions = [
                        table.schema.column_index(c) for c in columns
                    ]
                    seen = key_sets.setdefault(tuple(columns), Counter())
                    seen.update(
                        tuple(row[p] for p in positions)
                        for _tid, row in table.heap.scan()
                    )
            for columns, seen in key_sets.items():
                duplicates = [(k, c) for k, c in seen.items() if c > 1]
                for key, count in duplicates[:5]:
                    report.add(
                        f"cluster:{name}",
                        f"key {key!r} on unique columns {list(columns)} "
                        f"appears {count} times across the cluster",
                    )

    def _check_replicated(
        self, report: InvariantReport, structural_only: bool
    ) -> None:
        for name in sorted(self.replicated):
            rows_by_shard: list[Counter | None] = []
            for db in self.shard_dbs:
                table = self._live_tables(db).get(name)
                rows_by_shard.append(
                    None if table is None
                    else Counter(row for _tid, row in table.heap.scan())
                )
            reference = next(
                (rows for rows in rows_by_shard if rows is not None), None
            )
            if reference is None:
                continue
            for shard, rows in enumerate(rows_by_shard):
                if rows is None:
                    report.add(
                        f"cluster:{name}",
                        f"replicated table missing on shard {shard}",
                    )
                    continue
                report.rows_verified += sum(rows.values())
                if structural_only:
                    same = sum(rows.values()) == sum(reference.values())
                else:
                    same = rows == reference
                if not same:
                    report.add(
                        f"cluster:{name}",
                        f"replicated table diverges on shard {shard} "
                        f"({sum(rows.values())} rows vs "
                        f"{sum(reference.values())} on the reference shard)",
                    )
