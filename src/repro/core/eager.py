"""Eager migration baseline (paper section 4).

"In eager migration, the system immediately physically moves all data
stored under the old schema into tables in the new schema prior to
becoming available to client requests over the new schema."

Implementation: one transaction takes exclusive locks on every input
table, materializes every output with INSERT .. SELECT, then retires
the old tables.  Because every scan takes a table-level IS lock,
concurrent client transactions queue behind the X locks for the whole
migration — the downtime window the paper measures (throughput drops to
the transactions that touch none of the affected tables, e.g. TPC-C
StockLevel during the customer split).
"""

from __future__ import annotations

import threading
from typing import Any

from ..db import Database
from ..errors import MigrationStateError
from ..txn.locks import LockMode
from .migration import MigrationSpec, parse_migration
from .production import create_outputs, output_insert
from .stats import MigrationStats


class EagerMigration:
    """Blocking, single-transaction migration."""

    def __init__(self, db: Database, big_flip: bool = True) -> None:
        self.db = db
        self.big_flip = big_flip
        self.spec: MigrationSpec | None = None
        self.stats = MigrationStats()
        self._complete_event = threading.Event()

    def submit(self, migration_id: str, ddl: str) -> "EagerMigration":
        if self.spec is not None:
            raise MigrationStateError("this eager migration already ran")
        spec = parse_migration(migration_id, ddl, self.db.catalog)
        self.spec = spec
        self.stats.mark_started()

        session = self.db.connect()
        session.internal = True
        session.begin()
        txn = session._txn
        assert txn is not None
        try:
            # Exclusive locks on all inputs: every concurrent reader or
            # writer of these tables blocks until we commit.
            for table_name in spec.input_tables:
                txn.lock_table(table_name, LockMode.X)

            # Create outputs (empty) ...
            create_outputs(self.db, spec)
            self.db.bump_epoch()

            # ... and fill them in full: the migration DDL's own
            # INSERT .. SELECT, nothing pinned.
            produced = 0
            for unit in spec.units:
                for output in unit.outputs:
                    produced += session.execute_statement(output_insert(output)).rowcount
            self.stats.add(tuples=produced)

            # Big flip at the end: the new schema becomes the only one.
            if self.big_flip:
                for table_name in spec.input_tables:
                    self.db.catalog.retire_table(table_name)
            self.db.bump_epoch()
            session.commit()
        except BaseException:
            if session.in_transaction:
                session.rollback()
            raise
        self.stats.mark_completed()
        self._complete_event.set()
        return self

    @property
    def is_complete(self) -> bool:
        return self._complete_event.is_set()

    def await_completion(self, timeout: float | None = None) -> bool:
        return self._complete_event.wait(timeout)

    def progress(self) -> dict[str, Any]:
        return {
            "migration": self.spec.migration_id if self.spec else None,
            "complete": self.is_complete,
            "tuples_migrated": self.stats.tuples_migrated,
        }
