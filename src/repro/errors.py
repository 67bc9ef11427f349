"""Exception hierarchy for the repro database engine and BullFrog core.

Every error raised by the public API derives from :class:`ReproError`, so
applications can catch a single base class.  The hierarchy mirrors the
layering of the system: SQL front end, catalog, execution, transactions,
and the migration subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SqlError(ReproError):
    """Base class for errors raised by the SQL front end."""


class TokenizeError(SqlError):
    """The SQL text contains characters or literals that cannot be lexed."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(SqlError):
    """The SQL text is not valid for the supported grammar."""


class CatalogError(ReproError):
    """Base class for schema/catalog violations."""


class DuplicateObjectError(CatalogError):
    """A table, view, or index with the same name already exists."""


class UnknownObjectError(CatalogError):
    """A referenced table, view, column, or index does not exist."""


class SchemaVersionError(CatalogError):
    """A statement referenced a schema version that is no longer active.

    Raised for requests against the *old* schema after a big-flip
    migration has made the new schema the only active one (paper section
    2.1: "the old schema becomes inactive, and all subsequent requests
    that access it are rejected").
    """


class ExecutionError(ReproError):
    """Base class for runtime query-execution failures."""


class InvalidRowCount(ExecutionError):
    """A negative LIMIT or OFFSET count.  Carries PostgreSQL's SQLSTATE:
    2201W for LIMIT, 2201X for OFFSET."""

    def __init__(self, message: str, sqlstate: str) -> None:
        super().__init__(message)
        self.sqlstate = sqlstate


class StorageError(ExecutionError):
    """The physical storage layer was asked to do something structurally
    impossible: update or double-delete a tombstoned tuple, overflow a
    page, or re-place an occupied slot during replay.  Reaching this from
    SQL indicates an engine bug, so it maps to an internal-error SQLSTATE
    (XX001) over the wire."""


class TypeError_(ExecutionError):
    """A value did not match the declared column type or an operator's
    expected operand types.  (Named with a trailing underscore to avoid
    shadowing the builtin.)"""


class ConstraintViolation(ExecutionError):
    """An integrity constraint was violated."""

    def __init__(self, message: str, constraint: str | None = None) -> None:
        super().__init__(message)
        self.constraint = constraint


class NotNullViolation(ConstraintViolation):
    """A NOT NULL column received a NULL value."""


class UniqueViolation(ConstraintViolation):
    """A PRIMARY KEY or UNIQUE constraint received a duplicate value."""


class CheckViolation(ConstraintViolation):
    """A CHECK constraint evaluated to false."""


class ForeignKeyViolation(ConstraintViolation):
    """A FOREIGN KEY constraint could not find its referenced row, or a
    referenced row was deleted while still referenced."""


class TransactionError(ReproError):
    """Base class for transaction-manager failures."""


class TransactionAborted(TransactionError):
    """The transaction was aborted (explicitly or by the system) and can
    no longer be used."""


class DeadlockAvoided(TransactionAborted):
    """The lock manager killed this transaction under the wait-die policy
    to avoid a deadlock.  The client may retry."""


class LockTimeout(TransactionAborted):
    """A lock could not be acquired within the configured timeout."""


class SerializationFailure(TransactionAborted):
    """A snapshot-isolation transaction lost a write-write conflict: the
    tuple it tried to update was modified by a transaction that committed
    after this one's snapshot was taken (first-committer-wins, SQLSTATE
    40001).  The client may retry on a fresh snapshot."""


class SessionClosed(ReproError):
    """A statement was issued on a :class:`~repro.db.Session` (or a
    network connection) after ``close()``."""


class NetworkError(ReproError):
    """Base class for errors raised by the network service layer
    (:mod:`repro.net`).  The workload driver uses this class to
    distinguish connection-level failures from transaction aborts."""


class ProtocolError(NetworkError):
    """The byte stream violated the wire protocol: unknown frame type,
    oversized frame, truncated payload, or trailing garbage."""


class ConnectionClosedError(NetworkError):
    """The peer disconnected (or the connection was killed) while a
    request was outstanding or before one could be sent."""


class ServerBusyError(NetworkError):
    """The server refused the connection: admission control is at
    ``max_connections`` (SQLSTATE 53300)."""


class ServerShutdownError(NetworkError):
    """The server is shutting down and terminated this connection
    (SQLSTATE 57P01)."""


class StatementTimeoutError(NetworkError):
    """The server killed the connection because a statement exceeded
    the configured statement timeout (SQLSTATE 57014)."""


class IdleTimeoutError(NetworkError):
    """The server closed the connection after it sat idle longer than
    the configured idle timeout (SQLSTATE 57P05)."""


class MigrationError(ReproError):
    """Base class for errors in the BullFrog migration subsystem."""


class UnsupportedMigrationError(MigrationError):
    """The migration DDL uses a shape the classifier cannot handle."""


class MigrationStateError(MigrationError):
    """The migration subsystem was used in an invalid order (e.g. two
    concurrent migrations on the same table, or completing twice)."""
