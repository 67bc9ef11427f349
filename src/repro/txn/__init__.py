"""Transactions: locking, write-ahead logging, and the transaction manager."""

from .locks import LockManager, LockMode
from .wal import LogOp, LogRecord, RedoLog
from .manager import IsolationLevel, Transaction, TransactionManager, TxnState

__all__ = [
    "LockManager",
    "LockMode",
    "LogOp",
    "LogRecord",
    "RedoLog",
    "IsolationLevel",
    "Transaction",
    "TransactionManager",
    "TxnState",
]
