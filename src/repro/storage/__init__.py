"""Physical storage: heap tables of version chains, and indexes."""

from .version import BOOTSTRAP_STAMP, CommitStamp, TupleVersion, visible_version
from .heap import HeapTable
from .index import HashIndex, Index, OrderedIndex

__all__ = [
    "BOOTSTRAP_STAMP",
    "CommitStamp",
    "TupleVersion",
    "visible_version",
    "HeapTable",
    "HashIndex",
    "OrderedIndex",
    "Index",
]
