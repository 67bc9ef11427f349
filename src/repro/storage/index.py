"""Secondary indexes: hash (equality) and ordered (range).

Indexes map key tuples to sets of TIDs.  Uniqueness is enforced at
insert time for unique indexes; SQL semantics exempt keys containing
NULL.  A single latch per index keeps structural operations atomic;
transaction isolation is layered above by the lock manager.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any

from ..errors import UniqueViolation
from .tid import Tid

Key = tuple[Any, ...]


class HashIndex:
    """Equality index: dict of key -> set of TIDs."""

    def __init__(self, name: str, table: str, columns: tuple[str, ...], unique: bool = False) -> None:
        self.name = name
        self.table = table
        self.columns = columns
        self.unique = unique
        self._entries: dict[Key, set[Tid]] = {}
        self._latch = threading.RLock()

    def __len__(self) -> int:
        with self._latch:
            return sum(len(tids) for tids in self._entries.values())

    def insert(self, key: Key, tid: Tid) -> None:
        with self._latch:
            existing = self._entries.get(key)
            if self.unique and existing and None not in key:
                raise duplicate_key(self, key)
            if existing is None:
                self._entries[key] = {tid}
            else:
                existing.add(tid)

    def delete(self, key: Key, tid: Tid) -> None:
        with self._latch:
            tids = self._entries.get(key)
            if tids is None:
                return
            tids.discard(tid)
            if not tids:
                del self._entries[key]

    def lookup(self, key: Key) -> list[Tid]:
        with self._latch:
            return list(self._entries.get(key, ()))

    def contains(self, key: Key) -> bool:
        with self._latch:
            return bool(self._entries.get(key))

    def keys(self) -> list[Key]:
        with self._latch:
            return list(self._entries)

    def clear(self) -> None:
        with self._latch:
            self._entries.clear()


def duplicate_key(index: "Index", key: Key) -> UniqueViolation:
    """What a unique index raises for a key it already holds."""
    return UniqueViolation(
        f"duplicate key {key!r} violates unique index {index.name}",
        constraint=index.name,
    )


_NULL_SLOTS = (1, "NoneType", None)


def _sort_key(key: Key) -> tuple:
    """Total-order form of a key, so heterogeneous/NULL keys sort
    deterministically and bisect compares plain tuples at C speed: one
    flat tuple, three slots per part — ``(0, type name, value)``, or
    ``(1, "NoneType", None)`` for NULL.

    NULLs sort last (PostgreSQL default for ASC).  Values of different
    types compare by type name first — the engine never relies on
    cross-type ordering, this only keeps bisect from raising.
    """
    flat: list = []
    for part in key:
        flat += _NULL_SLOTS if part is None else (0, type(part).__name__, part)
    return tuple(flat)


# Appended to a sort key, sorts after every key that extends it: the
# exclusive end of "this key, then anything".  ``_NULLS`` sorts before
# a NULL next part and after every value: the end of a lower-bounded
# span, which no NULL satisfies.
_AFTER = (2,)
_NULLS = (1,)


class OrderedIndex:
    """Range index over sorted (key, tid) pairs using bisect.

    Every read is one span found by bisecting both of its ends:
    ``lookup`` (equality on the full key) and ``prefix_scan`` (a leading
    prefix, optionally bounded on the next column), ascending order.
    """

    def __init__(self, name: str, table: str, columns: tuple[str, ...], unique: bool = False) -> None:
        self.name = name
        self.table = table
        self.columns = columns
        self.unique = unique
        self._sort_keys: list[tuple] = []
        self._pairs: list[tuple[Key, Tid]] = []
        self._latch = threading.RLock()

    def __len__(self) -> int:
        return len(self._pairs)

    def insert(self, key: Key, tid: Tid) -> None:
        sort_key = _sort_key(key)
        with self._latch:
            position = bisect.bisect_left(self._sort_keys, sort_key)
            if self.unique and None not in key:
                if position < len(self._pairs) and self._pairs[position][0] == key:
                    raise duplicate_key(self, key)
            self._sort_keys.insert(position, sort_key)
            self._pairs.insert(position, (key, tid))

    def delete(self, key: Key, tid: Tid) -> None:
        sort_key = _sort_key(key)
        with self._latch:
            position = bisect.bisect_left(self._sort_keys, sort_key)
            while position < len(self._pairs) and self._pairs[position][0] == key:
                if self._pairs[position][1] == tid:
                    del self._sort_keys[position]
                    del self._pairs[position]
                    return
                position += 1

    def _span(self, start: tuple, stop: tuple) -> list[tuple[Key, Tid]]:
        """The entries whose sort keys lie in ``[start, stop)``, copied
        under the latch so callers iterate without holding it.  Both
        ends are bisected; ``start > stop`` is an empty span."""
        with self._latch:
            keys = self._sort_keys
            return self._pairs[
                bisect.bisect_left(keys, start):bisect.bisect_left(keys, stop)
            ]

    def lookup(self, key: Key) -> list[Tid]:
        sort_key = _sort_key(key)
        return [tid for _key, tid in self._span(sort_key, sort_key + _AFTER)]

    def contains(self, key: Key) -> bool:
        return bool(self.lookup(key))

    def prefix_scan(
        self,
        prefix: Key,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> list[tuple[Key, Tid]]:
        """(key, tid) for every entry whose key starts with ``prefix`` (a
        leading subset of the index columns) and whose next column lies
        between ``low`` and ``high`` — ``None`` leaves that end open, and
        a bounded span holds no NULL there.  A bound compares by the
        index's own order, so it must have the type the column stores."""
        base = _sort_key(prefix)
        if low is None:
            start = base
        else:
            start = base + _sort_key((low,))
            if not low_inclusive:
                start += _AFTER
        if high is None:
            stop = base + (_AFTER if low is None else _NULLS)
        else:
            stop = base + _sort_key((high,))
            if high_inclusive:
                stop += _AFTER
        return self._span(start, stop)

    def keys(self) -> list[Key]:
        with self._latch:
            return [key for key, _tid in self._pairs]

    def clear(self) -> None:
        with self._latch:
            self._sort_keys.clear()
            self._pairs.clear()


Index = HashIndex | OrderedIndex
