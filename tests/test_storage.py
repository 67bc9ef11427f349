"""Tests for pages, heap tables, TIDs, and indexes."""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError, UniqueViolation
from repro.storage import (
    DEFAULT_PAGE_CAPACITY,
    HashIndex,
    HeapTable,
    OrderedIndex,
    Page,
    Tid,
)


class TestTid:
    def test_ordinal_round_trip(self):
        tid = Tid(3, 17)
        assert Tid.from_ordinal(tid.ordinal(256), 256) == tid

    def test_ordering(self):
        assert Tid(0, 5) < Tid(1, 0)
        assert Tid(1, 2) < Tid(1, 3)


class TestPage:
    def test_append_and_read(self):
        page = Page(0, capacity=4)
        slot = page.append((1, "a"))
        assert page.read(slot) == (1, "a")

    def test_capacity(self):
        page = Page(0, capacity=2)
        page.append((1,))
        page.append((2,))
        assert page.is_full
        with pytest.raises(StorageError):
            page.append((3,))

    def test_delete_restore(self):
        page = Page(0, capacity=4)
        slot = page.append((1,))
        assert page.delete(slot) == (1,)
        assert page.read(slot) is None
        page.restore(slot, (1,))
        assert page.read(slot) == (1,)

    def test_double_delete_rejected(self):
        page = Page(0, capacity=4)
        slot = page.append((1,))
        page.delete(slot)
        with pytest.raises(StorageError):
            page.delete(slot)

    def test_write_to_tombstone_rejected(self):
        page = Page(0, capacity=4)
        slot = page.append((1,))
        page.delete(slot)
        with pytest.raises(StorageError):
            page.write(slot, (2,))

    def test_iter_live_skips_tombstones(self):
        page = Page(0, capacity=4)
        s0 = page.append((1,))
        s1 = page.append((2,))
        page.delete(s0)
        assert list(page.iter_live()) == [(s1, (2,))]

    def test_live_count(self):
        page = Page(0, capacity=4)
        page.append((1,))
        s = page.append((2,))
        page.delete(s)
        assert page.live_count == 1


class TestHeapTable:
    def test_insert_read(self):
        heap = HeapTable("t", page_capacity=4)
        tid = heap.insert((1, "x"))
        assert heap.read(tid) == (1, "x")
        assert len(heap) == 1

    def test_tids_stable_across_deletes(self):
        """Deletes tombstone — TIDs never move.  The BullFrog bitmap
        depends on this."""
        heap = HeapTable("t", page_capacity=2)
        tids = [heap.insert((i,)) for i in range(6)]
        heap.delete(tids[2])
        assert heap.read(tids[3]) == (3,)
        assert heap.read(tids[2]) is None
        assert heap.max_ordinal == 6  # allocation space unchanged

    def test_page_overflow(self):
        heap = HeapTable("t", page_capacity=2)
        tids = [heap.insert((i,)) for i in range(5)]
        assert tids[0].page == 0
        assert tids[2].page == 1
        assert tids[4].page == 2
        assert heap.page_count == 3

    def test_update(self):
        heap = HeapTable("t")
        tid = heap.insert((1,))
        old = heap.update(tid, (2,))
        assert old == (1,)
        assert heap.read(tid) == (2,)

    def test_update_deleted_rejected(self):
        heap = HeapTable("t")
        tid = heap.insert((1,))
        heap.delete(tid)
        with pytest.raises(StorageError):
            heap.update(tid, (2,))

    def test_restore(self):
        heap = HeapTable("t")
        tid = heap.insert((1,))
        heap.delete(tid)
        heap.restore(tid, (1,))
        assert heap.read(tid) == (1,)
        assert len(heap) == 1

    def test_scan(self):
        heap = HeapTable("t", page_capacity=2)
        tids = [heap.insert((i,)) for i in range(5)]
        heap.delete(tids[1])
        rows = [row for _tid, row in heap.scan()]
        assert rows == [(0,), (2,), (3,), (4,)]

    def test_scan_range(self):
        heap = HeapTable("t", page_capacity=4)
        for i in range(10):
            heap.insert((i,))
        got = [row[0] for _tid, row in heap.scan_range(3, 7)]
        assert got == [3, 4, 5, 6]

    def test_scan_range_with_tombstones(self):
        heap = HeapTable("t", page_capacity=4)
        tids = [heap.insert((i,)) for i in range(10)]
        heap.delete(tids[4])
        got = [row[0] for _tid, row in heap.scan_range(3, 7)]
        assert got == [3, 5, 6]

    def test_scan_range_on_page_seams(self):
        """Start and end exactly on page boundaries: [4, 8) of a
        4-per-page heap is precisely the second page."""
        heap = HeapTable("t", page_capacity=4)
        for i in range(12):
            heap.insert((i,))
        got = [row[0] for _tid, row in heap.scan_range(4, 8)]
        assert got == [4, 5, 6, 7]

    def test_scan_range_end_past_max_ordinal(self):
        heap = HeapTable("t", page_capacity=4)
        for i in range(6):
            heap.insert((i,))
        got = [row[0] for _tid, row in heap.scan_range(4, 100)]
        assert got == [4, 5]

    def test_scan_range_empty(self):
        heap = HeapTable("t", page_capacity=4)
        for i in range(6):
            heap.insert((i,))
        assert list(heap.scan_range(3, 3)) == []
        assert list(heap.scan_range(5, 2)) == []

    def test_scan_range_start_at_max_ordinal(self):
        heap = HeapTable("t", page_capacity=4)
        for i in range(8):  # exactly two full pages
            heap.insert((i,))
        assert list(heap.scan_range(8, 12)) == []

    def test_delete_restore_round_trips(self):
        """Repeated delete→restore cycles leave the tuple, live count,
        and scans exactly as before."""
        heap = HeapTable("t", page_capacity=2)
        tids = [heap.insert((i,)) for i in range(4)]
        for _ in range(3):
            old = heap.delete(tids[1])
            assert old == (1,)
            assert heap.read(tids[1]) is None
            assert len(heap) == 3
            heap.restore(tids[1], (1,))
            assert heap.read(tids[1]) == (1,)
            assert len(heap) == 4
        assert [row for _tid, row in heap.scan()] == [(0,), (1,), (2,), (3,)]

    def test_restore_live_tuple_rejected(self):
        heap = HeapTable("t")
        tid = heap.insert((1,))
        with pytest.raises(StorageError):
            heap.restore(tid, (2,))

    def test_ordinal_mapping(self):
        heap = HeapTable("t", page_capacity=4)
        tids = [heap.insert((i,)) for i in range(9)]
        assert heap.ordinal(tids[0]) == 0
        assert heap.ordinal(tids[5]) == 5
        assert heap.tid_from_ordinal(5) == tids[5]

    def test_clear(self):
        heap = HeapTable("t")
        heap.insert((1,))
        heap.clear()
        assert len(heap) == 0
        assert heap.max_ordinal == 0

    def test_concurrent_inserts_unique_tids(self):
        heap = HeapTable("t", page_capacity=8)
        collected: list[list[Tid]] = [[] for _ in range(4)]

        def worker(bucket):
            for _ in range(200):
                bucket.append(heap.insert((0,)))

        threads = [
            threading.Thread(target=worker, args=(collected[i],))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        all_tids = [tid for bucket in collected for tid in bucket]
        assert len(set(all_tids)) == 800
        assert len(heap) == 800


class TestHashIndex:
    def test_insert_lookup_delete(self):
        index = HashIndex("i", "t", ("a",))
        index.insert((1,), Tid(0, 0))
        index.insert((1,), Tid(0, 1))
        assert sorted(index.lookup((1,))) == [Tid(0, 0), Tid(0, 1)]
        index.delete((1,), Tid(0, 0))
        assert index.lookup((1,)) == [Tid(0, 1)]

    def test_unique_violation(self):
        index = HashIndex("i", "t", ("a",), unique=True)
        index.insert((1,), Tid(0, 0))
        with pytest.raises(UniqueViolation):
            index.insert((1,), Tid(0, 1))

    def test_unique_allows_nulls(self):
        index = HashIndex("i", "t", ("a",), unique=True)
        index.insert((None,), Tid(0, 0))
        index.insert((None,), Tid(0, 1))  # SQL: NULLs never conflict
        assert len(index.lookup((None,))) == 2

    def test_contains(self):
        index = HashIndex("i", "t", ("a",))
        assert not index.contains((1,))
        index.insert((1,), Tid(0, 0))
        assert index.contains((1,))

    def test_delete_missing_is_noop(self):
        index = HashIndex("i", "t", ("a",))
        index.delete((9,), Tid(0, 0))  # no error

    def test_len(self):
        index = HashIndex("i", "t", ("a",))
        index.insert((1,), Tid(0, 0))
        index.insert((2,), Tid(0, 1))
        assert len(index) == 2


class TestOrderedIndex:
    def test_lookup(self):
        index = OrderedIndex("i", "t", ("a",))
        index.insert((2,), Tid(0, 0))
        index.insert((1,), Tid(0, 1))
        index.insert((2,), Tid(0, 2))
        assert sorted(index.lookup((2,))) == [Tid(0, 0), Tid(0, 2)]
        assert index.lookup((3,)) == []

    def test_unique(self):
        index = OrderedIndex("i", "t", ("a",), unique=True)
        index.insert((1,), Tid(0, 0))
        with pytest.raises(UniqueViolation):
            index.insert((1,), Tid(0, 1))

    def test_range_scan(self):
        index = OrderedIndex("i", "t", ("a",))
        for i in range(10):
            index.insert((i,), Tid(0, i))
        keys = [key[0] for key, _tid in index.prefix_scan((), 3, 6)]
        assert keys == [3, 4, 5, 6]

    def test_range_scan_exclusive(self):
        index = OrderedIndex("i", "t", ("a",))
        for i in range(5):
            index.insert((i,), Tid(0, i))
        keys = [
            key[0]
            for key, _tid in index.prefix_scan(
                (), 1, 4, low_inclusive=False, high_inclusive=False
            )
        ]
        assert keys == [2, 3]

    def test_range_scan_open_ended(self):
        index = OrderedIndex("i", "t", ("a",))
        for i in range(5):
            index.insert((i,), Tid(0, i))
        assert len(index.prefix_scan(())) == 5
        assert len(index.prefix_scan((), 3)) == 2
        assert [key[0] for key, _tid in index.prefix_scan((), None, 1)] == [0, 1]

    def test_range_scan_empty_when_low_exceeds_high(self):
        index = OrderedIndex("i", "t", ("a",))
        for i in range(5):
            index.insert((i,), Tid(0, i))
        assert index.prefix_scan((), 3, 1) == []
        assert index.prefix_scan((), 2, 2, low_inclusive=False) == []

    def test_prefix_scan_composite_inclusive_high(self):
        """An inclusive high bound on the column after the prefix keeps
        every longer key that starts with it: ``(w, d, 31)`` covers
        ``(w, d, 31, n)`` for every ``n``."""
        index = OrderedIndex("i", "t", ("w", "d", "o", "n"))
        for w in (1, 2):
            for o in range(28, 34):
                for n in (1, 2):
                    index.insert((w, 3, o, n), Tid(o, n + 4 * w))
        keys = [key for key, _tid in index.prefix_scan((1, 3), 30, 31)]
        assert sorted(keys) == [(1, 3, o, n) for o in (30, 31) for n in (1, 2)]
        exclusive = index.prefix_scan(
            (1, 3), 30, 31, low_inclusive=False, high_inclusive=False
        )
        assert exclusive == []
        assert len(index.prefix_scan((1, 3), None, 29)) == 4
        assert len(index.prefix_scan((2,))) == 12

    def test_prefix_scan_bound_skips_nulls(self):
        index = OrderedIndex("i", "t", ("a", "b"))
        for b in (None, 1, 2, None):
            index.insert((1, b), Tid(0, len(index)))
        assert [key[1] for key, _tid in index.prefix_scan((1,), 0)] == [1, 2]
        assert len(index.prefix_scan((1,))) == 4
        assert len(index.lookup((1, None))) == 2

    def test_prefix_scan(self):
        index = OrderedIndex("i", "t", ("a", "b"))
        for a in range(3):
            for b in range(4):
                index.insert((a, b), Tid(a, b))
        got = [key for key, _tid in index.prefix_scan((1,))]
        assert got == [(1, 0), (1, 1), (1, 2), (1, 3)]

    def test_prefix_scan_empty_prefix_returns_all(self):
        index = OrderedIndex("i", "t", ("a",))
        index.insert((1,), Tid(0, 0))
        assert len(list(index.prefix_scan(()))) == 1

    def test_nulls_sort_last(self):
        index = OrderedIndex("i", "t", ("a",))
        index.insert((None,), Tid(0, 0))
        index.insert((1,), Tid(0, 1))
        keys = [key[0] for key, _tid in index.prefix_scan(())]
        assert keys == [1, None]

    def test_delete(self):
        index = OrderedIndex("i", "t", ("a",))
        index.insert((1,), Tid(0, 0))
        index.insert((1,), Tid(0, 1))
        index.delete((1,), Tid(0, 0))
        assert index.lookup((1,)) == [Tid(0, 1)]


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=500)),
        max_size=60,
    )
)
def test_ordered_index_matches_sorted_reference(pairs):
    """OrderedIndex behaves like a sorted list of (key, tid) pairs."""
    index = OrderedIndex("i", "t", ("a",))
    reference: list[tuple[int, Tid]] = []
    for key, slot in pairs:
        tid = Tid(0, slot)
        index.insert((key,), tid)
        reference.append((key, tid))
    for probe in {key for key, _ in pairs} | {999}:
        expected = sorted(
            (tid for key, tid in reference if key == probe),
        )
        assert sorted(index.lookup((probe,))) == expected
    all_keys = [key[0] for key, _tid in index.prefix_scan(())]
    assert all_keys == sorted(key for key, _ in pairs)
    for low, high in ((3, 9), (10, 2), (0, 20)):
        bounded = [key[0] for key, _tid in index.prefix_scan((), low, high)]
        assert bounded == [k for k in all_keys if low <= k <= high]


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=80))
def test_heap_scan_equals_live_set(values):
    """scan() yields exactly the non-deleted inserts, in TID order."""
    heap = HeapTable("t", page_capacity=4)
    tids = [heap.insert((v,)) for v in values]
    deleted = set()
    for position, value in enumerate(values):
        if value % 3 == 0 and position not in deleted:
            heap.delete(tids[position])
            deleted.add(position)
    expected = [
        (tids[i], (values[i],))
        for i in range(len(values))
        if i not in deleted
    ]
    assert list(heap.scan()) == expected
