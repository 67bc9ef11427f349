"""Tests for heap tables (TIDs are dense ordinals) and indexes."""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.core.bitmap import MigrationBitmap
from repro.core.granularity import GranuleMapper
from repro.errors import StorageError, UniqueViolation
from repro.storage import CommitStamp, HashIndex, HeapTable, OrderedIndex


class TestPage:
    """The slot operations a page used to hold — append, read, write,
    delete, restore, live iteration — now act on the heap's one list of
    chain heads, so they are checked there."""

    def test_append_and_read(self):
        heap = HeapTable("t")
        heap.insert((0,))
        tid = heap.insert((1, "a"))
        assert tid == 1 and heap.max_ordinal == 2
        assert heap.read(tid) == (1, "a")
        assert heap.read_version(tid).row == (1, "a")

    def test_delete_restore(self):
        stamp = CommitStamp(txn_id=1)
        heap = HeapTable("t")
        tid = heap.insert((1,))
        assert heap.delete(tid, stamp) == (1,)
        assert heap.read(tid) is None
        heap.restore(tid, (1,), stamp)
        assert heap.read(tid) == (1,)
        assert len(heap) == 1

    def test_write_to_tombstone_rejected(self):
        heap = HeapTable("t")
        tid = heap.insert((1,))
        heap.delete(tid)
        with pytest.raises(StorageError):
            heap.update(tid, (2,), CommitStamp(txn_id=1))
        assert heap.read(tid) is None
        assert len(heap) == 0

    def test_iter_live_skips_tombstones(self):
        heap = HeapTable("t")
        t0 = heap.insert((1,))
        t1 = heap.insert((2,))
        heap.delete(t0)
        assert list(heap.scan()) == [(t1, (2,))]
        assert list(heap.scan_range(0, 2)) == [(t1, (2,))]


class TestHeapTable:
    def test_insert_read(self):
        heap = HeapTable("t")
        tid = heap.insert((1, "x"))
        assert heap.read(tid) == (1, "x")
        assert len(heap) == 1

    def test_tids_stable_across_deletes(self):
        """Deletes tombstone — TIDs never move.  The BullFrog bitmap
        depends on this."""
        heap = HeapTable("t")
        tids = [heap.insert((i,)) for i in range(6)]
        heap.delete(tids[2])
        assert heap.read(tids[3]) == (3,)
        assert heap.read(tids[2]) is None
        assert heap.max_ordinal == 6  # allocation space unchanged

    def test_update(self):
        heap = HeapTable("t")
        tid = heap.insert((1,))
        old = heap.update(tid, (2,))
        assert old == (1,)
        assert heap.read(tid) == (2,)

    def test_same_stamp_write_mutates_the_head_in_place(self):
        stamp = CommitStamp(txn_id=1)
        heap = HeapTable("t")
        tid = heap.insert((1,), stamp)
        head = heap.read_version(tid)
        heap.update(tid, (2,), stamp)
        assert heap.read_version(tid) is head
        assert head.row == (2,) and head.prev is None

    def test_other_stamp_write_pushes_a_version(self):
        heap = HeapTable("t")
        tid = heap.insert((1,))
        first = heap.read_version(tid)
        heap.update(tid, (2,), CommitStamp(txn_id=1))
        head = heap.read_version(tid)
        assert head is not first
        assert head.row == (2,) and head.prev is first and first.row == (1,)

    def test_delete_leaves_a_tombstone_version(self):
        heap = HeapTable("t")
        tid = heap.insert((1,))
        first = heap.read_version(tid)
        assert heap.delete(tid, CommitStamp(txn_id=1)) == (1,)
        head = heap.read_version(tid)
        assert head.row is None and head.prev is first
        assert heap.read_snapshot(tid, 0) == (1,)

    def test_update_deleted_rejected(self):
        heap = HeapTable("t")
        tid = heap.insert((1,))
        heap.delete(tid)
        with pytest.raises(StorageError):
            heap.update(tid, (2,))

    def test_double_delete_rejected(self):
        heap = HeapTable("t")
        tid = heap.insert((1,))
        heap.delete(tid)
        with pytest.raises(StorageError):
            heap.delete(tid)
        assert len(heap) == 0

    def test_restore(self):
        heap = HeapTable("t")
        tid = heap.insert((1,))
        heap.delete(tid)
        heap.restore(tid, (1,))
        assert heap.read(tid) == (1,)
        assert len(heap) == 1

    def test_live_count(self):
        heap = HeapTable("t")
        heap.insert((1,))
        heap.delete(heap.insert((2,)))
        assert len(heap) == 1
        assert heap.max_ordinal == 2

    def test_scan(self):
        heap = HeapTable("t")
        tids = [heap.insert((i,)) for i in range(5)]
        heap.delete(tids[1])
        assert list(heap.scan()) == [(0, (0,)), (2, (2,)), (3, (3,)), (4, (4,))]

    def test_scan_misses_a_row_deleted_mid_scan(self):
        """A scan reads each head when it reaches it: the multi-step
        copier must not copy a row a dual-written DELETE already
        removed."""
        heap = HeapTable("t")
        for i in range(4):
            heap.insert((i,))
        scan = heap.scan_range(0, 4)
        assert next(scan) == (0, (0,))
        heap.delete(2, CommitStamp(txn_id=1))
        assert [tid for tid, _row in scan] == [1, 3]

    def test_scan_range(self):
        heap = HeapTable("t")
        for i in range(10):
            heap.insert((i,))
        got = [row[0] for _tid, row in heap.scan_range(3, 7)]
        assert got == [3, 4, 5, 6]

    def test_scan_range_with_tombstones(self):
        heap = HeapTable("t")
        tids = [heap.insert((i,)) for i in range(10)]
        heap.delete(tids[4])
        got = [row[0] for _tid, row in heap.scan_range(3, 7)]
        assert got == [3, 5, 6]

    @pytest.mark.parametrize("size", [1, 64])
    def test_scan_range_on_granule_edges(self, size):
        """Ranges that start and end exactly on granule edges partition
        the heap: each tuple lands in the one granule ``tid // size``,
        current and snapshot scans alike, tombstones excluded."""
        heap = HeapTable("t")
        tids = [heap.insert((i,)) for i in range(3 * size + 1)]
        for tid in tids[::5]:
            heap.delete(tid)
        granules = GranuleMapper(heap, size).granule_count
        assert granules == 4
        for snapshot_ts in (None, 0):
            seen = []
            for granule in range(granules):
                got = list(heap.scan_range(granule * size, (granule + 1) * size, snapshot_ts))
                assert {tid // size for tid, _row in got} <= {granule}
                seen += got
            if snapshot_ts is None:
                assert seen == list(heap.scan())
            else:  # bootstrap deletes: the snapshot sees the tombstones
                assert seen == list(heap.scan(snapshot_ts))
                assert len(seen) == len(heap)

    def test_scan_range_end_past_max_ordinal(self):
        heap = HeapTable("t")
        for i in range(6):
            heap.insert((i,))
        got = [row[0] for _tid, row in heap.scan_range(4, 100)]
        assert got == [4, 5]

    def test_scan_range_empty(self):
        heap = HeapTable("t")
        for i in range(6):
            heap.insert((i,))
        assert list(heap.scan_range(3, 3)) == []
        assert list(heap.scan_range(5, 2)) == []

    def test_scan_range_start_at_max_ordinal(self):
        heap = HeapTable("t")
        for i in range(8):
            heap.insert((i,))
        assert list(heap.scan_range(8, 12)) == []

    def test_delete_restore_round_trips(self):
        """Repeated delete→restore cycles leave the tuple, live count,
        and scans exactly as before."""
        heap = HeapTable("t")
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
        """A TID is the tuple's dense ordinal: the number the bitmap's
        granule math uses, with nothing to convert."""
        heap = HeapTable("t")
        tids = [heap.insert((i,)) for i in range(9)]
        assert tids == list(range(9))
        assert heap.max_ordinal == 9

    def test_concurrent_inserts_unique_tids(self):
        heap = HeapTable("t")
        collected: list[list[int]] = [[] for _ in range(4)]

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
        assert sorted(all_tids) == list(range(800))
        assert len(heap) == 800


def test_rolled_back_insert_keeps_its_tid_as_a_tombstone():
    s = Database().connect()
    s.execute("CREATE TABLE t (a INT PRIMARY KEY)")
    heap = s.db.catalog.table("t").heap
    s.execute("BEGIN")
    s.execute("INSERT INTO t VALUES (1)")
    s.execute("ROLLBACK")
    assert heap.max_ordinal == 1 and heap.read(0) is None
    s.execute("INSERT INTO t VALUES (1)")
    assert [tid for tid, _row in heap.scan()] == [1]
    bitmap = MigrationBitmap(GranuleMapper(heap).granule_count)
    assert bitmap.size == 2
    assert not bitmap.is_migrated(0) and not bitmap.is_migrated(1)


class TestHashIndex:
    def test_insert_lookup_delete(self):
        index = HashIndex("i", "t", ("a",))
        index.insert((1,), 0)
        index.insert((1,), 1)
        assert sorted(index.lookup((1,))) == [0, 1]
        index.delete((1,), 0)
        assert index.lookup((1,)) == [1]

    def test_unique_violation(self):
        index = HashIndex("i", "t", ("a",), unique=True)
        index.insert((1,), 0)
        with pytest.raises(UniqueViolation):
            index.insert((1,), 1)

    def test_unique_allows_nulls(self):
        index = HashIndex("i", "t", ("a",), unique=True)
        index.insert((None,), 0)
        index.insert((None,), 1)  # SQL: NULLs never conflict
        assert len(index.lookup((None,))) == 2

    def test_contains(self):
        index = HashIndex("i", "t", ("a",))
        assert not index.contains((1,))
        index.insert((1,), 0)
        assert index.contains((1,))

    def test_delete_missing_is_noop(self):
        index = HashIndex("i", "t", ("a",))
        index.delete((9,), 0)  # no error

    def test_len(self):
        index = HashIndex("i", "t", ("a",))
        index.insert((1,), 0)
        index.insert((2,), 1)
        assert len(index) == 2


class TestOrderedIndex:
    def test_lookup(self):
        index = OrderedIndex("i", "t", ("a",))
        index.insert((2,), 0)
        index.insert((1,), 1)
        index.insert((2,), 2)
        assert sorted(index.lookup((2,))) == [0, 2]
        assert index.lookup((3,)) == []

    def test_unique(self):
        index = OrderedIndex("i", "t", ("a",), unique=True)
        index.insert((1,), 0)
        with pytest.raises(UniqueViolation):
            index.insert((1,), 1)

    def test_range_scan(self):
        index = OrderedIndex("i", "t", ("a",))
        for i in range(10):
            index.insert((i,), i)
        keys = [key[0] for key, _tid in index.prefix_scan((), 3, 6)]
        assert keys == [3, 4, 5, 6]

    def test_range_scan_exclusive(self):
        index = OrderedIndex("i", "t", ("a",))
        for i in range(5):
            index.insert((i,), i)
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
            index.insert((i,), i)
        assert len(index.prefix_scan(())) == 5
        assert len(index.prefix_scan((), 3)) == 2
        assert [key[0] for key, _tid in index.prefix_scan((), None, 1)] == [0, 1]

    def test_range_scan_empty_when_low_exceeds_high(self):
        index = OrderedIndex("i", "t", ("a",))
        for i in range(5):
            index.insert((i,), i)
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
                    index.insert((w, 3, o, n), o * 10 + n + 4 * w)
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
            index.insert((1, b), len(index))
        assert [key[1] for key, _tid in index.prefix_scan((1,), 0)] == [1, 2]
        assert len(index.prefix_scan((1,))) == 4
        assert len(index.lookup((1, None))) == 2

    def test_prefix_scan(self):
        index = OrderedIndex("i", "t", ("a", "b"))
        for a in range(3):
            for b in range(4):
                index.insert((a, b), a * 4 + b)
        got = [key for key, _tid in index.prefix_scan((1,))]
        assert got == [(1, 0), (1, 1), (1, 2), (1, 3)]

    def test_prefix_scan_empty_prefix_returns_all(self):
        index = OrderedIndex("i", "t", ("a",))
        index.insert((1,), 0)
        assert len(list(index.prefix_scan(()))) == 1

    def test_nulls_sort_last(self):
        index = OrderedIndex("i", "t", ("a",))
        index.insert((None,), 0)
        index.insert((1,), 1)
        keys = [key[0] for key, _tid in index.prefix_scan(())]
        assert keys == [1, None]

    def test_delete(self):
        index = OrderedIndex("i", "t", ("a",))
        index.insert((1,), 0)
        index.insert((1,), 1)
        index.delete((1,), 0)
        assert index.lookup((1,)) == [1]


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
    reference: list[tuple[int, int]] = []
    for key, tid in pairs:
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
    heap = HeapTable("t")
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
