"""Differential SQL against stdlib ``sqlite3``: range-bounded index scans.

The same table, composite ordered index and statement stream run on
this engine and on ``sqlite3``; row multisets, rowcounts and the final
table must agree.  The statements put equality prefixes of width 0-2 on
the index ``(a, b, c)`` and range conjuncts (both operand orders,
inclusive and exclusive, often with lo > hi) on the next column — the
shape an ordered index turns into the bounds of the span it reads.

Bound values cover every type the bound rule distinguishes: ``int``,
``Decimal`` (exact and lossy for the column), ``float``, ``bool`` and
NULL, where the two engines' SQL agrees; ``str`` and NaN, where it does
not (``sqlite3`` orders every integer below every string and binds NaN
as NULL).  For those a SELECT is compared against this engine's own
seq-scan plan, on a twin table that has no secondary index; a seq scan
evaluates the predicate on every row, so where it raises, the index
plan must raise too or have had no candidate row to evaluate.

Each stream runs under read-committed and under snapshot isolation
(where UPDATEs of indexed columns leave versions only the
``unindexed_tids()`` log still finds), and a lazy migration adds the
snapshot overlay path.
"""

from __future__ import annotations

import math
import sqlite3
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import BackgroundConfig, Database, LazyMigrationEngine
from repro.errors import ReproError

DDL = "CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, c DECIMAL(8, 2), v INT)"
INDEX = "CREATE INDEX t_abc ON t (a, b, c)"
COLUMNS = ("a", "b", "c")
FLIP = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}

_settings = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

# Few distinct keys, so prefixes match many rows and bounds land on them.
_key = st.sampled_from([0, 1, 2, None])
_rows = st.lists(
    st.tuples(
        _key,
        _key,
        st.sampled_from([None, Decimal("0.5"), Decimal("1"), Decimal("1.5"), Decimal("2")]),
        st.integers(0, 9),
    ),
    min_size=6,
    max_size=40,
)


def _weighted(*choices):
    """One of ``(weight, strategy)`` pairs, drawn in proportion."""
    table = [strategy for weight, strategy in choices for _ in range(weight)]
    return st.integers(0, len(table) - 1).flatmap(lambda i: table[i])


# Bounds both engines compare the same way; mostly integers, so a bound
# often lands exactly on stored keys and narrows the span.
_agreeing = _weighted(
    (6, st.integers(-1, 3)),
    (1, st.integers(-400, 3000).map(lambda n: Decimal(n).scaleb(-3))),  # 2.5, 1.005
    (1, st.integers(-4, 12).map(lambda n: n / 4)),
    (1, st.booleans()),
    (1, st.none()),
)
# Bounds whose SQL meaning differs between the two engines.
_differing = st.just(float("nan")) | st.sampled_from(["1", "x", ""])


@st.composite
def _predicate(draw, bounds):
    """(WHERE text, params, width) for an equality prefix plus one or
    two range conjuncts on the next index column."""
    width = draw(st.integers(0, 2))
    conds = [f"{column} = ?" for column in COLUMNS[:width]]
    params = [draw(st.integers(0, 2)) for _ in range(width)]
    column = COLUMNS[width]
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(sorted(FLIP)))
        if draw(st.booleans()):
            conds.append(f"? {FLIP[op]} {column}")
        else:
            conds.append(f"{column} {op} ?")
        params.append(draw(bounds))
    return " AND ".join(conds), params, width


@st.composite
def _statement(draw):
    kind = draw(st.sampled_from(["select", "select", "update", "delete"]))
    if kind == "select":
        where, params, width = draw(_predicate(_weighted((5, _agreeing), (1, _differing))))
        return f"SELECT id FROM t WHERE {where}", params, width
    where, params, width = draw(_predicate(_agreeing))
    if kind == "update":
        # Moves rows along the index: under snapshot isolation the old
        # versions are reachable only through unindexed_tids().
        sql = f"UPDATE t SET v = v + 1, b = b + 1 WHERE {where}"
    else:
        sql = f"DELETE FROM t WHERE {where}"
    return sql, params, width


def _lite(value):
    return float(value) if isinstance(value, Decimal) else value


def _outcome(run):
    try:
        result = run()
    except ReproError as exc:
        return ("error", type(exc).__name__)
    except ArithmeticError as exc:  # Decimal NaN ordering, as seq scan raises it
        return ("error", type(exc).__name__)
    return ("ok", sorted(row[0] for row in result.rows), result.rowcount)


def _agrees_with_sqlite(params) -> bool:
    return not any(
        isinstance(p, str) or (isinstance(p, float) and math.isnan(p))
        for p in params
    )


def _build(rows, isolation):
    indexed, twin = Database(), Database()
    ours = indexed.connect(isolation=isolation)
    seq = twin.connect(isolation=isolation)
    lite = sqlite3.connect(":memory:", isolation_level=None)
    for session in (ours, seq):
        session.execute(DDL)
    ours.execute(INDEX)
    lite.execute(DDL)
    lite.execute(INDEX)
    for pk, row in enumerate(rows):
        values = [pk, *row]
        ours.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?)", values)
        seq.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?)", values)
        lite.execute("INSERT INTO t VALUES (?, ?, ?, ?, ?)", [_lite(v) for v in values])
    return ours, seq, lite


def _table(session):
    return sorted(
        (i, a, b, None if c is None else float(c), v)
        for i, a, b, c, v in session.execute("SELECT id, a, b, c, v FROM t").rows
    )


@pytest.mark.parametrize("isolation", ["read_committed", "snapshot"])
@_settings
@given(rows=_rows, statements=st.lists(_statement(), min_size=2, max_size=8))
def test_bounded_index_scans_match_sqlite(isolation, rows, statements):
    ours, seq, lite = _build(rows, isolation)
    for sql, params, width in statements:
        if width and sql.startswith("SELECT"):
            cond = next(
                line for line in ours.explain(sql).splitlines()
                if "Index Cond" in line
            )
            assert f"t.{COLUMNS[width]} " in cond, cond  # the range bounds the span
        got = _outcome(lambda: ours.execute(sql, params))
        reference = _outcome(lambda: seq.execute(sql, params))
        if got != reference:
            # A seq scan evaluates every row; the index plan only its
            # candidates, so a comparison error may have had no row to
            # fire on.
            assert reference[0] == "error" and got == ("ok", [], 0), (
                sql, params, got, reference)
        if not _agrees_with_sqlite(params):
            continue
        cursor = lite.execute(sql, [_lite(p) for p in params])
        if sql.startswith("SELECT"):
            expected = ("ok", sorted(row[0] for row in cursor.fetchall()))
            assert got[:2] == expected, (sql, params)
        else:
            assert got[0] == "ok" and got[2] == cursor.rowcount, (sql, params)
    assert _table(ours) == _table(seq)
    assert _table(ours) == sorted(
        (i, a, b, None if c is None else float(c), v)
        for i, a, b, c, v in lite.execute("SELECT id, a, b, c, v FROM t")
    )


# ----------------------------------------------------------------------
# Snapshot overlay: a range read during a lazy migration
# ----------------------------------------------------------------------

MIGRATION = """
CREATE TABLE dst (id INT PRIMARY KEY, grp INT, v INT);
INSERT INTO dst (id, grp, v) SELECT id, grp, v FROM src;
CREATE INDEX dst_gv ON dst (grp, v);
"""


@_settings
@given(
    values=st.lists(st.tuples(st.integers(0, 2), st.none() | st.integers(0, 9)),
                    min_size=1, max_size=30),
    migrated=st.sets(st.integers(0, 29), max_size=10),
    grp=st.integers(0, 2),
    low=_agreeing | _differing,
    high=_agreeing,
)
def test_snapshot_overlay_range_read_matches_source(values, migrated, grp, low, high):
    """A snapshot reader during a lazy migration gets part of ``dst``
    from its heap and the rest from the interceptor's overlay of
    pre-migration images; the bounded scan must see both."""
    db = Database()
    s = db.connect(isolation="read_committed")
    s.execute("CREATE TABLE src (id INT PRIMARY KEY, grp INT, v INT)")
    for pk, (g, v) in enumerate(values):
        s.execute("INSERT INTO src VALUES (?, ?, ?)", [pk, g, v])
    engine = LazyMigrationEngine(db, background=BackgroundConfig(enabled=False))
    try:
        engine.submit("m", MIGRATION)
        for pk in migrated:
            s.execute("SELECT v FROM dst WHERE id = ?", [pk])
        si = db.connect(isolation="snapshot")
        sql = "SELECT id FROM dst WHERE grp = ? AND v > ? AND ? >= v"
        assert "dst.v > ? AND dst.v <= ?" in si.explain(sql)
        got = _outcome(lambda: si.execute(sql, [grp, low, high]))
        if not _agrees_with_sqlite([low]):
            twin = "SELECT id FROM dst WHERE grp + 0 = ? AND v > ? AND ? >= v"
            assert "Seq Scan" in si.explain(twin)
            reference = _outcome(lambda: si.execute(twin, [grp, low, high]))
            assert got == reference or (
                reference[0] == "error" and got == ("ok", [], 0))
            return
        lo = None if low is None else float(low)
        hi = None if high is None else float(high)
        expected = sorted(
            pk for pk, (g, v) in enumerate(values)
            if g == grp and None not in (v, lo, hi) and lo < v <= hi
        )
        assert got[:2] == ("ok", expected)
    finally:
        engine.shutdown()
