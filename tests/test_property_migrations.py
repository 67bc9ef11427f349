"""Property-based end-to-end checks: for randomized data and randomized
migration shapes, lazy migration (driven by randomized client queries +
background sweep) and the multi-step copier must reach exactly the state
eager migration computes in one shot.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import BackgroundConfig, Database
from repro.core import (
    ConflictMode,
    EagerMigration,
    LazyMigrationEngine,
    MultiStepMigration,
)
from repro.errors import ReproError

_settings = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def build_db(rows):
    db = Database()
    s = db.connect()
    s.execute(
        "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v INT, w INT)"
    )
    s.execute("CREATE INDEX src_grp ON src (grp)")
    for i, (grp, v, w) in enumerate(rows):
        s.execute("INSERT INTO src VALUES (?, ?, ?, ?)", [i, grp, v, w])
    return db, s


rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=40,
)

queries_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("id"), st.integers(min_value=0, max_value=45)),
        st.tuples(st.just("grp"), st.integers(min_value=0, max_value=6)),
        st.tuples(st.just("range"), st.integers(min_value=0, max_value=45)),
    ),
    max_size=8,
)

SPLIT_DDL = """
CREATE TABLE part_a (id INT PRIMARY KEY, v INT);
INSERT INTO part_a (id, v) SELECT id, v FROM src;
CREATE TABLE part_b (id INT PRIMARY KEY, grp INT, w INT);
INSERT INTO part_b (id, grp, w) SELECT id, grp, w FROM src;
"""

# A split whose outputs keep different WHEREs: one 1:n unit, each output
# produced by its own filtered SELECT.
FILTERED_SPLIT_DDL = """
CREATE TABLE part_a (id INT PRIMARY KEY, v INT);
INSERT INTO part_a (id, v) SELECT id, v FROM src WHERE v > 0;
CREATE TABLE part_b (id INT PRIMARY KEY, grp INT, w INT);
INSERT INTO part_b (id, grp, w) SELECT id, grp, w FROM src WHERE v < 0;
"""

AGG_DDL = """
CREATE TABLE sums (grp INT PRIMARY KEY, total INT, n INT);
INSERT INTO sums (grp, total, n)
    SELECT grp, SUM(v), COUNT(*) FROM src GROUP BY grp;
"""


def run_lazy(rows, queries, ddl, table, conflict_mode):
    db, s = build_db(rows)
    engine = LazyMigrationEngine(
        db,
        background=BackgroundConfig(delay=0.01, chunk=16, interval=0.0),
        conflict_mode=conflict_mode,
    )
    handle = engine.submit("m", ddl)
    for kind, value in queries:
        if kind == "id" and table == "part_a":
            s.execute("SELECT v FROM part_a WHERE id = ?", [value])
        elif kind == "grp":
            if table == "sums":
                s.execute("SELECT total FROM sums WHERE grp = ?", [value])
            else:
                s.execute("SELECT w FROM part_b WHERE grp = ?", [value])
        elif kind == "range" and table == "part_a":
            s.execute("SELECT COUNT(v) FROM part_a WHERE id < ?", [value])
    assert handle.await_completion(timeout=60)
    return read_outputs(s, table)


def read_outputs(s, table):
    if table == "sums":
        return sorted(s.execute("SELECT grp, total, n FROM sums").rows)
    return (
        sorted(s.execute("SELECT id, v FROM part_a").rows),
        sorted(s.execute("SELECT id, grp, w FROM part_b").rows),
    )


def run_eager(rows, ddl, table):
    db, s = build_db(rows)
    EagerMigration(db).submit("m", ddl)
    return read_outputs(s, table)


def run_multistep(rows, ddl, table):
    db, s = build_db(rows)
    multistep = MultiStepMigration(db, chunk=16, interval=0.0)
    multistep.submit("m", ddl)
    assert multistep.await_completion(timeout=60)
    return read_outputs(s, table)


splits_strategy = st.sampled_from([SPLIT_DDL, FILTERED_SPLIT_DDL])


@pytest.mark.slow
@_settings
@given(rows=rows_strategy, queries=queries_strategy, ddl=splits_strategy)
def test_lazy_split_equals_eager(rows, queries, ddl):
    lazy = run_lazy(rows, queries, ddl, "part_a", ConflictMode.TRACKER)
    eager = run_eager(rows, ddl, "part_a")
    assert lazy == eager
    assert run_multistep(rows, ddl, "part_a") == eager


@pytest.mark.slow
@_settings
@given(rows=rows_strategy, queries=queries_strategy)
def test_lazy_aggregate_equals_eager(rows, queries):
    lazy = run_lazy(rows, queries, AGG_DDL, "sums", ConflictMode.TRACKER)
    eager = run_eager(rows, AGG_DDL, "sums")
    assert lazy == eager
    assert run_multistep(rows, AGG_DDL, "sums") == eager


@pytest.mark.slow
@_settings
@given(rows=rows_strategy, queries=queries_strategy)
def test_on_conflict_mode_equals_eager(rows, queries):
    lazy = run_lazy(rows, queries, SPLIT_DDL, "part_a", ConflictMode.ON_CONFLICT)
    eager = run_eager(rows, SPLIT_DDL, "part_a")
    assert lazy == eager


@pytest.mark.slow
@_settings
@given(
    rows=rows_strategy,
    granule_size=st.sampled_from([1, 3, 8, 64]),
    queries=queries_strategy,
    ddl=splits_strategy,
)
def test_any_granularity_equals_eager(rows, granule_size, queries, ddl):
    db, s = build_db(rows)
    engine = LazyMigrationEngine(
        db,
        background=BackgroundConfig(delay=0.01, chunk=16, interval=0.0),
        granule_size=granule_size,
    )
    handle = engine.submit("m", ddl)
    for kind, value in queries:
        if kind == "id":
            s.execute("SELECT v FROM part_a WHERE id = ?", [value])
    assert handle.await_completion(timeout=60)
    assert read_outputs(s, "part_a") == run_eager(rows, ddl, "part_a")


# ----------------------------------------------------------------------
# Client writes against an output's unique keys (sections 2.1, 4.5)
# ----------------------------------------------------------------------

# Two unique keys on the output; old row i holds id i and u = 100 + 2i,
# or a NULL u when its w is 0 (any number of NULLs is unique).
KEYS_DDL = """
CREATE TABLE dst (id INT PRIMARY KEY, u INT UNIQUE, v INT);
INSERT INTO dst (id, u, v) SELECT id, u, v FROM src;
"""


def build_keyed_db(rows):
    db = Database()
    s = db.connect()
    s.execute("CREATE TABLE src (id INT PRIMARY KEY, v INT, u INT)")
    for i, (_grp, v, w) in enumerate(rows):
        s.execute(
            "INSERT INTO src VALUES (?, ?, ?)", [i, v, None if w == 0 else 100 + 2 * i]
        )
    return db


ids = st.integers(min_value=0, max_value=45)
us = st.one_of(st.none(), st.integers(min_value=100, max_value=190))
writes_strategy = st.lists(
    st.one_of(
        # INSERT ... VALUES with 1-3 (id, u) rows, as literals or params.
        st.tuples(
            st.just("insert"),
            st.lists(st.tuples(ids, us), min_size=1, max_size=3).map(tuple),
            st.booleans(),
        ),
        # UPDATE dst SET id = ?, u = ? (either or both) WHERE id = ?.
        st.tuples(
            st.just("update"),
            st.one_of(st.none(), ids),
            st.one_of(st.just("keep"), us),
            ids,
            st.booleans(),
        ).filter(lambda w: w[1] is not None or w[2] != "keep"),
        # A unique key computed from the row itself, one row at a time.
        st.tuples(
            st.just("bump"),
            st.sampled_from(["id", "u"]),
            st.integers(min_value=1, max_value=6),
            ids,
        ),
    ),
    min_size=1,
    max_size=8,
)


def render_write(write):
    """(sql, params) for one generated write."""
    kind = write[0]
    if kind == "bump":
        _kind, column, step, where_id = write
        return f"UPDATE dst SET {column} = {column} + ? WHERE id = ?", [step, where_id]
    if kind == "insert":
        _kind, values, as_params = write
        params = [x for row in values for x in row]
        if as_params:
            return "INSERT INTO dst (id, u, v) VALUES " + ", ".join(
                "(?, ?, 0)" for _row in values
            ), params
        return "INSERT INTO dst (id, u, v) VALUES " + ", ".join(
            f"({i}, {'NULL' if u is None else u}, 0)" for i, u in values
        ), []
    _kind, new_id, new_u, where_id, as_params = write
    assigned = [("id", new_id)] if new_id is not None else []
    if new_u != "keep":
        assigned.append(("u", new_u))
    if as_params:
        sets = ", ".join(f"{column} = ?" for column, _value in assigned)
        return f"UPDATE dst SET {sets} WHERE id = ?", [v for _c, v in assigned] + [where_id]
    sets = ", ".join(
        f"{column} = {'NULL' if value is None else value}" for column, value in assigned
    )
    return f"UPDATE dst SET {sets} WHERE id = {where_id}", []


def apply_writes(db, writes):
    """Each write's outcome (accepted, or the error class), then the
    whole output — read under 2PL, so a lazy migration completes."""
    s = db.connect()
    outcomes = []
    for write in writes:
        sql, params = render_write(write)
        try:
            s.execute(sql, params)
            outcomes.append("ok")
        except ReproError as exc:
            outcomes.append(type(exc).__name__)
    reader = db.connect(isolation="read_committed")
    return outcomes, sorted(reader.execute("SELECT id, u, v FROM dst").rows)


TEN_ROWS = [(0, i, 1) for i in range(10)]


@pytest.mark.slow
@_settings
@given(
    rows=rows_strategy,
    writes=writes_strategy,
    conflict_mode=st.sampled_from([ConflictMode.TRACKER, ConflictMode.ON_CONFLICT]),
)
# Writes that slip past unmigrated conflicting rows if a statement's
# constraint groups are ANDed instead of ORed: a two-row VALUES over
# unmigrated ids 3 and 4, an INSERT colliding on only the PRIMARY KEY
# or only the UNIQUE, and an UPDATE assigning both keys.
@example(rows=TEN_ROWS, writes=[("insert", ((3, 900), (4, 901)), False)],
         conflict_mode=ConflictMode.TRACKER)
@example(rows=TEN_ROWS, writes=[("insert", ((5, 902),), False)],
         conflict_mode=ConflictMode.TRACKER)
@example(rows=TEN_ROWS, writes=[("insert", ((40, 106),), True)],
         conflict_mode=ConflictMode.TRACKER)
@example(rows=TEN_ROWS, writes=[("update", 5, 190, 1, False)],
         conflict_mode=ConflictMode.TRACKER)
def test_lazy_unique_key_writes_equal_eager(rows, writes, conflict_mode):
    """Every write's accept/reject outcome and the final output match
    eager migration's: the write migrates each old row it could collide
    with before it runs, so a conflict is caught at the statement, not
    left to wedge a later migration of the colliding row."""
    db = build_keyed_db(rows)
    engine = LazyMigrationEngine(
        db, background=BackgroundConfig(enabled=False), conflict_mode=conflict_mode
    )
    engine.submit("m", KEYS_DDL)
    lazy = apply_writes(db, writes)  # its final full read migrates the rest
    assert engine.is_complete
    db = build_keyed_db(rows)
    EagerMigration(db).submit("m", KEYS_DDL)
    assert lazy == apply_writes(db, writes)
