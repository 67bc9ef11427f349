"""Property-based end-to-end checks: for randomized data and randomized
migration shapes, lazy migration (driven by randomized client queries +
background sweep) and the multi-step copier must reach exactly the state
eager migration computes in one shot.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import BackgroundConfig, Database
from repro.core import (
    ConflictMode,
    EagerMigration,
    LazyMigrationEngine,
    MultiStepMigration,
)

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


@pytest.mark.slow
@_settings
@given(rows=rows_strategy, queries=queries_strategy)
def test_lazy_split_equals_eager(rows, queries):
    lazy = run_lazy(rows, queries, SPLIT_DDL, "part_a", ConflictMode.TRACKER)
    eager = run_eager(rows, SPLIT_DDL, "part_a")
    assert lazy == eager
    assert run_multistep(rows, SPLIT_DDL, "part_a") == eager


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
)
def test_any_granularity_equals_eager(rows, granule_size, queries):
    db, s = build_db(rows)
    engine = LazyMigrationEngine(
        db,
        background=BackgroundConfig(delay=0.01, chunk=16, interval=0.0),
        granule_size=granule_size,
    )
    handle = engine.submit("m", SPLIT_DDL)
    for kind, value in queries:
        if kind == "id":
            s.execute("SELECT v FROM part_a WHERE id = ?", [value])
    assert handle.await_completion(timeout=60)
    lazy = sorted(s.execute("SELECT id, v FROM part_a").rows)
    eager = run_eager(rows, SPLIT_DDL, "part_a")[0]
    assert lazy == eager
