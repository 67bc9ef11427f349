"""End-to-end distributed tracing, wait-event classing, slow queries.

The contract under test (DESIGN.md §14): a traced client request
crosses the socket carrying ``(trace_id, span_id)`` in an optional
frame trailer, the server continues the trace through the event loop
(``net.queue`` → ``server.execute``/``server.txn`` → engine spans →
``net.flush``), and every blocking seam classifies its time into one
of the :data:`~repro.obs.tracectx.WAIT_CLASSES` — so the Perfetto
export, ``bullfrog_stat_wait_events``, and the slow-query record are
three views of the *same* measurements and must reconcile.

Compatibility is part of the contract: the trailer is strictly
optional, so an old client speaks to a new server (no trailer → no
trace) and a new client withholds the trailer from a server that did
not advertise ``CAP_TRACE``.
"""

from __future__ import annotations

import json
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import BackgroundConfig, Database, LazyMigrationEngine
from repro.net import BullfrogServer, ConnectionPool, ServerConfig, connect
from repro.net import protocol
from repro.obs import Observability, TraceLog, WAIT_CLASSES, merge_chrome
from repro.obs.tracectx import TraceContext
from repro.obs.tracectx import activate as trace_activate
from repro.obs.tracectx import deactivate as trace_deactivate

pytestmark = pytest.mark.obs

_settings = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_ids = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_trace_strategy = st.none() | st.tuples(_ids, _ids)

_TRAILER_LEN = 17  # u8 marker + i64 trace_id + i64 span_id


# ----------------------------------------------------------------------
# Wire trailer: round trips and old/new peer compatibility
# ----------------------------------------------------------------------


class TestTrailerCodec:
    @_settings
    @given(sql=st.text(max_size=120), trace=_trace_strategy)
    def test_query_trailer_roundtrip(self, sql, trace):
        frame = protocol.encode_query(sql, (1, None, "x"), trace=trace)
        _, payload, _ = protocol.decode_frame(frame)
        out = protocol.decode_query(payload)
        assert out["sql"] == sql
        assert out["trace"] == trace

    @_settings
    @given(
        name=st.text(max_size=40),
        params=st.just(()) | st.tuples(_ids),
        trace=_trace_strategy,
    )
    def test_execute_trailer_roundtrip(self, name, params, trace):
        frame = protocol.encode_execute(name, params, trace=trace)
        _, payload, _ = protocol.decode_frame(frame)
        out = protocol.decode_execute(payload)
        assert out["name"] == name
        assert out["params"] == params
        assert out["trace"] == trace

    @_settings
    @given(
        op=st.sampled_from(
            [protocol.TXN_BEGIN, protocol.TXN_COMMIT, protocol.TXN_ROLLBACK]
        ),
        trace=_trace_strategy,
    )
    def test_txn_trailer_roundtrip(self, op, trace):
        frame = protocol.encode_txn(op, trace=trace)
        _, payload, _ = protocol.decode_frame(frame)
        out = protocol.decode_txn(payload)
        assert out["op"] == op
        assert out["trace"] == trace

    @_settings
    @given(caps=st.integers(min_value=0, max_value=255))
    def test_welcome_capability_trailer_roundtrip(self, caps):
        frame = protocol.encode_welcome("1.0.0", 3, 9, capabilities=caps)
        _, payload, _ = protocol.decode_frame(frame)
        out = protocol.decode_welcome(payload)
        assert out["capabilities"] == caps
        assert out["schema_epoch"] == 3


class TestPeerCompat:
    """The trailer must be invisible to peers that predate it."""

    def test_untraced_frame_is_byte_identical_to_old_client(self):
        # trace=None emits nothing: the frame an old client library
        # produces and the frame a new untraced client produces are the
        # same bytes, so an old *server* accepts the new client too.
        for traced, plain in (
            (
                protocol.encode_query("SELECT 1", (7,), trace=(5, 6)),
                protocol.encode_query("SELECT 1", (7,)),
            ),
            (
                protocol.encode_execute("q", (7,), trace=(5, 6)),
                protocol.encode_execute("q", (7,)),
            ),
            (
                protocol.encode_txn(protocol.TXN_BEGIN, trace=(5, 6)),
                protocol.encode_txn(protocol.TXN_BEGIN),
            ),
        ):
            _, traced_payload, _ = protocol.decode_frame(traced)
            _, plain_payload, _ = protocol.decode_frame(plain)
            assert traced_payload[:-_TRAILER_LEN] == plain_payload
            assert traced_payload[-_TRAILER_LEN] == protocol._TRACE_MARKER

    @_settings
    @given(sql=st.text(max_size=60), trace=st.tuples(_ids, _ids))
    def test_old_client_frame_decodes_as_untraced(self, sql, trace):
        # A new server reading an old client: the payload simply ends
        # where the trailer would start, and decode yields trace=None
        # with every other field intact.
        _, traced_payload, _ = protocol.decode_frame(
            protocol.encode_query(sql, (), trace=trace)
        )
        old = protocol.decode_query(traced_payload[:-_TRAILER_LEN])
        new = protocol.decode_query(traced_payload)
        assert old["trace"] is None
        assert new["trace"] == trace
        assert old["sql"] == new["sql"] == sql

    def test_welcome_without_trailer_means_no_capabilities(self):
        # Old server → new client: WELCOME carries no capability byte,
        # which must decode as "no capabilities" rather than an error.
        frame = protocol.encode_welcome("0.9.0", 1, 2)
        _, payload, _ = protocol.decode_frame(frame)
        assert protocol.decode_welcome(payload)["capabilities"] == 0

    def test_client_withholds_trailer_from_incapable_server(self):
        # Behavioral leg of new-client/old-server compat: when the
        # server did not advertise CAP_TRACE, the client still records
        # its local span but puts nothing on the wire — so the server
        # log has no request spans for that trace id.
        db = Database(obs=Observability())
        srv = BullfrogServer(db, ServerConfig(port=0)).start()
        try:
            log = TraceLog()
            with connect("127.0.0.1", srv.port, trace=True,
                         trace_log=log) as conn:
                assert conn.trace_capable
                conn.trace_capable = False  # simulate an old server
                conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
                rows = conn.execute("SELECT * FROM t").rows
                assert rows == []
                ctx = conn.last_trace
            assert ctx is not None
            assert log.events_for_trace(ctx.trace_id)  # client-side span
            assert db.obs.trace.events_for_trace(ctx.trace_id) == []
        finally:
            srv.shutdown(drain_timeout=1.0)


# ----------------------------------------------------------------------
# End-to-end: one request, one trace, client and server sides linked
# ----------------------------------------------------------------------


def _start_traced_server(**obs_kwargs):
    db = Database(obs=Observability(**obs_kwargs))
    srv = BullfrogServer(db, ServerConfig(port=0)).start()
    return db, srv


def _events_by_name(events):
    out = {}
    for event in events:
        out.setdefault(event.name, []).append(event)
    return out


class TestEndToEnd:
    def test_single_statement_trace_spans_client_and_server(self):
        db, srv = _start_traced_server()
        client_log = TraceLog()
        try:
            with connect("127.0.0.1", srv.port, trace=True,
                         trace_log=client_log) as conn:
                assert conn.trace_capable
                conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
                conn.execute("INSERT INTO t VALUES (?, ?)", (1, "one"))
                rows = conn.execute("SELECT v FROM t WHERE id = ?", (1,)).rows
                assert rows == [("one",)]
                ctx = conn.last_trace
            assert ctx is not None
            time.sleep(0.1)  # net.flush is logged after the reply is sent

            # Client side: one root span carrying the ids we propagated.
            client_events = client_log.events_for_trace(ctx.trace_id)
            assert [e.name for e in client_events] == ["client.query"]
            root = client_events[0]
            assert root.args["span"] == ctx.span_id
            assert root.args["sql"].startswith("SELECT")

            # Server side: the request tree hangs off the client span.
            server_events = _events_by_name(
                db.obs.trace.events_for_trace(ctx.trace_id)
            )
            queue = server_events["net.queue"][0]
            assert queue.args["parent"] == ctx.span_id
            assert queue.args["wait"] == "net_queue"
            hop = queue.args["span"]
            execute = server_events["server.execute"][0]
            assert execute.args["span"] == hop
            stmt = [
                e
                for name, evs in server_events.items()
                if name.startswith("stmt.")
                for e in evs
            ]
            assert stmt and stmt[0].args["parent"] == hop
            flush = server_events["net.flush"][0]
            assert flush.args["parent"] == hop

            # Durations nest: every server span fits inside the client
            # round trip (clocks differ by epoch, so compare durations).
            assert execute.dur <= root.dur

            # The merged export is one Perfetto-loadable document with
            # a process row per side.
            doc = json.loads(
                json.dumps(
                    merge_chrome(
                        [client_log.to_chrome(), db.obs.trace.to_chrome()],
                        ["client", "bullfrogd"],
                    )
                )
            )
            pids = {e["pid"] for e in doc["traceEvents"]}
            assert pids == {1, 2}
            spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
            assert all("dur" in e for e in spans)
            linked = [
                e
                for e in spans
                if e.get("args", {}).get("trace") == ctx.trace_id
            ]
            assert {e["pid"] for e in linked} == {1, 2}
        finally:
            srv.shutdown(drain_timeout=1.0)

    def test_txn_commit_trace_includes_wal_append(self):
        db, srv = _start_traced_server()
        try:
            with connect("127.0.0.1", srv.port, trace=True,
                         trace_log=TraceLog()) as conn:
                conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
                conn.begin()
                conn.execute("INSERT INTO t VALUES (?, ?)", (1, "one"))
                conn.commit()
                ctx = conn.last_trace  # the COMMIT op's root
            assert ctx is not None
            time.sleep(0.1)
            names = {
                e.name for e in db.obs.trace.events_for_trace(ctx.trace_id)
            }
            assert {"net.queue", "server.txn", "wal.append"} <= names
        finally:
            srv.shutdown(drain_timeout=1.0)

    def test_sixteen_pipelined_clients_propagate_distinct_traces(self):
        db, srv = _start_traced_server()
        clients, ops_each = 16, 4
        errors: list[Exception] = []
        all_ctxs: list = []
        ctx_lock = threading.Lock()
        try:
            with connect("127.0.0.1", srv.port) as seed:
                seed.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
                seed.execute("INSERT INTO t VALUES (?, ?)", (1, "one"))

            def worker():
                try:
                    log = TraceLog()
                    with connect("127.0.0.1", srv.port, trace=True,
                                 trace_log=log) as conn:
                        pipe = conn.pipeline()
                        for _ in range(ops_each):
                            pipe.execute("SELECT v FROM t WHERE id = ?", (1,))
                        results = pipe.sync()
                        assert all(r.rows == [("one",)] for r in results)
                        assert len(pipe.traces) == ops_each
                        with ctx_lock:
                            all_ctxs.extend(pipe.traces)
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker) for _ in range(clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            assert not errors, errors
            assert all(ctx is not None for ctx in all_ctxs)
            trace_ids = {ctx.trace_id for ctx in all_ctxs}
            assert len(trace_ids) == clients * ops_each  # all distinct
            time.sleep(0.1)
            # Every propagated root got a server-side continuation whose
            # parent is exactly the client span that caused it.
            for ctx in all_ctxs:
                events = _events_by_name(
                    db.obs.trace.events_for_trace(ctx.trace_id)
                )
                queue = events["net.queue"][0]
                assert queue.args["parent"] == ctx.span_id
                assert events["server.execute"][0].args["span"] == \
                    queue.args["span"]
        finally:
            srv.shutdown(drain_timeout=2.0)

    def test_untraced_client_leaves_no_request_spans(self):
        db, srv = _start_traced_server()
        try:
            with connect("127.0.0.1", srv.port) as conn:
                assert not conn.trace_capable
                conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
                conn.execute("SELECT * FROM t")
            names = {e.name for e in db.obs.trace.events()}
            # Engine-internal sampling may still fire, but nothing ties
            # spans to a network request that never identified itself.
            assert not names & {"net.queue", "server.execute",
                                "server.txn", "net.flush"}
        finally:
            srv.shutdown(drain_timeout=1.0)

    def test_slow_query_record_carries_trace_and_net_queue_wait(self):
        db, srv = _start_traced_server(slow_query_threshold=0.0)
        try:
            with connect("127.0.0.1", srv.port, trace=True,
                         trace_log=TraceLog()) as conn:
                conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
                conn.execute("INSERT INTO t VALUES (?, ?)", (1, "one"))
                conn.execute("SELECT v FROM t WHERE id = ?", (1,))
                ctx = conn.last_trace
            assert ctx is not None
            records = [
                r for r in db.obs.slow_queries()
                if r.get("trace_id") == ctx.trace_id
            ]
            assert records, "threshold 0.0 must capture every statement"
            record = records[-1]
            assert record["stmt"] == "select"
            # Chain: client root → server hop (net.queue) → statement.
            hop = _events_by_name(
                db.obs.trace.events_for_trace(ctx.trace_id)
            )["net.queue"][0].args["span"]
            assert record["parent_id"] == hop
            # The server hop's queue time lands in the same accumulator
            # the statement reports from.
            assert "net_queue" in record["waits_ms"]
            assert record["waits_ms"]["net_queue"] >= 0.0
            assert record["duration_ms"] >= record["cpu_ms"] >= 0.0

            # And the same record is queryable through the system view.
            session = db.connect()
            rows = session.execute(
                "SELECT * FROM bullfrog_stat_slow_queries"
            ).dicts()
            assert any(r["trace_id"] == ctx.trace_id for r in rows)
        finally:
            srv.shutdown(drain_timeout=1.0)

    def test_server_health_views_expose_pool_and_buffers(self):
        db, srv = _start_traced_server()
        try:
            with connect("127.0.0.1", srv.port) as conn:
                conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
                session = db.connect()
                server_rows = session.execute(
                    "SELECT * FROM bullfrog_stat_server"
                ).dicts()
                assert len(server_rows) == 1
                row = server_rows[0]
                assert row["connections"] >= 1
                assert 0 <= row["serving"] <= row["connections"]
                assert row["max_connections"] == 64
                assert row["draining"] is False
                net_rows = session.execute(
                    "SELECT * FROM bullfrog_stat_network"
                ).dicts()
                assert net_rows
                assert all("inbox_depth" in r for r in net_rows)
                assert all(r["outbuf_hiwat"] >= 0 for r in net_rows)
        finally:
            srv.shutdown(drain_timeout=1.0)

    def test_pool_acquire_wait_is_classified(self):
        db, srv = _start_traced_server()
        obs = db.obs
        try:
            pool = ConnectionPool(
                "127.0.0.1", srv.port, size=1, obs=obs, trace_log=obs.trace
            )
            try:
                with pool.acquire() as conn:
                    conn.execute("CREATE TABLE t (id INT PRIMARY KEY)")
                    ctx = TraceContext()

                    def contender():
                        # The pool.acquire span is recorded inside a
                        # trace only; the wait is classified either way.
                        token = trace_activate(ctx)
                        try:
                            with pool.acquire() as other:
                                other.execute("SELECT * FROM t")
                        finally:
                            trace_deactivate(token)

                    thread = threading.Thread(target=contender)
                    thread.start()
                    time.sleep(0.25)  # hold the only slot
                thread.join(10)
                count, total = obs.wait_events_snapshot()["pool"]
                assert count >= 2  # the untraced first acquire counts too
                assert total >= 0.15
                waits = [
                    e for e in obs.trace.events()
                    if e.name == "pool.acquire"
                    and (e.args or {}).get("wait") == "pool"
                ]
                assert [e.args["trace"] for e in waits] == [ctx.trace_id]
                assert waits[0].dur >= 0.15 * 1e6
                assert ctx.wait_seconds("pool") >= 0.15
            finally:
                pool.close()
        finally:
            srv.shutdown(drain_timeout=1.0)


# ----------------------------------------------------------------------
# Router: client → router → shard, head-sampled when the client is not
# ----------------------------------------------------------------------

_ROUTED = "SELECT w_name FROM warehouse WHERE w_id = ?"


@pytest.fixture
def traced_cluster():
    from repro.cluster import LocalCluster

    with LocalCluster(n_shards=2, load=False, obs_factory=Observability) as cluster:
        yield cluster


class TestRouterTracing:
    def test_untraced_routed_statements_are_head_sampled(self, traced_cluster):
        """The router forwards a trace context only for the requests its
        own head-sampling coin picks: N untraced statements leave about
        N / sample_traces server spans on the shards, not N."""
        n = 256
        with connect("127.0.0.1", traced_cluster.port) as conn:
            for i in range(n):
                conn.execute(_ROUTED, (i % 4 + 1,))
        time.sleep(0.1)
        router_obs = traced_cluster.router_db.obs
        sampled = n // router_obs.sample_traces
        executes = [
            e for db in traced_cluster.shard_dbs for e in db.obs.trace.events()
            if e.name == "server.execute"
        ]
        assert 1 <= len(executes) <= 2 * sampled
        # Each sampled request is a root on the router: its statement
        # span carries the trace id the shard continued.
        roots = {
            e.args["trace"] for e in router_obs.trace.events()
            if e.name == "stmt.select"
        }
        assert {e.args["trace"] for e in executes} <= roots
        acquires = [
            e for e in router_obs.trace.events() if e.name == "pool.acquire"
        ]
        assert len(acquires) <= 2 * sampled
        assert all(e.args["trace"] in roots for e in acquires)

    def test_traced_request_crosses_router_to_shard(self, traced_cluster):
        with connect("127.0.0.1", traced_cluster.port, trace=True) as conn:
            for _ in range(4):
                conn.execute(_ROUTED, (2,))
                ctx = conn.last_trace
                time.sleep(0.05)
                router = {
                    e.name for e in traced_cluster.router_db.obs.trace
                    .events_for_trace(ctx.trace_id)
                }
                shards = {
                    e.name for db in traced_cluster.shard_dbs
                    for e in db.obs.trace.events_for_trace(ctx.trace_id)
                }
                assert {"net.queue", "server.execute", "pool.acquire"} <= router
                assert {"net.queue", "server.execute"} <= shards


# ----------------------------------------------------------------------
# Wait-event classing (embedded): exactness and reconciliation
# ----------------------------------------------------------------------


class TestWaitClasses:
    def test_lock_wait_classified_with_blocker_attribution(self):
        obs = Observability(slow_query_threshold=0.0)
        db = Database(obs=obs)
        holder = db.connect(isolation="read_committed")
        holder.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        holder.execute("INSERT INTO t VALUES (?, ?)", (1, 0))

        holder.begin()
        holder.execute("UPDATE t SET v = ? WHERE id = ?", (1, 1))
        blocked_for: list[float] = []

        def blocked():
            waiter = db.connect(isolation="read_committed")
            start = time.perf_counter()
            waiter.execute("UPDATE t SET v = ? WHERE id = ?", (2, 1))
            blocked_for.append(time.perf_counter() - start)

        thread = threading.Thread(target=blocked)
        thread.start()
        time.sleep(0.3)  # keep the X lock held while the waiter blocks
        holder.commit()
        thread.join(10)
        assert blocked_for and blocked_for[0] >= 0.2

        # 1. The classifier: a ``lock`` wait event of about that length.
        count, total = obs.wait_events_snapshot()["lock"]
        assert count >= 1
        assert total >= 0.2

        # 2. The span: lock.wait naming at least one blocking txn.
        lock_spans = [
            e for e in obs.trace.events()
            if e.name == "lock.wait" and (e.args or {}).get("wait") == "lock"
        ]
        assert lock_spans
        assert any(e.args.get("blockers") for e in lock_spans)
        assert max(e.dur for e in lock_spans) >= 0.2 * 1e6

        # 3. The slow-query record: the waiter's UPDATE charges its
        # stall to ``lock``, and cpu excludes the wait.
        updates = [
            r for r in obs.slow_queries()
            if r["stmt"] == "update" and r["waits_ms"].get("lock", 0) > 0
        ]
        assert updates
        record = updates[-1]
        assert record["waits_ms"]["lock"] >= 200.0
        assert record["cpu_ms"] <= record["duration_ms"] - 200.0

        # 4. Reconciliation: view totals == sum of span-recorded waits.
        span_total = sum(e.dur for e in lock_spans) / 1e6
        assert abs(span_total - total) < 0.01

        # 5. The SQL surface agrees with the snapshot.
        rows = db.connect().execute(
            "SELECT * FROM bullfrog_stat_wait_events"
        ).dicts()
        by_class = {r["wait_class"]: r for r in rows}
        assert set(by_class) == set(WAIT_CLASSES)
        assert by_class["lock"]["count"] >= count
        assert by_class["lock"]["total_seconds"] >= total

    def test_sync_migration_wait_classified(self):
        obs = Observability(slow_query_threshold=0.0)
        db = Database(obs=obs)
        session = db.connect(isolation="read_committed")
        session.execute(
            "CREATE TABLE src (id INT PRIMARY KEY, grp INT, v INT,"
            " tag VARCHAR(10))"
        )
        for i in range(40):
            session.execute(
                "INSERT INTO src VALUES (?, ?, ?, ?)",
                (i, i % 5, i * 10, f"t{i % 3}"),
            )
        engine = LazyMigrationEngine(
            db, background=BackgroundConfig(enabled=False), obs=obs
        )
        engine.submit(
            "m",
            """
            CREATE TABLE left_part (id INT PRIMARY KEY, v INT);
            INSERT INTO left_part (id, v) SELECT id, v FROM src;
            """,
        )
        for i in range(40):
            rows = session.execute(
                "SELECT v FROM left_part WHERE id = ?", (i,)
            ).rows
            assert rows == [(i * 10,)]
        assert engine.is_complete

        count, total = obs.wait_events_snapshot()["migration"]
        assert count >= 1
        assert total > 0.0

        # Foreground statements that pulled tuples in synchronously
        # charge the stall to ``migration`` and report what they moved.
        migrated = [
            r for r in obs.slow_queries()
            if r["stmt"] == "select" and r["migration"]["tuples"] > 0
        ]
        assert migrated
        record = migrated[0]
        assert record["waits_ms"].get("migration", 0) > 0.0
        assert record["migration"]["granules"] >= 1
        total_tuples = sum(r["migration"]["tuples"] for r in migrated)
        assert total_tuples == 40

    def test_explain_analyze_reports_trace_ids(self):
        obs = Observability(slow_query_threshold=0.0)
        db = Database(obs=obs)
        session = db.connect()
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        session.execute("INSERT INTO t VALUES (?, ?)", (1, 10))
        result = session.execute(
            "EXPLAIN ANALYZE SELECT v FROM t WHERE id = ?", (1,)
        )
        lines = [row[0] for row in result.rows]
        trace_lines = [l for l in lines if l.startswith("Trace:")]
        assert len(trace_lines) == 1
        # The printed ids are real: the trace they name is in the log.
        trace_id = int(
            trace_lines[0].split("trace_id=")[1].split()[0]
        )
        assert db.obs.trace.events_for_trace(trace_id)
