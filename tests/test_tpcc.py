"""Tests for the TPC-C workload: loader invariants and transactions."""

from decimal import Decimal

import pytest

from repro.tpcc import (
    SCENARIOS,
    NURand,
    ScaleConfig,
    SchemaVariant,
    TpccClient,
    TRANSACTION_MIX,
    customer_last_name,
)


class TestLoaderInvariants:
    def test_row_counts(self, tpcc_db, tpcc_scale):
        s = tpcc_db.connect()
        expected_customers = (
            tpcc_scale.warehouses
            * tpcc_scale.districts_per_warehouse
            * tpcc_scale.customers_per_district
        )
        assert s.execute("SELECT COUNT(*) FROM warehouse").scalar() == tpcc_scale.warehouses
        assert (
            s.execute("SELECT COUNT(*) FROM district").scalar()
            == tpcc_scale.warehouses * tpcc_scale.districts_per_warehouse
        )
        assert s.execute("SELECT COUNT(*) FROM customer").scalar() == expected_customers
        assert s.execute("SELECT COUNT(*) FROM item").scalar() == tpcc_scale.items
        assert (
            s.execute("SELECT COUNT(*) FROM stock").scalar()
            == tpcc_scale.warehouses * tpcc_scale.items
        )

    def test_orders_and_lines_consistent(self, tpcc_db):
        s = tpcc_db.connect()
        line_counts = s.execute(
            "SELECT o_w_id, o_d_id, o_id, o_ol_cnt FROM orders"
        ).rows
        for w, d, o, declared in line_counts[:10]:
            actual = s.execute(
                "SELECT COUNT(*) FROM order_line "
                "WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
                [w, d, o],
            ).scalar()
            assert actual == declared

    def test_new_order_is_newest_third(self, tpcc_db, tpcc_scale):
        s = tpcc_db.connect()
        per_district = tpcc_scale.initial_orders_per_district // 3
        total = s.execute("SELECT COUNT(*) FROM new_order").scalar()
        districts = tpcc_scale.warehouses * tpcc_scale.districts_per_warehouse
        assert total == pytest.approx(per_district * districts, abs=districts)

    def test_next_o_id_matches_loaded_orders(self, tpcc_db, tpcc_scale):
        s = tpcc_db.connect()
        rows = s.execute("SELECT d_next_o_id FROM district").rows
        assert all(
            r[0] == tpcc_scale.initial_orders_per_district + 1 for r in rows
        )

    def test_undelivered_orders_have_no_carrier(self, tpcc_db):
        s = tpcc_db.connect()
        missing = s.execute(
            "SELECT COUNT(*) FROM orders, new_order "
            "WHERE o_w_id = no_w_id AND o_d_id = no_d_id AND o_id = no_o_id "
            "AND o_carrier_id IS NOT NULL"
        ).scalar()
        assert missing == 0

    def test_deterministic_by_seed(self):
        from repro import Database
        from repro.tpcc import create_schema, load_tpcc

        scale = ScaleConfig.small()
        totals = []
        for _ in range(2):
            db = Database()
            s = db.connect()
            create_schema(s)
            load_tpcc(db, scale)
            totals.append(
                s.execute("SELECT SUM(ol_amount) FROM order_line").scalar()
            )
        assert totals[0] == totals[1]


class TestHelpers:
    def test_last_name_syllables(self):
        assert customer_last_name(0) == "BARBARBAR"
        assert customer_last_name(999) == "EINGEINGEING"
        assert customer_last_name(371) == "PRICALLYOUGHT"

    def test_nurand_in_range(self):
        import random

        nurand = NURand(random.Random(1))
        for _ in range(500):
            assert 1 <= nurand.customer_id(3000) <= 3000
            assert 1 <= nurand.item_id(100000) <= 100000
            assert 0 <= nurand.last_name_number() <= 999

    def test_mix_weights(self):
        assert dict(TRANSACTION_MIX) == {
            "new_order": 45,
            "payment": 43,
            "delivery": 4,
            "order_status": 4,
            "stock_level": 4,
        }

    def test_pick_transaction_distribution(self, tpcc_db, tpcc_scale):
        client = TpccClient(tpcc_db, tpcc_scale, seed=1)
        picks = [client.pick_transaction() for _ in range(2000)]
        assert 0.35 < picks.count("new_order") / 2000 < 0.55
        assert 0.33 < picks.count("payment") / 2000 < 0.53


class TestTransactionsBase:
    def test_new_order_advances_district_and_inserts(self, tpcc_db, tpcc_scale):
        s = tpcc_db.connect()
        client = TpccClient(tpcc_db, tpcc_scale, seed=3, rollback_rate=0.0)
        orders_before = s.execute("SELECT COUNT(*) FROM orders").scalar()
        next_before = s.execute(
            "SELECT SUM(d_next_o_id) FROM district"
        ).scalar()
        assert client.run("new_order")
        assert s.execute("SELECT COUNT(*) FROM orders").scalar() == orders_before + 1
        assert s.execute(
            "SELECT SUM(d_next_o_id) FROM district"
        ).scalar() == next_before + 1

    def test_new_order_rollback_rate(self, tpcc_db, tpcc_scale):
        s = tpcc_db.connect()
        client = TpccClient(tpcc_db, tpcc_scale, seed=3, rollback_rate=1.0)
        orders_before = s.execute("SELECT COUNT(*) FROM orders").scalar()
        assert client.run("new_order")  # rollback is still a "success"
        assert s.execute("SELECT COUNT(*) FROM orders").scalar() == orders_before

    def test_payment_moves_money(self, tpcc_db, tpcc_scale):
        s = tpcc_db.connect()
        client = TpccClient(tpcc_db, tpcc_scale, seed=5)
        ytd_before = s.execute("SELECT SUM(w_ytd) FROM warehouse").scalar()
        history_before = s.execute("SELECT COUNT(*) FROM history").scalar()
        assert client.run("payment")
        assert s.execute("SELECT SUM(w_ytd) FROM warehouse").scalar() > ytd_before
        assert s.execute("SELECT COUNT(*) FROM history").scalar() == history_before + 1

    def test_delivery_clears_new_orders(self, tpcc_db, tpcc_scale):
        s = tpcc_db.connect()
        client = TpccClient(tpcc_db, tpcc_scale, seed=7)
        before = s.execute("SELECT COUNT(*) FROM new_order").scalar()
        assert client.run("delivery")
        after = s.execute("SELECT COUNT(*) FROM new_order").scalar()
        assert after == before - tpcc_scale.districts_per_warehouse

    def test_delivery_sets_carrier_and_balance(self, tpcc_db, tpcc_scale):
        s = tpcc_db.connect()
        client = TpccClient(tpcc_db, tpcc_scale, seed=7)
        oldest = s.execute(
            "SELECT no_o_id FROM new_order WHERE no_w_id = 1 AND no_d_id = 1 "
            "ORDER BY no_o_id LIMIT 1"
        ).scalar()
        assert client.run("delivery")
        carrier = s.execute(
            "SELECT o_carrier_id FROM orders "
            "WHERE o_w_id = 1 AND o_d_id = 1 AND o_id = ?",
            [oldest],
        ).scalar()
        assert carrier is not None

    def test_order_status_and_stock_level_run(self, tpcc_db, tpcc_scale):
        client = TpccClient(tpcc_db, tpcc_scale, seed=11)
        assert client.run("order_status")
        assert client.run("stock_level")

    def test_many_random_transactions(self, tpcc_db, tpcc_scale):
        client = TpccClient(tpcc_db, tpcc_scale, seed=13)
        for _ in range(120):
            name, ok = client.run_random()
            assert ok, name

    def test_hot_customers_restricts_ids(self, tpcc_db, tpcc_scale):
        client = TpccClient(tpcc_db, tpcc_scale, seed=17, hot_customers=3)
        assert all(client._customer() <= 3 for _ in range(100))


class TestTransactionsAfterMigrations:
    @pytest.mark.parametrize("scenario", ["split", "aggregate", "join"])
    def test_variant_transactions_run_post_migration(
        self, tpcc_db, tpcc_scale, scenario
    ):
        from repro.core import BackgroundConfig, MigrationController, Strategy

        config = SCENARIOS[scenario]
        controller = MigrationController(tpcc_db)
        handle = controller.submit(
            scenario,
            config["ddl"],
            strategy=Strategy.LAZY,
            background=BackgroundConfig(delay=0.05, chunk=256, interval=0.0),
            big_flip=config["big_flip"],
        )
        assert handle.await_completion(timeout=60)
        client = TpccClient(
            tpcc_db, tpcc_scale, variant=config["variant"], seed=19
        )
        for _ in range(60):
            name, ok = client.run_random()
            assert ok, (scenario, name)

    def test_aggregate_totals_consistent_with_lines(self, tpcc_db, tpcc_scale):
        from repro.core import BackgroundConfig, MigrationController, Strategy

        config = SCENARIOS["aggregate"]
        controller = MigrationController(tpcc_db)
        handle = controller.submit(
            "aggregate",
            config["ddl"],
            strategy=Strategy.LAZY,
            background=BackgroundConfig(delay=0.05, chunk=256, interval=0.0),
            big_flip=False,
        )
        assert handle.await_completion(timeout=60)
        client = TpccClient(
            tpcc_db, tpcc_scale, variant=SchemaVariant.AGGREGATE, seed=23,
            rollback_rate=0.0,
        )
        for _ in range(40):
            client.run_random()
        s = tpcc_db.connect()
        rows = s.execute("SELECT ol_w_id, ol_d_id, ol_o_id, ol_total FROM order_totals").rows
        for w, d, o, total in rows[:25]:
            actual = s.execute(
                "SELECT SUM(ol_amount) FROM order_line "
                "WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
                [w, d, o],
            ).scalar()
            assert actual == total, (w, d, o)


# The layers benchmark's ``tpcc_split_lazy`` data size.
SPLIT_SCALE = ScaleConfig(
    warehouses=1, districts_per_warehouse=10, customers_per_district=500,
    items=200, initial_orders_per_district=30,
)


class TestStockLevelScan:
    def test_stock_level_reads_only_its_twenty_orders(self, monkeypatch):
        """Stock-Level's ``ol_o_id >= ? AND ol_o_id < ?`` bounds the
        ``order_line_order_idx`` span: after 2,000 New-Orders its
        order_line scan reads the lines of the 20 orders it asks for,
        not the district's whole history."""
        from repro import Database
        from repro.db import Session
        from repro.storage.heap import HeapTable
        from repro.tpcc import create_schema, load_tpcc

        db = Database()
        session = db.connect()
        create_schema(session)
        load_tpcc(db, SPLIT_SCALE)
        client = TpccClient(db, SPLIT_SCALE, seed=29, rollback_rate=0.0)
        for _ in range(2000):
            assert client.run("new_order")

        order_line = db.catalog.table("order_line").heap
        reads = []
        statements = []
        execute = Session.execute

        def counted(method):
            def read(heap, tid, *args):
                if heap is order_line:
                    reads.append(tid)
                return method(heap, tid, *args)
            return read

        def spied_execute(self, sql, params=()):
            if "FROM order_line, stock" in sql:
                statements.append((sql, list(params)))
            return execute(self, sql, params)

        # Snapshot isolation reads versions through read_snapshot.
        for name in ("read", "read_snapshot"):
            monkeypatch.setattr(HeapTable, name, counted(getattr(HeapTable, name)))
        monkeypatch.setattr(Session, "execute", spied_execute)
        for _ in range(10):
            reads.clear()
            assert client.run("stock_level")
            sql, params = statements[-1]
            w_id, d_id, low, high = params[:4]
            lines = sum(
                1 for _tid, row in order_line.scan()
                if row[:2] == (w_id, d_id) and low <= row[2] < high
            )
            assert 0 < len(reads) <= lines
        monkeypatch.undo()

        plan = [
            row[0] for row in session.execute("EXPLAIN ANALYZE " + sql, params).rows
        ]
        cond = next(line for line in plan if "order_line.ol_o_id" in line)
        assert "Index Cond:" in cond
        assert "order_line.ol_o_id >= ? AND order_line.ol_o_id < ?" in cond
