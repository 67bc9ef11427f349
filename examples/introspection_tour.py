"""Tour of the in-database introspection surface.

Everything here is reachable through *plain SQL on an ordinary
session* — no Python-side hooks: ``EXPLAIN [ANALYZE]`` as a statement,
and the four ``bullfrog_stat_*`` system views sampled while a TPC-C
customer-split migration is in flight.  Writes the artifacts CI
uploads:

* ``results/introspection_explain.txt`` — EXPLAIN and EXPLAIN ANALYZE
  output for the same query before and after its granule migrated,
  showing per-operator rows/loops/time and the migrate-stall summary
  line;
* ``results/introspection_views.json`` — timestamped samples of all
  four system views taken mid-migration (the shape a dashboard
  scraping the views would see).

Run with::

    PYTHONPATH=src python examples/introspection_tour.py
"""

import json
import os

from repro import Database
from repro.core import BackgroundConfig, MigrationController, Strategy
from repro.obs import Observability
from repro.tpcc import ScaleConfig, create_schema, load_tpcc, split_migration_ddl

RESULTS = os.path.join(os.path.dirname(__file__), "..", "results")

SCALE = ScaleConfig(
    warehouses=1,
    districts_per_warehouse=2,
    customers_per_district=40,
    items=50,
    initial_orders_per_district=20,
)

VIEWS = (
    "bullfrog_stat_activity",
    "bullfrog_stat_migrations",
    "bullfrog_stat_locks",
    "bullfrog_stat_statements",
)

QUERY = (
    "SELECT c_balance FROM customer_private "
    "WHERE c_w_id = 1 AND c_d_id = 1 AND c_id = 5"
)


def plan_text(session, sql):
    return "\n".join(row[0] for row in session.execute(sql).rows)


def main() -> None:
    obs = Observability(sample_statements=1)
    db = Database(obs=obs)
    session = db.connect()
    create_schema(session)
    load_tpcc(db, SCALE)

    controller = MigrationController(db)
    controller.submit(
        "customer-split",
        split_migration_ddl(),
        strategy=Strategy.LAZY,
        background=BackgroundConfig(enabled=False),
    )

    sections = []
    sections.append("== EXPLAIN (new schema live, nothing migrated yet) ==")
    sections.append(plan_text(session, f"EXPLAIN {QUERY}"))
    sections.append("")
    sections.append("== EXPLAIN ANALYZE (first touch: pays the migrate stall) ==")
    sections.append(plan_text(session, f"EXPLAIN ANALYZE {QUERY}"))
    sections.append("")
    sections.append("== EXPLAIN ANALYZE again (granule already migrated) ==")
    sections.append(plan_text(session, f"EXPLAIN ANALYZE {QUERY}"))
    explain_out = "\n".join(sections)

    # Touch more customers so the views show a migration in flight.
    for c_id in range(1, 15):
        session.execute(
            "SELECT c_balance FROM customer_private "
            "WHERE c_w_id = 1 AND c_d_id = 1 AND c_id = ?",
            [c_id],
        )
    samples = {
        view: session.execute(f"SELECT * FROM {view}").dicts() for view in VIEWS
    }
    progress = controller.engine.progress()

    os.makedirs(RESULTS, exist_ok=True)
    explain_path = os.path.join(RESULTS, "introspection_explain.txt")
    with open(explain_path, "w") as fh:
        fh.write(explain_out + "\n")
    views_path = os.path.join(RESULTS, "introspection_views.json")
    with open(views_path, "w") as fh:
        json.dump({"views": samples, "progress": progress}, fh, indent=2, default=str)

    print(explain_out)
    print()
    migration_rows = samples["bullfrog_stat_migrations"]
    for row in migration_rows:
        print(
            f"migration {row['migration']} unit={row['unit']}: "
            f"{row['granules_migrated']}/{row['granules_total']} granules "
            f"(fraction={row['fraction']}, eta={row['eta_seconds']})"
        )
    print(f"wrote {explain_path}")
    print(f"wrote {views_path}")

    # Sanity: the artifacts must show what the docs promise.
    assert "Lazy Migration: stall=" in explain_out
    assert "actual time=" in explain_out
    assert migration_rows and all(
        0.0 <= row["fraction"] <= 1.0 for row in migration_rows
    )
    controller.active.shutdown()


if __name__ == "__main__":
    main()
