"""Tour of the cluster layer: sharded TPC-C behind one router.

Spins up a 2-shard in-process cluster (each shard an unmodified
``bullfrogd`` owning half the warehouses, ``item`` replicated), then
walks the whole story through a single client connection to the
router:

1. point reads route to the owning shard, cross-shard reads
   scatter/gather with a merged ORDER BY and re-aggregated COUNT;
2. a transaction binds lazily to one shard and commits there;
3. ``migrate split`` sent to the router runs the cluster-wide
   two-phase epoch flip — every shard switches schemas in one step,
   then lazily migrates only its own rows;
4. the shard health surface: META ``shards`` and the
   ``bullfrog_stat_shards`` system view, via plain SQL.

Run:  python examples/cluster_tour.py
"""

import json
import sys
import time

sys.path.insert(0, "src")

from repro.net import connect
from repro.cluster import LocalCluster
from repro.tpcc.schema import ScaleConfig


def banner(text: str) -> None:
    print(f"\n=== {text} " + "=" * max(0, 60 - len(text)))


def main() -> None:
    scale = ScaleConfig(
        warehouses=4, districts_per_warehouse=2,
        customers_per_district=10, items=20,
        initial_orders_per_district=10,
    )
    with LocalCluster(n_shards=2, scale=scale) as cluster:
        banner("cluster topology")
        for shard, server in enumerate(cluster.shard_servers):
            print(f"shard {shard}: 127.0.0.1:{server.port} "
                  f"warehouses {cluster.warehouses_on(shard)}")
        print(f"router:  127.0.0.1:{cluster.port}")

        conn = connect(port=cluster.port)

        banner("routing")
        for w_id in (1, 2):
            name = conn.execute(
                "SELECT w_name FROM warehouse WHERE w_id = ?", (w_id,)
            ).scalar()
            owner = (w_id - 1) % 2
            print(f"warehouse {w_id} (shard {owner}): w_name={name!r}")
        rows = conn.execute(
            "SELECT w_id FROM warehouse ORDER BY w_id DESC LIMIT 3"
        ).rows
        print(f"scatter + merged ORDER BY ... LIMIT: {rows}")
        print("cluster-wide COUNT(*):",
              conn.execute("SELECT COUNT(*) FROM customer").scalar(),
              "customers")

        banner("single-shard transaction")
        conn.begin()
        before = conn.execute(
            "SELECT w_ytd FROM warehouse WHERE w_id = ?", (2,)
        ).scalar()
        conn.execute(
            "UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?",
            (100, 2),
        )
        conn.commit()
        after = conn.execute(
            "SELECT w_ytd FROM warehouse WHERE w_id = ?", (2,)
        ).scalar()
        print(f"w_ytd on warehouse 2: {before} -> {after} "
              "(bound to shard 1, committed there)")

        banner("cluster-wide lazy SPLIT migration")
        print("epoch before flip:", conn.schema_epoch)
        flip = json.loads(conn.meta("migrate split"))
        print(f"two-phase flip committed in "
              f"{1000.0 * flip['elapsed_seconds']:.1f}ms "
              f"across {flip['shards']} shards")
        conn.execute("SELECT 1")
        print("epoch after flip: ", conn.schema_epoch)
        count = conn.execute(
            "SELECT COUNT(*) FROM customer_private"
        ).scalar()
        print(f"customer_private visible cluster-wide: {count} rows "
              "(migrated lazily, per shard)")
        while not cluster.migrations_complete():
            time.sleep(0.1)
        print("background migration drained on every shard")

        banner("shard health")
        print(conn.meta("shards"))
        rows = conn.execute(
            "SELECT shard, epoch, migration_complete, pool_in_use, "
            "pool_idle FROM bullfrog_stat_shards ORDER BY shard"
        ).dicts()
        for row in rows:
            print(row)
        conn.close()


if __name__ == "__main__":
    main()
