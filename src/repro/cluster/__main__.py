"""``python -m repro.cluster`` — run a local sharded cluster.

Two modes:

* **Local cluster** (default): spin up N in-process shard daemons on
  ephemeral ports plus the router, pre-loaded with TPC-C partitioned
  by warehouse — the README quick-start::

      python -m repro.cluster --shards 4
      python -m repro.cluster --shards 2 --warehouses 8 --port 5440

* **Router only**: front an existing fleet of ``bullfrogd`` processes
  (started with ``python -m repro.net``)::

      python -m repro.cluster --connect host1:5433,host2:5433

Either way the router speaks the ordinary wire protocol: point the
shell at it (``python -m repro.shell --connect :5433``), run
``\\shards``, or fire a cluster-wide lazy migration with the META
command ``cluster migrate split``.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from ..obs import Observability
from ..net.server import BullfrogServer, ServerConfig
from ..tpcc.schema import ScaleConfig
from .local import LocalCluster
from .router import RouterDatabase
from .shardmap import ShardMap


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="bullfrog-router: a sharded BullFrog cluster",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=5433,
                        help="router listen port")
    parser.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="spin up N local shard daemons (default mode)",
    )
    parser.add_argument(
        "--connect", default=None, metavar="HOST:PORT,HOST:PORT",
        help="route to an existing fleet instead of spawning shards",
    )
    parser.add_argument(
        "--warehouses", type=int, default=None,
        help="TPC-C warehouses to load across local shards "
             "(default: one per shard)",
    )
    parser.add_argument("--pool-size", type=int, default=8,
                        help="backend connections per shard")
    parser.add_argument("--statement-timeout", type=float, default=None)
    args = parser.parse_args(argv)

    config = ServerConfig(
        host=args.host, port=args.port,
        statement_timeout=args.statement_timeout,
    )

    cluster: LocalCluster | None = None
    if args.connect:
        shard_map = ShardMap.from_spec(args.connect)
        router_db = RouterDatabase(
            shard_map, obs=Observability(), pool_size=args.pool_size
        )
        router = BullfrogServer(router_db, config).start()
        for entry in router_db.shard_status():
            state = "up" if entry["healthy"] else "UNREACHABLE"
            print(f"shard {entry['shard']}: {entry['addr']} ({state})",
                  flush=True)
    else:
        warehouses = args.warehouses or args.shards
        scale = ScaleConfig(
            warehouses=warehouses,
            districts_per_warehouse=2,
            customers_per_district=30,
            items=50,
            initial_orders_per_district=30,
        )
        cluster = LocalCluster(
            n_shards=args.shards,
            scale=scale,
            pool_size=args.pool_size,
            obs_factory=Observability,
            router_config=config,
        )
        router_db = cluster.router_db
        router = cluster.router
        for shard, server in enumerate(cluster.shard_servers):
            owned = cluster.warehouses_on(shard)
            print(
                f"shard {shard}: 127.0.0.1:{server.port} "
                f"(warehouses {owned})",
                flush=True,
            )

    print(
        f"bullfrog-router listening on {args.host}:{router.port} "
        f"({router_db.shard_map.n_shards} shard(s))",
        flush=True,
    )

    stop = threading.Event()

    def _sigterm(signum, frame):  # noqa: ANN001 - signal handler shape
        stop.set()

    signal.signal(signal.SIGINT, _sigterm)
    signal.signal(signal.SIGTERM, _sigterm)
    stop.wait()
    print("draining...", flush=True)
    if cluster is not None:
        cluster.shutdown()
    else:
        router.shutdown()
        router_db.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
