"""``python -m repro.net`` — run a standalone ``bullfrogd``.

Serves a fresh in-memory database (optionally pre-loaded with a tiny
TPC-C data set for demos and the CI smoke) until interrupted.

::

    python -m repro.net --port 5433
    python -m repro.net --port 5433 --load-tpcc 1 --statement-timeout 30
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from ..db import Database
from ..obs import Observability
from .server import BullfrogServer, ServerConfig


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net", description="bullfrogd: BullFrog over TCP"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=5433)
    parser.add_argument("--max-connections", type=int, default=64)
    parser.add_argument("--idle-timeout", type=float, default=None)
    parser.add_argument("--statement-timeout", type=float, default=None)
    parser.add_argument("--drain-timeout", type=float, default=5.0)
    parser.add_argument(
        "--load-tpcc", type=int, metavar="WAREHOUSES", default=None,
        help="pre-load a small TPC-C data set with N warehouses",
    )
    args = parser.parse_args(argv)

    db = Database(obs=Observability())
    if args.load_tpcc is not None:
        from ..tpcc import ScaleConfig, create_schema, load_tpcc

        scale = ScaleConfig(
            warehouses=args.load_tpcc,
            districts_per_warehouse=2,
            customers_per_district=30,
            items=50,
            initial_orders_per_district=30,
        )
        session = db.connect()
        create_schema(session)
        load_tpcc(db, scale)
        print(f"loaded TPC-C: {args.load_tpcc} warehouse(s)", flush=True)

    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        idle_timeout=args.idle_timeout,
        statement_timeout=args.statement_timeout,
        drain_timeout=args.drain_timeout,
    )
    server = BullfrogServer(db, config).start()
    print(f"bullfrogd listening on {args.host}:{server.port}", flush=True)

    stop = threading.Event()

    def _sigterm(signum, frame):  # noqa: ANN001 - signal handler shape
        stop.set()

    signal.signal(signal.SIGINT, _sigterm)
    signal.signal(signal.SIGTERM, _sigterm)
    stop.wait()
    print("draining...", flush=True)
    outcome = server.shutdown()
    print(
        f"shutdown: {outcome['drained']} drained, "
        f"{outcome['aborted']} aborted",
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
