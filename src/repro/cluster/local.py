"""An in-process cluster: N shard servers + one router, one call.

:class:`LocalCluster` is the cluster analogue of the test suite's
"start a server on port 0" idiom — it builds N independent
:class:`~repro.db.Database` instances (each loading only the TPC-C
warehouses its shard owns, with ``item`` replicated everywhere),
serves each with a :class:`~repro.net.server.BullfrogServer` on an
ephemeral port, and fronts them with one more ``BullfrogServer`` over a
:class:`~repro.cluster.router.RouterDatabase`.  Everything lives in one
process (threads, loopback sockets), which is exactly what the tests,
the benchmark, and ``python -m repro.cluster`` need; the pieces are
the same classes a real multi-host deployment would run.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from ..db import Database
from ..net.server import BullfrogServer, ServerConfig
from ..tpcc.loader import load_tpcc
from ..tpcc.schema import ScaleConfig, create_schema
from .router import RouterDatabase
from .shardmap import ShardMap, warehouses_for_shard

__all__ = ["LocalCluster"]


class LocalCluster:
    """N sharded ``bullfrogd`` processes-worth of servers plus a
    router, all in-process.  Use as a context manager::

        with LocalCluster(n_shards=4, scale=scale) as cluster:
            conn = connect(port=cluster.port)
            ...

    ``shard_faults`` maps shard id -> fault injector (the
    ``repro.testing.faults`` contract) for two-phase-flip fault tests;
    ``router_faults`` injects at the router.  ``obs_factory`` is called
    once per shard (and once for the router) to build per-node
    observability — pass ``Observability`` itself for fully
    instrumented nodes.
    """

    def __init__(
        self,
        n_shards: int = 2,
        scale: ScaleConfig | None = None,
        load: bool = True,
        pool_size: int = 8,
        obs_factory: Callable[[], Any] | None = None,
        shard_faults: dict[int, Any] | None = None,
        router_faults: Any = None,
        shard_config: ServerConfig | None = None,
        router_config: ServerConfig | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self.scale = scale or ScaleConfig.small()
        self.shard_dbs: list[Database] = []
        self.shard_servers: list[BullfrogServer] = []
        self.router_db: RouterDatabase | None = None
        self.router: BullfrogServer | None = None
        shard_faults = shard_faults or {}
        base = shard_config or ServerConfig()
        try:
            for shard in range(n_shards):
                db = Database(obs=obs_factory() if obs_factory else None)
                session = db.connect()
                try:
                    create_schema(session)
                finally:
                    session.close()
                if load:
                    owned = warehouses_for_shard(
                        shard, n_shards, self.scale.warehouses
                    )
                    load_tpcc(db, self.scale, warehouse_ids=owned)
                server = BullfrogServer(
                    db,
                    dataclasses.replace(base, port=0),
                    faults=shard_faults.get(shard),
                ).start()
                self.shard_dbs.append(db)
                self.shard_servers.append(server)
            self.shard_map = ShardMap(addresses=[
                ("127.0.0.1", server.port)  # type: ignore[list-item]
                for server in self.shard_servers
            ])
            self.router_db = RouterDatabase(
                self.shard_map,
                obs=obs_factory() if obs_factory else None,
                pool_size=pool_size,
            )
            # Shards are always ephemeral (port=0 above); the router's
            # config is honoured verbatim so the CLI can pin its port.
            self.router = BullfrogServer(
                self.router_db,
                router_config or ServerConfig(port=0),
                faults=router_faults,
            ).start()
        except BaseException:
            self.shutdown()
            raise

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        assert self.router is not None and self.router.port is not None
        return self.router.port

    @property
    def address(self) -> str:
        return f"127.0.0.1:{self.port}"

    def warehouses_on(self, shard: int) -> list[int]:
        return warehouses_for_shard(shard, self.n_shards, self.scale.warehouses)

    def migrations_complete(self) -> bool:
        assert self.router_db is not None
        return self.router_db.migrations_complete()

    def shutdown(self) -> None:
        if self.router is not None:
            try:
                self.router.shutdown()
            finally:
                self.router = None
        if self.router_db is not None:
            try:
                self.router_db.close()
            finally:
                self.router_db = None
        for server in self.shard_servers:
            try:
                server.shutdown()
            except Exception:
                pass
        self.shard_servers = []

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False
