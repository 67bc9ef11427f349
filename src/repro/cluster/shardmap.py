"""Shard map: which shard owns which rows.

SLSM-style shared-nothing partitioning of the TPC-C schema by
warehouse: every table whose rows belong to one warehouse carries that
warehouse id in a column (``w_id``, ``d_w_id``, ``c_w_id``, ...), and
shard *i* of *n* owns warehouses ``{w : (w - 1) % n == i}``.  ``item``
is the one warehouse-less table; it is **replicated** to every shard
(reads go to any one shard, writes fan out to all).

The map also covers the *migration output* tables
(``customer_private`` / ``customer_public`` for SPLIT,
``order_totals`` for AGGREGATE, ``orderline_stock`` for JOIN): their
partition column is derived from the same warehouse id, so a shard's
lazy migration never needs a row from another shard — the property
that makes the cluster-wide schema change embarrassingly parallel
once the epoch flip is agreed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..net.addr import parse_hostport_list

# table -> warehouse-id column (the partition key).
PARTITION_COLUMNS: dict[str, str] = {
    "warehouse": "w_id",
    "district": "d_w_id",
    "customer": "c_w_id",
    "customer_private": "c_w_id",
    "customer_public": "c_w_id",
    "history": "h_w_id",
    "orders": "o_w_id",
    "new_order": "no_w_id",
    "order_line": "ol_w_id",
    "order_totals": "ol_w_id",
    "orderline_stock": "ol_w_id",
    "stock": "s_w_id",
}

# Warehouse-less tables present on every shard.
REPLICATED_TABLES: frozenset[str] = frozenset({"item"})


def shard_for_warehouse(w_id: int, n_shards: int) -> int:
    """Warehouse → shard, round-robin so every shard count divides the
    warehouses evenly (warehouse ids are 1-based)."""
    return (int(w_id) - 1) % n_shards


def warehouses_for_shard(
    shard_id: int, n_shards: int, warehouses: int
) -> list[int]:
    """The warehouse ids shard ``shard_id`` owns under ``shard_for_warehouse``."""
    return [
        w for w in range(1, warehouses + 1)
        if shard_for_warehouse(w, n_shards) == shard_id
    ]


@dataclass
class ShardMap:
    """Addresses + partitioning rules for one cluster.

    ``addresses`` is the ordered shard list (shard id = list index);
    the router treats it as immutable for the life of the process.
    """

    addresses: list[tuple[str, int]] = field(default_factory=list)
    partition_columns: dict[str, str] = field(
        default_factory=lambda: dict(PARTITION_COLUMNS)
    )
    replicated: frozenset[str] = REPLICATED_TABLES

    @classmethod
    def from_spec(cls, spec: str, default_port: int = 5433) -> "ShardMap":
        """Build from a ``host:port,host:port,...`` string (router CLI)."""
        return cls(addresses=parse_hostport_list(spec, default_port=default_port))

    @property
    def n_shards(self) -> int:
        return len(self.addresses)

    def shard_for_key(self, key: int) -> int:
        return shard_for_warehouse(key, self.n_shards)

    def partition_column(self, table: str) -> str | None:
        """The partition column of ``table`` (None for replicated or
        unknown tables; the router refuses statements on unknown ones)."""
        return self.partition_columns.get(table.lower())

    def is_replicated(self, table: str) -> bool:
        return table.lower() in self.replicated

    def knows(self, table: str) -> bool:
        low = table.lower()
        return low in self.partition_columns or low in self.replicated

    def describe(self) -> dict:
        return {
            "shards": [
                {"shard": i, "host": host, "port": port}
                for i, (host, port) in enumerate(self.addresses)
            ],
            "partition_columns": dict(self.partition_columns),
            "replicated": sorted(self.replicated),
        }
