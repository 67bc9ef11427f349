"""Shared-nothing sharding for BullFrog: distributed lazy migration.

The cluster layer (DESIGN.md §16) partitions TPC-C by warehouse across
N unmodified ``bullfrogd`` shards behind a ``bullfrog-router`` that
speaks the same wire protocol to clients.  Schema changes become a
cluster-wide two-phase epoch flip (PREPARE gates each shard, COMMIT
performs every shard's logical switch), after which each shard runs
its own lazy migration over only the rows it owns — the SLSM
(arXiv:2404.03929) model reproduced on BullFrog's engine.

Quick start::

    python -m repro.cluster --shards 4

or in-process::

    from repro.cluster import LocalCluster
    with LocalCluster(n_shards=2) as cluster:
        conn = repro.net.connect(port=cluster.port)
"""

from .local import LocalCluster
from .router import RouterDatabase, RouterSession, RoutePlan
from .shardmap import (
    PARTITION_COLUMNS,
    REPLICATED_TABLES,
    ShardMap,
    shard_for_warehouse,
    warehouses_for_shard,
)

__all__ = [
    "PARTITION_COLUMNS",
    "REPLICATED_TABLES",
    "LocalCluster",
    "RoutePlan",
    "RouterDatabase",
    "RouterSession",
    "ShardMap",
    "shard_for_warehouse",
    "warehouses_for_shard",
]
