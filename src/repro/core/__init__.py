"""HydraDB core: shards, clients, consistent hashing, leases, the cluster."""

from .api import HydraCluster, RoutingTable
from .client import ClientTransport, HydraClient, StaticRouter
from .errors import (Backpressure, BadStatus, HydraError, LifecycleError,
                     RecoveryInProgress, RequestTimeout, ShardUnavailable,
                     SlotOverflow, TenantThrottled)
from .lease import LeaseManager, LeaseState
from .ring import HashRing
from .rptr import CachedPointer, RptrCache
from .server import HydraServer
from .shard import Connection, Shard, WRITE_OPS
from .store import ShardStore, StoreResult

__all__ = [
    "HydraCluster",
    "RoutingTable",
    "HydraClient",
    "ClientTransport",
    "StaticRouter",
    "HydraError",
    "RequestTimeout",
    "ShardUnavailable",
    "RecoveryInProgress",
    "BadStatus",
    "SlotOverflow",
    "LifecycleError",
    "Backpressure",
    "TenantThrottled",
    "HydraServer",
    "Shard",
    "Connection",
    "WRITE_OPS",
    "ShardStore",
    "StoreResult",
    "HashRing",
    "LeaseManager",
    "LeaseState",
    "RptrCache",
    "CachedPointer",
]
