"""Coordination: ZooKeeper-like ensemble and the SWAT failover team."""

from .swat import HaControl, SwatTeam
from .zookeeper import WatchEvent, ZkError, ZkSession, ZooKeeper

__all__ = [
    "ZooKeeper",
    "ZkSession",
    "ZkError",
    "WatchEvent",
    "SwatTeam",
    "HaControl",
]
