"""Durable write-behind log tier (simulated persistent memory).

A :class:`PMDevice` models a byte-addressable persistent device whose
contents survive shard and server death; a :class:`DurableLog` group-
commits indicator-framed replication records onto it off the critical
path, so a shard whose primary *and* secondary die can be rebuilt by
replaying the log (``scan_log`` + ``replay_into``).
"""

from .device import PMDevice
from .log import DurableLog, DurableScan, LOG_BASE, scan_log, replay_into

__all__ = [
    "PMDevice",
    "DurableLog",
    "DurableScan",
    "LOG_BASE",
    "scan_log",
    "replay_into",
]
