"""Simulated RDMA fabric: NICs, queue pairs, registered memory, verbs.

Substitutes for the paper's Mellanox ConnectX-3 / IS5030 InfiniBand testbed
(see DESIGN.md §2).  Registered regions are real byte buffers, so one-sided
accesses observe true memory contents at DMA time.
"""

from .cq import CompletionQueue
from .fabric import Fabric
from .memory import AccessViolation, MemoryRegion
from .nic import Nic, NicDown
from .qp import QpError, QueuePair
from .tcp import TcpConnection, TcpError, TcpNetwork, TcpStack
from .ud import UD_MTU, UdQueuePair
from .verbs import (Completion, CompletionPool, Opcode, RdmaError,
                    ReadWorkRequest, RemotePointer, WcStatus,
                    WriteWorkRequest)

__all__ = [
    "CompletionQueue",
    "Fabric",
    "MemoryRegion",
    "AccessViolation",
    "Nic",
    "NicDown",
    "QueuePair",
    "QpError",
    "UdQueuePair",
    "UD_MTU",
    "TcpNetwork",
    "TcpStack",
    "TcpConnection",
    "TcpError",
    "Completion",
    "CompletionPool",
    "Opcode",
    "WcStatus",
    "RemotePointer",
    "ReadWorkRequest",
    "WriteWorkRequest",
    "RdmaError",
]
