"""Index structures: compact signature table, chained baseline, lock-free map."""

from .chained import ChainedHashTable
from .compact import SLOTS_PER_BUCKET, CompactHashTable
from .export import (
    BUCKET_EXPORT_BYTES,
    ExportedBucket,
    IndexHandshake,
    InlineItem,
    parse_bucket,
)
from .hashing import bucket_index, hash64, signature16
from .lockfree import LockFreeMap

__all__ = [
    "CompactHashTable",
    "SLOTS_PER_BUCKET",
    "ChainedHashTable",
    "ExportedBucket",
    "IndexHandshake",
    "InlineItem",
    "parse_bucket",
    "BUCKET_EXPORT_BYTES",
    "LockFreeMap",
    "hash64",
    "signature16",
    "bucket_index",
]
