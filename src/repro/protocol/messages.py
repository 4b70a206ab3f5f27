"""Request/response wire messages.

Real byte encodings (not Python objects) because they travel through
registered memory regions via simulated RDMA Writes — framing bugs, torn
buffers, and stale bytes must be *representable* for the consistency
machinery to be testable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

__all__ = ["Op", "Status", "Request", "Response"]


class Op(IntEnum):
    """Operation codes carried in request headers."""
    GET = 1
    PUT = 2          # insert-or-update
    INSERT = 3       # fails if the key exists
    UPDATE = 4       # fails if the key is missing
    DELETE = 5
    LEASE_RENEW = 6


class Status(IntEnum):
    """Response status codes."""
    OK = 0
    NOT_FOUND = 1
    EXISTS = 2
    ERROR = 3
    #: Server-side load shed (``qos.server_shed_slots``): the shard
    #: refused to execute the request this sweep; the response's
    #: ``lease_expiry_ns`` field carries the retry-after hint (ns).
    THROTTLED = 4


_REQ = struct.Struct("<BBHIQ")          # op, tlen, klen, vlen, req_id
_RESP = struct.Struct("<BBHIQIQIQQ")    # op, status, _, vlen, req_id,
                                        # rkey, roffset, rlen, lease, version


@dataclass(frozen=True)
class Request:
    """A client-to-shard operation.

    ``tenant`` is the requesting tenant's name for server-side
    per-tenant accounting and shedding; it rides the previously-reserved
    second header byte as a trailing-bytes length, so the default
    (anonymous) encoding is bit-identical to the pre-tenant wire format.
    """

    op: Op
    key: bytes
    value: bytes = b""
    req_id: int = 0
    tenant: bytes = b""

    def encode(self) -> bytes:
        """Serialize to the on-wire request bytes."""
        return (
            _REQ.pack(self.op, len(self.tenant), len(self.key),
                      len(self.value), self.req_id)
            + self.key
            + self.value
            + self.tenant
        )

    @classmethod
    def decode(cls, data: bytes) -> "Request":
        """Parse request bytes (raises ValueError on length mismatch)."""
        if len(data) < _REQ.size:
            raise ValueError("request shorter than its header")
        op, tlen, klen, vlen, req_id = _REQ.unpack_from(data, 0)
        base = _REQ.size
        if len(data) != base + klen + vlen + tlen:
            raise ValueError("request length mismatch")
        return cls(
            op=Op(op),
            key=data[base:base + klen],
            value=data[base + klen:base + klen + vlen],
            req_id=req_id,
            tenant=data[base + klen + vlen:base + klen + vlen + tlen],
        )

    @property
    def wire_len(self) -> int:
        """Encoded size in bytes (for buffer sizing and wire accounting)."""
        return _REQ.size + len(self.key) + len(self.value) + len(self.tenant)


@dataclass(frozen=True)
class Response:
    """A shard-to-client reply.

    For successful GETs the response also carries the item's remote pointer
    (rkey/roffset/rlen) and the lease expiry timestamp, enabling the client
    to use one-sided RDMA Reads for this key until the lease lapses
    (§4.2.2 / §4.2.3).
    """

    op: Op
    status: Status
    req_id: int = 0
    value: bytes = b""
    rkey: int = 0
    roffset: int = 0
    rlen: int = 0
    lease_expiry_ns: int = 0
    version: int = 0

    def encode(self) -> bytes:
        """Serialize to the on-wire response bytes."""
        return (
            _RESP.pack(self.op, self.status, 0, len(self.value), self.req_id,
                       self.rkey, self.roffset, self.rlen,
                       self.lease_expiry_ns, self.version)
            + self.value
        )

    @classmethod
    def decode(cls, data: bytes) -> "Response":
        """Parse response bytes (raises ValueError on length mismatch)."""
        if len(data) < _RESP.size:
            raise ValueError("response shorter than its header")
        (op, status, _r, vlen, req_id, rkey, roffset, rlen,
         lease, version) = _RESP.unpack_from(data, 0)
        base = _RESP.size
        if len(data) != base + vlen:
            raise ValueError("response length mismatch")
        return cls(op=Op(op), status=Status(status), req_id=req_id,
                   value=data[base:base + vlen], rkey=rkey, roffset=roffset,
                   rlen=rlen, lease_expiry_ns=lease, version=version)

    @property
    def wire_len(self) -> int:
        """Encoded size in bytes."""
        return _RESP.size + len(self.value)

    @property
    def remote_pointer_valid(self) -> bool:
        """True when the response carries a usable remote pointer."""
        return self.rlen > 0

    @property
    def ok(self) -> bool:
        """Shorthand for ``status is Status.OK``."""
        return self.status is Status.OK

    @property
    def retry_after_ns(self) -> int:
        """Shed-retry hint of a THROTTLED response (rides the lease field,
        which a shed response cannot meaningfully carry anyway)."""
        return self.lease_expiry_ns if self.status is Status.THROTTLED else 0


def request_wire_len(klen: int, vlen: int) -> int:
    """Encoded request size without building it (buffer sizing)."""
    return _REQ.size + klen + vlen


def response_wire_len(vlen: int) -> int:
    return _RESP.size + vlen
