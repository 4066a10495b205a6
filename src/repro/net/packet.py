"""Packets, flows, and application signatures (§5.1).

The traffic director classifies packets in two stages.  Stage one matches
the L3/L4 headers against a user-supplied *application signature* — a
five-tuple pattern with wildcards — and is pushed down to the NIC's
hardware match engine so packets of no interest reach the host at line
rate.  Stage two (the offload predicate) inspects payloads and lives in
:mod:`repro.core.traffic_director`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional, Tuple

from ..digest import blake2b

__all__ = ["FiveTuple", "AppSignature", "Segment", "WILDCARD"]

#: Wildcard marker for signature fields ("*" in the paper's example).
WILDCARD = "*"


@dataclass(frozen=True)
class FiveTuple:
    """A concrete transport flow identity."""

    client_ip: str
    client_port: int
    server_ip: str
    server_port: int
    protocol: str = "tcp"

    def reversed(self) -> "FiveTuple":
        """The reverse direction of the same flow."""
        return FiveTuple(
            client_ip=self.server_ip,
            client_port=self.server_port,
            server_ip=self.client_ip,
            server_port=self.client_port,
            protocol=self.protocol,
        )

    def rss_hash(self, buckets: int) -> int:
        """Symmetric RSS hash: both directions map to the same core (§7).

        Symmetry avoids sharing TCP-splitting connection state between
        DPU cores when the host responds on a split connection.
        """
        return self._rss_digest % buckets

    @cached_property
    def _rss_digest(self) -> int:
        """The 64 bits every bucket count is taken from, derived once
        per flow object (``cached_property`` writes the ``__dict__``,
        which frozen allows and ``__eq__``/``__hash__`` do not see).

        blake2b over the *sorted* endpoint pair — not the builtin
        ``hash``, which is salted per process (PYTHONHASHSEED) and would
        make core and shard placement differ between runs.
        """
        endpoints = sorted(
            [
                f"{self.client_ip}:{self.client_port}",
                f"{self.server_ip}:{self.server_port}",
            ]
        )
        key = f"{endpoints[0]},{endpoints[1]},{self.protocol}".encode()
        digest = blake2b(key, digest_size=8).digest()
        return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class AppSignature:
    """Five-tuple pattern with wildcards; the paper's example matches any
    remote client, a specific local port, and TCP."""

    client_ip: Any = WILDCARD
    client_port: Any = WILDCARD
    server_ip: Any = WILDCARD
    server_port: Any = WILDCARD
    protocol: Any = "tcp"

    def matches(self, flow: FiveTuple) -> bool:
        """Hardware-stage match: header fields only."""
        checks = (
            (self.client_ip, flow.client_ip),
            (self.client_port, flow.client_port),
            (self.server_ip, flow.server_ip),
            (self.server_port, flow.server_port),
            (self.protocol, flow.protocol),
        )
        return all(
            pattern == WILDCARD or pattern == value
            for pattern, value in checks
        )


@dataclass
class Segment:
    """One TCP segment: sequence number, payload, and control flags."""

    seq: int
    payload_len: int
    data: Optional[bytes] = None
    ack: Optional[int] = None
    syn: bool = False
    fin: bool = False
    flow: Optional[FiveTuple] = field(default=None, repr=False)

    @property
    def end_seq(self) -> int:
        """Sequence number one past the last payload byte."""
        return self.seq + self.payload_len

    def span(self) -> Tuple[int, int]:
        """(seq, end_seq) half-open byte range."""
        return (self.seq, self.end_seq)
