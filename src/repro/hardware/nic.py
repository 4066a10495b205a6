"""Network link and NIC model.

A :class:`NetworkLink` connects the client machine to the storage server.
Each direction serializes packets at the link rate and adds propagation
delay.  The NIC also exposes the two forwarding hops that matter to DDS:

* ``host_forward`` — NIC to host over PCIe (the hop DDS offloading avoids);
* ``dpu_forward`` — the ~6 us Arm-core bump-in-the-wire forward that
  off-path DPUs like BF-2 pay for packets that must continue to the host
  (§5.3) unless the hardware signature match diverts them at line rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..sim import Environment, Resource
from .specs import NIC_100G, NicSpec

__all__ = ["LinkStats", "NetworkLink"]


@dataclass
class LinkStats:
    """Per-direction transmit counters."""

    packets: int = 0
    bytes: int = 0


class NetworkLink:
    """Full-duplex point-to-point link with per-direction serialization."""

    #: L2-L4 header bytes added to each packet on the wire.
    HEADER_BYTES = 66
    #: Both ends' NIC: 100 Gb/s, 1500 B MTU.
    spec: NicSpec = NIC_100G

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._tx = {
            "client_to_server": Resource(env, capacity=1),
            "server_to_client": Resource(env, capacity=1),
        }
        self.stats = {
            "client_to_server": LinkStats(),
            "server_to_client": LinkStats(),
        }

    def packets_for(self, payload_bytes: int) -> int:
        """Number of MTU-sized packets a payload segments into."""
        if payload_bytes <= 0:
            return 1
        return -(-payload_bytes // self.spec.mtu)

    def wire_bytes(self, payload_bytes: int) -> int:
        """Payload plus per-packet header overhead on the wire."""
        return payload_bytes + self.packets_for(payload_bytes) * self.HEADER_BYTES

    def transmit(self, direction: str, payload_bytes: int) -> Generator:
        """Process generator: serialize and propagate one message.

        Completes when the last byte arrives at the far end.  Booking
        the per-direction TX resource for the serialization time models
        link contention between concurrent senders; nothing happens
        between the last byte leaving and arriving, so one event covers
        both.
        """
        if direction not in self._tx:
            raise ValueError(f"unknown direction: {direction!r}")
        wire = self.wire_bytes(payload_bytes)
        sent = self._tx[direction].book(wire / self.spec.bandwidth)
        yield sent + self.spec.propagation
        stats = self.stats[direction]
        stats.packets += self.packets_for(payload_bytes)
        stats.bytes += wire
