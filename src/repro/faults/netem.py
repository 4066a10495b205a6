"""Network chaos: seeded per-message drop / duplicate / reorder / corrupt.

:class:`NetworkChaos` sits at the server's ``submit`` boundary — the
point where a client message crosses the wire into the NIC, and where
responses cross back.  Each crossing draws one uniform variate from the
chaos stream and classifies the message:

* ``deliver`` — untouched (the overwhelmingly common case);
* ``drop`` — the message never arrives; the client's retry timer is the
  only recovery path;
* ``corrupt`` — the payload fails its checksum at the receiver, which
  discards it: observationally a drop, but counted separately;
* ``duplicate`` — the message is delivered twice (a retransmit racing
  its original), exercising request-id dedup at the server and response
  dedup at the client;
* ``reorder`` — delivery is held back ``reorder_delay`` seconds, landing
  behind younger messages.

The classification order (drop, corrupt, duplicate, reorder) is fixed so
a plan's rates map onto disjoint probability bands of the single draw —
one draw per crossing keeps the stream alignment independent of which
faults are enabled.
"""

from __future__ import annotations

from typing import Callable, Generator

from ..sim import Environment, SeededRng

__all__ = ["NetworkChaos"]


class NetworkChaos:
    """Seeded fault gate for one direction-pair of a server's wire."""

    def __init__(
        self,
        env: Environment,
        rng: SeededRng,
        drop: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        corrupt: float = 0.0,
        reorder_delay: float = 20e-6,
    ) -> None:
        for rate in (drop, duplicate, reorder, corrupt):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must be probabilities")
        if drop + duplicate + reorder + corrupt > 1.0:
            raise ValueError("rates must sum to at most 1")
        self.env = env
        self.rng = rng
        self.drop = drop
        self.duplicate = duplicate
        self.reorder = reorder
        self.corrupt = corrupt
        self.reorder_delay = reorder_delay
        self.dropped = 0
        self.corrupted = 0
        self.duplicated = 0
        self.reordered = 0
        self.delivered = 0

    # ------------------------------------------------------------------
    # classification: one uniform draw per wire crossing
    # ------------------------------------------------------------------
    def classify(self) -> str:
        draw = self.rng.random()
        edge = self.drop
        if draw < edge:
            self.dropped += 1
            return "drop"
        edge += self.corrupt
        if draw < edge:
            self.corrupted += 1
            return "corrupt"
        edge += self.duplicate
        if draw < edge:
            self.duplicated += 1
            return "duplicate"
        edge += self.reorder
        if draw < edge:
            self.reordered += 1
            return "reorder"
        self.delivered += 1
        return "deliver"

    # ------------------------------------------------------------------
    # request direction: the server decides how to spawn its ingress
    # ------------------------------------------------------------------
    def ingress_copies(self) -> int:
        """How many copies of an arriving message to process.

        0 = dropped (or corrupted: the NIC discards a bad checksum),
        1 = normal, 2 = duplicated.  Reordered requests are handled by
        :meth:`ingress_delay` below.
        """
        action = self.classify()
        if action in ("drop", "corrupt"):
            return 0
        if action == "duplicate":
            return 2
        if action == "reorder":
            return -1  # sentinel: deliver once, after reorder_delay
        return 1

    def delayed(self, start: Callable[[], None]) -> Generator:
        """Named process body that delivers a held-back message."""
        yield self.env.now + self.reorder_delay
        start()

    # ------------------------------------------------------------------
    # response direction: wraps the per-response delivery callback
    # ------------------------------------------------------------------
    def wrap_response(self, deliver: Callable) -> Callable:
        """Gate a response-delivery callback through the chaos stream."""

        def gated(response) -> None:
            action = self.classify()
            if action in ("drop", "corrupt"):
                return
            if action == "duplicate":
                deliver(response)
                deliver(response)
                return
            if action == "reorder":
                generator = self.delayed(lambda: deliver(response))
                generator.__name__ = "chaos:reorder-response"
                self.env.process(generator)
                return
            deliver(response)

        return gated
