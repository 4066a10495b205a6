"""The traffic director (§5): bump-in-the-wire packet steering on the DPU.

Stage one — the *application signature* — is evaluated by the NIC's
hardware match engine at line rate, so flows of no interest forward to
the host with zero Arm-core involvement (§5.3).  Stage two — the
*offload predicate* — runs on a DPU core selected by symmetric RSS over
the flow's five-tuple, reassembles user messages from the (split) TCP
stream, and dispatches each request either to the offload engine or to
the host over the second leg of the split connection.

Costs are charged per packet on the owning core, calibrated against
Figure 21 (6.4 Gbps directed per Arm core) and the end-to-end offload
throughput of Figure 14a.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
)

from ..hardware.cpu import CpuPool
from ..hardware.nic import NetworkLink
from ..hardware.specs import MICROSECOND
from ..net.packet import AppSignature, FiveTuple
from ..sim import Environment
from ..structures.cuckoo import CuckooCacheTable
from .api import OffloadCallbacks
from .messages import IoRequest, IoResponse
from .offload_engine import OffloadEngine

if TYPE_CHECKING:
    from .dedup import RequestDedup
    from .retry import CircuitBreaker

__all__ = ["TrafficDirector"]

#: Host handler signature: (requests, respond) -> process generator.
HostHandler = Callable[[Sequence[IoRequest], Callable], Generator]


class TrafficDirector:
    """TLDK-based userspace packet processing with RSS core steering."""

    #: Host-core-seconds of TLDK receive processing per packet.
    RX_COST_PER_PACKET = 0.12 * MICROSECOND
    #: Host-core-seconds to emit one (indirect, zero-copy) packet.
    TX_COST_PER_PACKET = 0.10 * MICROSECOND
    #: Host-core-seconds per OffPred invocation per request.
    OFFPRED_COST = 0.03 * MICROSECOND
    #: Host-core-seconds to relay one host-bound packet over the split
    #: connection (full bump-in-the-wire forward).  Anchor: Figure 21 --
    #: one Arm core directs ~6.4 Gbps of MTU-sized traffic.
    FORWARD_COST_PER_PACKET = 0.36 * MICROSECOND
    #: Cost scale when messages arrive over RDMA instead of split TCP
    #: (§8.4 ⑩: the DDS-RDMA port skips TLDK's TCP processing).
    RDMA_COST_SCALE = 0.4
    #: Host-core-seconds per request to look its file up in the shard
    #: map (consistent-hash ring walk; only while the ring has more
    #: than one member).
    SHARD_LOOKUP_COST = 0.03 * MICROSECOND

    def __init__(
        self,
        env: Environment,
        link: NetworkLink,
        cores: List[CpuPool],
        signature: AppSignature,
        callbacks: OffloadCallbacks,
        cache_table: CuckooCacheTable,
        engine: Optional[OffloadEngine],
        host_handler: HostHandler,
        owner_of: Callable[[int], int],
        rdma: bool = False,
        shard_id: int = 0,
    ) -> None:
        if not cores:
            raise ValueError("traffic director needs at least one core")
        self.env = env
        self.link = link
        self.cores = cores
        self.signature = signature
        self.callbacks = callbacks
        self.cache_table = cache_table
        self.engine = engine
        self.host_handler = host_handler
        self.rdma = rdma
        self._cost_scale = self.RDMA_COST_SCALE if rdma else 1.0
        #: file id → the shard that serves it now: the shard map's
        #: ``owner``, or the replicator's ``leader_for`` on a replicated
        #: deployment (the acting leader, so a dead primary's keyspace is
        #: served by its backup).
        self.owner_of = owner_of
        self.shard_id = shard_id
        #: Sibling directors indexed by shard id, and the member count of
        #: the shard ring ``owner_of`` walks; the deployment assigns both
        #: when it builds this director's DPU.  A director on its own has
        #: no siblings and routes over a one-member ring.
        self.peers: List["TrafficDirector"] = []
        self.ring_size: Callable[[], int] = lambda: 1
        #: Optional resilience hooks (chaos deployments install these):
        #: request-id dedup shared across the deployment's directors, and
        #: a circuit breaker steering around a crashed engine.
        self.dedup: Optional["RequestDedup"] = None
        self.breaker: Optional["CircuitBreaker"] = None
        #: False while this director's DPU is dead: arriving messages
        #: black-hole and in-flight responses are suppressed (a crashed
        #: DPU cannot transmit).
        self.alive = True
        self.messages_seen = 0
        self.requests_offloaded = 0
        self.requests_to_host = 0
        self.unmatched_messages = 0
        self.requests_relayed = 0
        self.relayed_messages = 0
        self.dropped_messages = 0
        self.dropped_responses = 0

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def core_for(self, flow: FiveTuple) -> CpuPool:
        """Symmetric RSS: both directions of a flow share one core (§7)."""
        return self.cores[flow.rss_hash(len(self.cores))]

    def receive_message(
        self,
        flow: FiveTuple,
        requests: Sequence[IoRequest],
        respond: Callable,
    ) -> Generator:
        """Process one client message that arrived at the NIC.

        ``respond(IoResponse)`` delivers each request's response back to
        the client through :meth:`send_response`.  Requests that match
        the signature but cannot be offloaded are forwarded to the host
        handler (paying the Arm-core forward hop, §5.3).
        """
        if not self.alive:
            # Dead DPU: packets to it vanish; clients recover by retry
            # (and the sharded ingress reconnects them to a live shard).
            self.dropped_messages += 1
            return
        if not self.signature.matches(flow):
            # Hardware signature mismatch: line-rate forward to the host
            # with no DPU core involvement at all; the host responds
            # directly through the NIC.
            self.unmatched_messages += 1
            yield self.env.now + self.link.spec.host_forward
            yield from self.host_handler(
                list(requests), self._host_direct_sender(respond)
            )
            return
        core = self.core_for(flow)
        self.messages_seen += 1
        message_bytes = sum(r.wire_size for r in requests)
        packets = self.link.packets_for(message_bytes)
        batches: Dict[int, List[IoRequest]] = {}
        owner_of = self.owner_of
        for request in requests:
            batches.setdefault(owner_of(request.file_id), []).append(request)
        local = batches.pop(self.shard_id, [])
        # One booking: TLDK receive, the shard-map lookup per request
        # (a one-member ring needs no walk), and OffPred for the requests
        # this shard serves itself; a relayed batch pays OffPred where it
        # lands.  Then one forward hold per relayed batch, so a relay
        # leaves after the local OffPred, not before it.
        lookup = (
            self.SHARD_LOOKUP_COST * len(requests)
            if self.ring_size() > 1
            else 0.0
        )
        yield from core.execute(
            self._cost_scale * self.RX_COST_PER_PACKET * packets
            + lookup
            + self.OFFPRED_COST * len(local)
        )
        for shard_id in sorted(batches):
            batch = batches[shard_id]
            relay_bytes = sum(r.wire_size for r in batch)
            yield from core.execute(
                self._cost_scale
                * self.FORWARD_COST_PER_PACKET
                * self.link.packets_for(relay_bytes)
            )
            self.requests_relayed += len(batch)
            self.env.process(self._relay(shard_id, flow, batch, respond))
        if local:
            yield from self._dispatch(core, flow, local, respond)

    def _relay(
        self,
        shard_id: int,
        flow: FiveTuple,
        requests: List[IoRequest],
        respond: Callable,
    ) -> Generator:
        """DPU→DPU hop to the shard that owns these files."""
        yield self.env.now + self.link.spec.dpu_forward
        peer = self.peers[shard_id]
        # Spawned, not ``yield from``, on purpose: the hop decides a tie
        # that does happen.  A relay often lands on the peer's core at
        # the exact instant that core finishes a hold of its own (the
        # two chains add the same constants in a different order), and
        # the hop lets the core's own next hold book first, as it always
        # has.  Inlined, three seeds in ten of the replicated e2e
        # workload retry differently (DESIGN.md §11).
        # ddslint: disable=DDS305 -- the hop decides a same-instant tie
        yield self.env.process(peer.receive_relayed(flow, requests, respond))

    def receive_relayed(
        self,
        flow: FiveTuple,
        requests: Sequence[IoRequest],
        respond: Callable,
    ) -> Generator:
        """Serve a batch relayed by a sibling shard's director.

        The owning shard pays receive + OffPred and answers the client
        directly (direct server return) through its own transmit path.
        """
        if not self.alive:
            self.dropped_messages += 1
            return
        core = self.core_for(flow)
        self.relayed_messages += 1
        message_bytes = sum(r.wire_size for r in requests)
        packets = self.link.packets_for(message_bytes)
        yield from core.execute(
            self._cost_scale * self.RX_COST_PER_PACKET * packets
            + self.OFFPRED_COST * len(requests)
        )
        yield from self._dispatch(core, flow, requests, respond)

    def _dispatch(
        self,
        core: CpuPool,
        flow: FiveTuple,
        requests: Sequence[IoRequest],
        respond: Callable,
    ) -> Generator:
        """OffPred split: offload engine first, host fallback second."""
        wrapped = self._response_sender(flow, respond)
        if self.dedup is not None:
            # Retransmits of completed requests replay through the
            # transmit path; what comes back is the work to execute.
            requests = self.dedup.intake(requests, wrapped)
            if not requests:
                return
            wrapped = self._recording_sender(wrapped)
        host_requests, dpu_requests = self.callbacks.off_pred(
            requests, self.cache_table
        )
        for request in dpu_requests:
            accepted = False
            if self.engine is not None and (
                self.breaker is None or self.breaker.allow()
            ):
                bounce: List[str] = []
                accepted = yield from self.engine.handle(
                    request, wrapped, on_bounce=bounce.append
                )
                if self.breaker is not None:
                    if accepted:
                        self.breaker.record_success()
                    elif self.engine.crashed:
                        # Crash-induced rejections trip the breaker.
                        self.breaker.record_failure()
                    elif bounce and bounce[0] != "off-func":
                        # Capacity bounce (ring/buffers full): saturation,
                        # not failure — an opt-in threshold decides
                        # whether a streak of these opens the breaker.
                        self.breaker.record_saturation()
            if accepted:
                self.requests_offloaded += 1
            else:
                host_requests.append(request)
        if host_requests:
            self.requests_to_host += len(host_requests)
            host_bytes = sum(r.wire_size for r in host_requests)
            yield from core.execute(
                self._cost_scale
                * self.FORWARD_COST_PER_PACKET
                * self.link.packets_for(host_bytes)
            )
            # Off-path Arm-core forward to the host (~6 us on BF-2).
            yield self.env.now + self.link.spec.dpu_forward
            self.env.process(self.host_handler(host_requests, wrapped))

    def _recording_sender(self, sender: Callable) -> Callable:
        """Record outcomes in the dedup table before transmitting."""
        dedup = self.dedup

        def send(response: IoResponse) -> None:
            dedup.record(response)
            sender(response)

        return send

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------
    def _host_direct_sender(self, respond: Callable) -> Callable:
        """Host-direct response path for flows the DPU never touched."""

        def send(response: IoResponse) -> None:
            self.env.process(self._host_direct(response, respond))

        return send

    def _host_direct(
        self, response: IoResponse, respond: Callable
    ) -> Generator:
        yield from self.link.transmit("server_to_client", response.wire_size)
        respond(response)

    def _response_sender(
        self, flow: FiveTuple, respond: Callable
    ) -> Callable:
        def send(response: IoResponse) -> None:
            self.env.process(self.send_response(flow, response, respond))

        return send

    def send_response(
        self, flow: FiveTuple, response: IoResponse, respond: Callable
    ) -> Generator:
        """Emit a response to the client: TLDK send + wire transfer."""
        if not self.alive:
            # The DPU died while this response was in flight: it is
            # lost (the dedup table, if any, has still recorded the
            # application, so a retry replays it after recovery).
            self.dropped_responses += 1
            return
        core = self.core_for(flow)
        packets = self.link.packets_for(response.wire_size)
        yield from core.execute(
            self._cost_scale * self.TX_COST_PER_PACKET * packets
        )
        yield from self.link.transmit(
            "server_to_client", response.wire_size
        )
        respond(response)
