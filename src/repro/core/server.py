"""Storage servers: one pipeline every deployment is built on.

Every server is a :class:`PipelineServer` — a composition of the stages
in :mod:`repro.topology.stages`: the generic ingress walks the inbound
stages, fans requests out to the execution stage (or hands the whole
message to a steering stage), and walks the outbound stages back.  Every
server exposes the same ``submit`` interface to the workload client and
the same per-stage cores-consumed roll-up, so every benchmark swaps
servers without touching the harness.

A solution without an offload engine is *only* such a composition, so
it has no class: :func:`repro.topology.registry.build_server` picks its
stages from the spec's transport and filesystem columns.  The one
subclass is :class:`~repro.topology.sharding.ShardedOffloadServer`, the
DDS offload deployment on N DPUs — the paper's single-DPU DDS is its
one-shard case — which has behaviour of its own (host fallback, commit
chain, resilience, membership).
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Sequence

from ..hardware.cpu import CpuPool
from ..hardware.nic import NetworkLink
from ..hardware.specs import HOST_CPU, HOST_OS_TCP, StackSpec
from ..net.packet import FiveTuple
from ..sim import Environment, Event
from ..topology.stages import Stage, StageKind
from .messages import IoRequest, IoResponse

__all__ = ["PipelineServer"]


class PipelineServer:
    """A server assembled from composable datapath stages.

    Whoever assembles it (:func:`~repro.topology.registry.build_server`,
    or the sharded offload server in ``__init__``) hands the stage list to
    :meth:`set_pipeline` and lists in ``filesystems`` what each DPU (or
    the host) executes against.  The generic ingress then walks the inbound
    stages (ingest + transport) forward, runs the execution stage per
    request (or yields the whole message to the steering stage, which
    owns its own egress), and walks transports in reverse plus the
    completion stages on the way out.  Cores-consumed accounting is a
    single roll-up over the stages — no per-server overrides.
    """

    #: Transport stack the *client* machine pays per message (Figure 16
    #: accounts client + server CPU); TCP solutions use the OS stack.
    client_spec: StackSpec = HOST_OS_TCP

    def __init__(self, env: Environment, link: NetworkLink) -> None:
        self.env = env
        self.link = link
        self.host_pool = CpuPool(env, HOST_CPU)
        self.requests_served = 0
        #: Chaos hook: a :class:`~repro.faults.netem.NetworkChaos` gates
        #: every wire crossing while a NIC fault window is open.
        self.network_chaos = None
        #: Resilience hook: the request-id dedup table that makes client
        #: retries idempotent.  Only the offload server installs one
        #: (``ShardedOffloadServer.enable_resilience``); the e2e probes,
        #: the invariant checker and the QoS gate read it on every server.
        self.dedup = None

    # ------------------------------------------------------------------
    # client-facing API
    # ------------------------------------------------------------------
    def submit(
        self,
        flow: FiveTuple,
        requests: Sequence[IoRequest],
        on_response: Optional[Callable[[IoResponse], None]] = None,
    ) -> Event:
        """Send one client message; the event triggers when every
        request in it has been answered (responses also stream through
        ``on_response`` as they arrive at the client)."""
        done = self.env.event()
        remaining = [len(requests)]
        responses: List[IoResponse] = []

        def arrived(response: IoResponse) -> None:
            responses.append(response)
            if on_response is not None:
                on_response(response)
            remaining[0] -= 1
            if remaining[0] == 0:
                done.succeed(responses)

        chaos = self.network_chaos
        if chaos is None:
            self.env.process(self._ingress(flow, list(requests), arrived))
            return done
        # A NIC fault window is open: both directions of the wire pass
        # through the chaos gate.  A dropped (or corrupted) request never
        # reaches the server, so ``done`` never fires — the client's
        # retry timer is the only recovery path.
        deliver = chaos.wrap_response(arrived)
        copies = chaos.ingress_copies()
        if copies == 0:
            return done
        if copies < 0:  # reordered: deliver once, late

            def start() -> None:
                self.env.process(self._ingress(flow, list(requests), deliver))

            delayed = chaos.delayed(start)
            delayed.__name__ = "chaos:reorder-request"
            self.env.process(delayed)
            return done
        for _copy in range(copies):
            self.env.process(self._ingress(flow, list(requests), deliver))
        return done

    # ------------------------------------------------------------------
    # the pipeline
    # ------------------------------------------------------------------
    def set_pipeline(
        self,
        stages: Sequence[Stage],
        execution: Optional[Stage] = None,
        steering: Optional[Stage] = None,
    ) -> None:
        if (execution is None) == (steering is None):
            raise ValueError(
                "a pipeline needs exactly one of execution or steering"
            )
        self._stages = list(stages)
        #: The per-request execution stage (None behind a steering stage).
        self.execution = execution
        self._steering = steering
        self._inbound = [
            s for s in self._stages
            if s.kind in (StageKind.INGEST, StageKind.TRANSPORT)
        ]
        if steering is not None:
            # The steering stage owns response egress (direct return via
            # the director's transmit path): nothing runs after it.
            self._outbound: List[Stage] = []
        else:
            transports = [
                s for s in self._stages if s.kind is StageKind.TRANSPORT
            ]
            completion = [
                s for s in self._stages if s.kind is StageKind.COMPLETION
            ]
            self._outbound = list(reversed(transports)) + completion

    @property
    def stages(self) -> List[Stage]:
        """The datapath stages, inbound order."""
        return list(self._stages)

    # ------------------------------------------------------------------
    # accounting: one roll-up over the stages
    # ------------------------------------------------------------------
    def host_cores(self, elapsed: float) -> float:
        """Average host cores consumed over ``elapsed`` seconds."""
        total = self.host_pool.cores_consumed(elapsed)
        for stage in self._stages:
            total += stage.host_cores(elapsed)
        return total

    def dpu_cores(self, elapsed: float) -> float:
        """Average DPU cores consumed over ``elapsed`` seconds."""
        total = 0.0
        for stage in self._stages:
            total += stage.dpu_cores(elapsed)
        return total

    def client_extra_cores(self) -> float:
        """Constant client-side cores (Redy's spin pollers)."""
        total = 0.0
        for stage in self._stages:
            total += stage.client_cores()
        return total

    def offloaded_fraction(self) -> float:
        """Share of the requests its traffic directors dispatched that
        the DPU served without the host (0 for servers without one)."""
        return 0.0

    # ------------------------------------------------------------------
    # generic ingress
    # ------------------------------------------------------------------
    def _ingress(
        self,
        flow: FiveTuple,
        requests: List[IoRequest],
        arrived: Callable,
    ) -> Generator:
        message_bytes = sum(r.wire_size for r in requests)
        for stage in self._inbound:
            yield from stage.inbound(flow, message_bytes)
        if self._steering is not None:
            yield from self._steering.steer(flow, requests, arrived)
            self.requests_served += len(requests)
            return
        served = [
            self.env.process(self.execution.serve(r)) for r in requests
        ]
        responses: List[IoResponse] = yield self.env.all_of(served)
        response_bytes = sum(r.wire_size for r in responses)
        for stage in self._outbound:
            yield from stage.outbound(flow, response_bytes)
        self.requests_served += len(responses)
        for response in responses:
            arrived(response)
