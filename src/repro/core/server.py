"""Storage servers: one pipeline, and the offload deployments on top.

Every server is a :class:`PipelineServer` — a composition of the stages
in :mod:`repro.topology.stages`: the generic ingress walks the inbound
stages, fans requests out to the execution stage (or hands the whole
message to a steering stage), and walks the outbound stages back.  Every
server exposes the same ``submit`` interface to the workload client and
the same per-stage cores-consumed roll-up, so every benchmark swaps
servers without touching the harness.

A solution without an offload engine is *only* such a composition, so
it has no class: :func:`repro.topology.registry.build_server` picks its
stages from the spec's transport and filesystem columns.  What is still
a class is what has behaviour of its own:

* :class:`OffloadServerBase` — the host half every offload deployment
  shares: the split connection's fallback with its write-commit chain,
  the resilience arming, the per-DPU unit list.
* :class:`DdsOffloadServer` — full DDS on one DPU: the NIC's signature
  match and the traffic director steer read requests to the offload
  engine, which serves them without touching the host; writes (and
  cache-miss reads) fall back to the host library path.
  (:class:`~repro.topology.sharding.ShardedOffloadServer` is N DPUs
  with steering, replication, resharding and QoS in front.)
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Sequence

from ..hardware.cpu import CpuPool
from ..hardware.nic import NetworkLink
from ..hardware.specs import (
    BENCH_APP_NET,
    HOST_CPU,
    HOST_OS_TCP,
    RDMA_VERBS,
    StackSpec,
)
from ..net.packet import AppSignature, FiveTuple
from ..net.stack import StackLayer
from ..sim import Environment, Event
from ..storage.filesystem import DdsFileSystem, FileSystemError
from ..topology.stages import (
    DirectorSteering,
    OffloadShard,
    Stage,
    StageKind,
    WireIngress,
)
from .api import OffloadCallbacks, passthrough_callbacks
from .dedup import RequestDedup
from .messages import IoRequest, IoResponse, OpCode
from .retry import CircuitBreaker

__all__ = [
    "PipelineServer",
    "OffloadServerBase",
    "DdsOffloadServer",
]


class PipelineServer:
    """A server assembled from composable datapath stages.

    Whoever assembles it (:func:`~repro.topology.registry.build_server`,
    or an offload subclass in ``__init__``) hands the stage list to
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
        #: Resilience hook: request-id dedup making client retries
        #: idempotent (installed by :meth:`enable_resilience`).
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
    # resilience (chaos deployments opt in; figures never pay for it)
    # ------------------------------------------------------------------
    def enable_resilience(self) -> RequestDedup:
        """Install request-id dedup (deployments with an offload engine
        add a host-fallback circuit breaker).  Returns the dedup table
        so scenarios can audit it after the run.  Enables once: a second
        table would leave in-flight requests recording into the first
        while their retries consult the second, and re-execute."""
        if self.dedup is not None:
            raise RuntimeError("resilience is already enabled")
        self.dedup = RequestDedup(self.env)
        return self.dedup

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
        replayed: List[IoResponse] = []
        if self.dedup is not None:
            requests = self.dedup.intake(requests, replayed.append)
            if not requests and not replayed:
                return
        served = [
            self.env.process(self.execution.serve(r)) for r in requests
        ]
        responses: List[IoResponse] = (
            (yield self.env.all_of(served)) if served else []
        )
        if self.dedup is not None:
            for response in responses:
                self.dedup.record(response)
            responses = replayed + responses
        response_bytes = sum(r.wire_size for r in responses)
        for stage in self._outbound:
            yield from stage.outbound(flow, response_bytes)
        self.requests_served += len(responses)
        for response in responses:
            arrived(response)


class OffloadServerBase(PipelineServer):
    """What every offload deployment shares, whatever its DPU count.

    A deployment is a list of :class:`~repro.topology.stages.
    OffloadShard` units — ``shards``, one per DPU, shard ``i`` over
    ``filesystems[i]`` — in front of one host.  The host half lives
    here once: the application callbacks, the split connection's
    transport layers, the host fallback every unit's director bounces
    to (with its write-commit chain) and the resilience arming.
    """

    def __init__(
        self,
        env: Environment,
        link: NetworkLink,
        callbacks: Optional[OffloadCallbacks],
        host_app: Optional[Callable],
        rdma_transport: bool,
        **unit_options,
    ) -> None:
        """``unit_options`` are :class:`OffloadShard`'s own sizing knobs
        (``director_cores``, ``context_slots``, ``copy_mode``), the same
        for every unit of the deployment."""
        super().__init__(env, link)
        self.callbacks = callbacks or passthrough_callbacks()
        self._signature = AppSignature(server_port=5000)
        # Application override for requests bounced to the host (KV gets,
        # GetPage@LSN); default is plain file semantics via the library.
        self.host_app = host_app
        self.client_spec = RDMA_VERBS if rdma_transport else HOST_OS_TCP
        self.transport = StackLayer(env, self.client_spec, self.host_pool)
        self.app_net = StackLayer(env, BENCH_APP_NET, self.host_pool)
        # What every unit is built with, kept so a shard added later is
        # assembled exactly like a construction-time one.
        self._unit_options = dict(unit_options, rdma=rdma_transport)
        self.shards: List[OffloadShard] = []
        #: Write-commit chain: ``commit(shard_index, request)`` generators
        #: run in order between a write's local apply and its ack; the
        #: first to return False fails the ack.  Empty on a single DPU.
        self._commit_chain: List[Callable[[int, IoRequest], Generator]] = []

    def _build_unit(
        self,
        filesystem: DdsFileSystem,
        owner_of: Optional[Callable[[int], int]] = None,
    ) -> OffloadShard:
        """The next DPU's machinery over ``filesystem`` (not yet listed
        in ``shards``, not yet started)."""
        return OffloadShard(
            self.env,
            self.host_pool,
            self.link,
            filesystem,
            self.callbacks,
            self._signature,
            self._host_serve,
            index=len(self.shards),
            owner_of=owner_of,
            **self._unit_options,
        )

    def _wire_every_shard(
        self, wire: Callable[[OffloadShard], None]
    ) -> None:
        """Apply ``wire`` to every DPU of the deployment."""
        for shard in self.shards:
            wire(shard)

    def enable_resilience(
        self,
        breaker_threshold: int = 4,
        breaker_recovery: float = 500e-6,
        breaker_saturation: Optional[int] = None,
    ) -> RequestDedup:
        """One dedup table shared by all directors (a retry may land on
        a different ingress director after failover), plus one circuit
        breaker per director/engine pair.  ``breaker_saturation`` (off
        by default) additionally opens a breaker after that many
        consecutive capacity bounces, so a saturated-but-alive engine
        sheds intake work to the host path instead of being probed on
        every request."""
        dedup = super().enable_resilience()

        def arm(shard: OffloadShard) -> None:
            shard.director.dedup = dedup
            shard.director.breaker = CircuitBreaker(
                self.env,
                failure_threshold=breaker_threshold,
                recovery_time=breaker_recovery,
                saturation_threshold=breaker_saturation,
            )

        self._wire_every_shard(arm)
        return dedup

    def offloaded_fraction(self) -> float:
        directors = [shard.director for shard in self.shards]
        offloaded = sum(d.requests_offloaded for d in directors)
        total = offloaded + sum(d.requests_to_host for d in directors)
        return offloaded / total if total else 0.0

    def _serve_one(
        self, shard_index: int, handler: Callable, request: IoRequest
    ) -> Generator:
        """Serve one host-path request, then commit applied writes.

        Every link of the write-commit chain runs before the response
        is released, so a client never sees an ack the deployment has
        not committed: first the quorum hop (append + synchronous
        backup mirror), then migration bookkeeping (dirty-mark, or
        forward a post-flip straggler to the new owner).  When a link
        could *not* commit (say the executor died right after its local
        apply), the response is converted to a failure: a success here
        would be cached by the shared dedup table and replayed to the
        client's retry, acking a write the deployment never committed.
        """
        try:
            response: IoResponse = yield from handler(request)
        except FileSystemError:
            # An application handler whose device failed answers as the
            # baseline's ``OsFileExecution(catch_errors=True)`` does.
            return IoResponse(request.request_id, ok=False)
        if response.ok and request.op is OpCode.WRITE:
            for commit in self._commit_chain:
                if not (yield from commit(shard_index, request)):
                    return IoResponse(request.request_id, ok=False)
        return response

    def _host_serve(
        self,
        shard: OffloadShard,
        requests: Sequence[IoRequest],
        respond: Callable,
    ) -> Generator:
        """Host fallback over ``shard``'s split connection (writes,
        bounces)."""
        message_bytes = sum(r.wire_size for r in requests)
        yield from self.transport.process(message_bytes)
        yield from self.app_net.process(message_bytes)
        handler = self.host_app or shard.backend.host_side.serve
        served = [
            self.env.process(self._serve_one(shard.index, handler, r))
            for r in requests
        ]
        responses: List[IoResponse] = yield self.env.all_of(served)
        response_bytes = sum(r.wire_size for r in responses)
        yield from self.app_net.process(response_bytes)
        yield from self.transport.process(response_bytes)
        for response in responses:
            respond(response)


class DdsOffloadServer(OffloadServerBase):
    """Full DDS: traffic director + offload engine on the DPU (§5-§6)."""

    def __init__(
        self,
        env: Environment,
        link: NetworkLink,
        filesystem: DdsFileSystem,
        callbacks: Optional[OffloadCallbacks] = None,
        director_cores: int = 1,
        context_slots: int = 1024,
        copy_mode: bool = False,
        rdma_transport: bool = False,
        host_app: Optional[Callable] = None,
    ) -> None:
        super().__init__(
            env,
            link,
            callbacks,
            host_app,
            rdma_transport,
            director_cores=director_cores,
            context_slots=context_slots,
            copy_mode=copy_mode,
        )
        unit = self._build_unit(filesystem)
        self.shards.append(unit)
        self.filesystems = [filesystem]
        backend = unit.backend
        steering = DirectorSteering(unit)
        self.set_pipeline(
            # NIC hardware evaluates the signature at line rate, so the
            # ingest stage skips the NIC->host PCIe forward; unmatched
            # flows pay it inside receive_message instead.
            [
                WireIngress(env, link, forward_latency=False),
                backend,
                steering,
            ],
            steering=steering,
        )
        # Long-standing wiring aliases (apps, tests and the e2e
        # benchmark reach into them): the one unit's parts by name.
        self.director = unit.director
        self.engine = unit.engine
        self.cache_table = unit.cache_table
        self.director_core_list = unit.cores
        self.backend = backend
        self.dma = backend.dma
        self.dma_core = backend.dma_core
        self.spdk_core = backend.spdk_core
        self.file_service = backend.file_service
        self.library = backend.library
        self.host_side = backend.host_side
        backend.start()
