"""Composable datapath stages (the paper's §5 pipeline, as parts).

The DDS architecture is an explicit pipeline — NIC signature match →
traffic director → offload engine / host file library → file service —
but the original reproduction hard-wired that pipeline separately into
every server flavour.  This module breaks the wiring into typed, reusable
*stages* so deployments are compositions instead of copies:

* :class:`WireIngress` / :class:`WireEgress` — ``ingest`` / ``completion``:
  the NIC link hop (client→server wire + PCIe host forward; server→client
  wire).
* :class:`TransportStage` — ``transport``: one network-stack layer
  (kernel TCP, RDMA verbs, the app's messaging module) charged to a CPU.
* :class:`OsFileExecution` — ``execution``: the baseline host path
  (application dispatch + OS filesystem).
* :class:`DdsBackend` — ``execution`` backend: the DPU half of DDS (DMA
  engine, DMA/SPDK cores, file service, host file library, host-side
  completion routers).
* :class:`OsFileDevice` / :class:`DdsFileDevice` — §9's ``IDevice``
  pair: what an application reads and writes one file through, handed
  out by either execution stage's ``device(file_id)``.
* :class:`OffloadShard` — one whole DPU of an offload deployment (a
  backend plus cache table, director cores, offload engine and traffic
  director), the one place those are constructed.

Every stage also reports its own resource consumption
(:meth:`Stage.host_cores` / :meth:`Stage.dpu_cores` /
:meth:`Stage.client_cores`), so a server's cores-consumed accounting is a
single roll-up over its stages instead of ad-hoc per-server overrides.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..core.api import OffloadCallbacks
from ..core.file_library import DdsFileLibrary, PollMode
from ..core.file_service import DpuFileService, submit_read
from ..core.messages import IoRequest, IoResponse, OpCode
from ..core.offload_engine import OffloadEngine
from ..core.traffic_director import TrafficDirector
from ..hardware.accelerators import BF2_REGEX, HardwareAccelerator
from ..hardware.cpu import CpuPool
from ..hardware.nic import NetworkLink
from ..hardware.pcie import DmaEngine
from ..hardware.specs import DPU_CPU, HOST_APP_OTHER, MICROSECOND, StackSpec
from ..net.packet import AppSignature, FiveTuple
from ..net.stack import StackLayer
from ..sim import Environment, Event
from ..storage.filesystem import DdsFileSystem, FileSystemError
from ..storage.osfs import OsFileSystem
from ..structures.cuckoo import CuckooCacheTable

__all__ = [
    "StageKind",
    "Stage",
    "WireIngress",
    "WireEgress",
    "TransportStage",
    "OsFileExecution",
    "OsFileDevice",
    "CompletionRouter",
    "DdsFileDevice",
    "DdsHostSide",
    "DdsBackend",
    "OffloadShard",
    "PushdownExecution",
    "PushdownScanOutcome",
    "ShardLifecycle",
]


class StageKind(enum.Enum):
    """Where in the datapath a stage sits."""

    INGEST = "ingest"
    TRANSPORT = "transport"
    STEERING = "steering"
    EXECUTION = "execution"
    COMPLETION = "completion"


class Stage:
    """Base class: datapath role plus per-stage utilization accounting.

    Subclasses implement the hooks matching their kind:

    * ingest / transport / completion stages implement
      :meth:`inbound` and/or :meth:`outbound` (message granularity);
    * execution stages implement :meth:`serve` (request granularity);
    * steering stages implement :meth:`steer` (whole-message ownership,
      including response egress).
    """

    kind: StageKind = StageKind.EXECUTION

    def __init__(self, name: str) -> None:
        self.name = name

    # -- accounting roll-up hooks --------------------------------------
    def host_cores(self, elapsed: float) -> float:
        """Host cores consumed by resources this stage owns exclusively
        (anything charged to a shared :class:`CpuPool` is accounted by
        the pool itself)."""
        return 0.0

    def dpu_cores(self, elapsed: float) -> float:
        """DPU Arm cores consumed by cores this stage owns."""
        return 0.0

    def client_cores(self) -> float:
        """Constant client-side cores this stage burns (Redy pollers)."""
        return 0.0

    # -- datapath hooks ------------------------------------------------
    def inbound(self, flow: FiveTuple, message_bytes: int) -> Generator:
        raise NotImplementedError(f"{self.name} has no inbound hook")

    def outbound(self, flow: FiveTuple, response_bytes: int) -> Generator:
        raise NotImplementedError(f"{self.name} has no outbound hook")

    def serve(self, request: IoRequest) -> Generator:
        raise NotImplementedError(f"{self.name} has no serve hook")

    def steer(
        self,
        flow: FiveTuple,
        requests: Sequence[IoRequest],
        respond: Callable,
    ) -> Generator:
        raise NotImplementedError(f"{self.name} has no steer hook")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.kind.value}:{self.name}>"


class ShardLifecycle:
    """What a member of a sharded deployment does as shards come and go.

    :class:`~repro.topology.sharding.ShardedOffloadServer` walks its
    members in registration order, passing the :class:`OffloadShard`;
    every hook defaults to a no-op.  Generator
    hooks may take device time (``yield from``-ed in place, never
    spawned); plain ones run in the instant of the transition.
    """

    #: Fewest live shards the member can run on (the drain floor).
    min_shards = 1

    def shard_added(self, shard) -> Generator:
        """A freshly built and wired shard joins, before any file moves."""
        yield from ()

    def shard_retired(self, shard) -> Generator:
        """A drained shard was tombstoned (``shard.retired`` is set)."""
        yield from ()

    def shard_killed(self, shard) -> None:
        """The shard just crashed (same instant as the alive flip)."""

    def shard_recovering(self, shard) -> Generator:
        """The shard's filesystem is rebuilt; it is not yet alive.  The
        last hook to take time must end with no trailing yield — the
        alive flip follows its final check atomically."""
        yield from ()

    def shard_recovered(self, shard) -> None:
        """The shard is alive again (same instant as the flip)."""


class WireIngress(Stage):
    """Client→server link hop, optionally plus the NIC→host PCIe forward
    (the hop DDS offloading avoids, so offload deployments disable it and
    let the traffic director charge it only for unmatched flows)."""

    kind = StageKind.INGEST

    def __init__(
        self, env: Environment, link: NetworkLink, forward_latency: bool
    ) -> None:
        super().__init__("wire-ingress")
        self.env = env
        self.link = link
        self.forward_latency = forward_latency

    def inbound(self, flow: FiveTuple, message_bytes: int) -> Generator:
        yield from self.link.transmit("client_to_server", message_bytes)
        if self.forward_latency:
            yield self.env.now + self.link.spec.host_forward


class WireEgress(Stage):
    """Server→client link hop delivering the response message."""

    kind = StageKind.COMPLETION

    def __init__(self, env: Environment, link: NetworkLink) -> None:
        super().__init__("wire-egress")
        self.env = env
        self.link = link

    def outbound(self, flow: FiveTuple, response_bytes: int) -> Generator:
        yield from self.link.transmit("server_to_client", response_bytes)


class TransportStage(Stage):
    """One network-stack layer crossed in both directions."""

    kind = StageKind.TRANSPORT

    def __init__(self, env: Environment, spec: StackSpec, cpu) -> None:
        super().__init__(spec.name)
        self.layer = StackLayer(env, spec, cpu)

    def inbound(self, flow: FiveTuple, message_bytes: int) -> Generator:
        yield from self.layer.process(message_bytes)

    def outbound(self, flow: FiveTuple, response_bytes: int) -> Generator:
        yield from self.layer.process(response_bytes)


class OsFileDevice:
    """``IDevice`` over the OS filesystem (an application's default
    storage); a failed I/O raises :class:`FileSystemError`."""

    def __init__(self, osfs: OsFileSystem, file_id: int) -> None:
        self.osfs = osfs
        self.file_id = file_id

    def read(self, offset: int, size: int) -> Generator:
        return (yield from self.osfs.read(self.file_id, offset, size))

    def write(self, offset: int, data: bytes) -> Generator:
        yield from self.osfs.write(self.file_id, offset, data)


class OsFileExecution(Stage):
    """Host execution through the OS filesystem (the paper's baseline).

    Runs the application's own request handling (``HOST_APP_OTHER``) and
    then either the installed application handler or plain file semantics
    against the kernel file path.  ``catch_errors`` mirrors the historical
    server behaviour: the TCP baseline converts filesystem errors into
    failed responses, while the local/Redy variants surface them.
    """

    kind = StageKind.EXECUTION

    def __init__(
        self,
        env: Environment,
        filesystem: DdsFileSystem,
        host_pool: CpuPool,
        app_handler: Optional[Callable] = None,
        catch_errors: bool = False,
    ) -> None:
        super().__init__("os-file-execution")
        self.env = env
        self.app_other = StackLayer(env, HOST_APP_OTHER, host_pool)
        self.osfs = OsFileSystem(env, filesystem, host_pool)
        self.app_handler = app_handler
        self.catch_errors = catch_errors

    def host_cores(self, elapsed: float) -> float:
        # The kernel's serialized I/O section is a dedicated core outside
        # the host pool.
        return self.osfs.serializer.cores_consumed(elapsed)

    def device(self, file_id: int) -> OsFileDevice:
        """The ``IDevice`` an application reaches ``file_id`` through."""
        return OsFileDevice(self.osfs, file_id)

    def serve(self, request: IoRequest) -> Generator:
        yield from self.app_other.process(request.wire_size)
        try:
            handler = self.app_handler or self.osfs.serve
            response = yield from handler(request)
        except FileSystemError:
            if not self.catch_errors:
                raise
            response = IoResponse(request.request_id, False)
        return response


class CompletionRouter:
    """One notification group and the pump that hands each of its
    completions to whoever issued the operation (one per simulated
    application thread, §4.2)."""

    def __init__(self, env: Environment, library: DdsFileLibrary) -> None:
        self.env = env
        self.library = library
        self.group = library.create_poll()
        self._waiters: Dict[int, Event] = {}
        env.process(self._pump())

    def wait_for(self, request_id: int) -> Event:
        """Fires with the operation's completion (an ``IoResponse`` in
        the library's own id space)."""
        waiter = self.env.event()
        self._waiters[request_id] = waiter
        return waiter

    def _pump(self) -> Generator:
        while True:
            completion = yield from self.library.poll_wait(
                self.group, PollMode.SLEEPING
            )
            request_id, ok, data = completion
            waiter = self._waiters.pop(request_id, None)
            if waiter is not None:
                waiter.succeed(IoResponse(request_id, ok, data))


class DdsFileDevice:
    """``IDevice`` over the DDS front-end library (§9): the operation
    executes on the DPU, and the flushes flowing through its file
    service populate the cache table via cache-on-write.  A failed
    completion raises :class:`FileSystemError`, as the OS device does.
    """

    def __init__(self, router: CompletionRouter, file_id: int) -> None:
        self.router = router
        self.file_id = file_id
        router.library.poll_add(router.group, file_id)

    def _complete(self, request_id: int) -> Generator:
        completion: IoResponse = yield self.router.wait_for(request_id)
        if not completion.ok:
            raise FileSystemError(
                f"DDS file {self.file_id}: operation {request_id} failed"
            )
        return completion.data

    def read(self, offset: int, size: int) -> Generator:
        request_id = yield from self.router.library.read_file(
            self.file_id, offset, size
        )
        return (yield from self._complete(request_id))

    def write(self, offset: int, data: bytes) -> Generator:
        request_id = yield from self.router.library.write_file(
            self.file_id, offset, data
        )
        yield from self._complete(request_id)


class DdsHostSide:
    """Host application logic shared by every DDS library deployment.

    Owns one completion router per simulated application thread, each
    file's device (spread over the routers round-robin), and the host
    app's single I/O dispatch thread whose serialized per-request work
    bounds the library path's throughput (see DESIGN.md §4 on this
    calibration assumption).
    """

    DISPATCH_COST = 1.7 * MICROSECOND
    GROUPS = 4

    def __init__(
        self,
        env: Environment,
        host_pool: CpuPool,
        library: DdsFileLibrary,
    ) -> None:
        self.dispatch_core = CpuPool(env, speed=1.0, name="app-dispatch")
        self.app_other = StackLayer(env, HOST_APP_OTHER, host_pool)
        self.routers = [
            CompletionRouter(env, library) for _ in range(self.GROUPS)
        ]
        self._devices: Dict[int, DdsFileDevice] = {}

    def device(self, file_id: int) -> DdsFileDevice:
        """The file's device, made on first use."""
        device = self._devices.get(file_id)
        if device is None:
            router = self.routers[len(self._devices) % len(self.routers)]
            device = self._devices[file_id] = DdsFileDevice(router, file_id)
        return device

    def serve(self, request: IoRequest) -> Generator:
        """Application processing + library issue + completion wait."""
        yield from self.app_other.process(request.wire_size)
        yield from self.dispatch_core.execute(self.DISPATCH_COST)
        device = self.device(request.file_id)
        # The library numbers operations in its own id space; the client
        # correlates responses by the wire request id.
        try:
            if request.op is OpCode.READ:
                data = yield from device.read(request.offset, request.size)
                return IoResponse(request.request_id, True, data)
            yield from device.write(request.offset, request.payload)
            return IoResponse(request.request_id, True)
        except FileSystemError:
            return IoResponse(request.request_id, False)


class DdsBackend(Stage):
    """The DPU half of a DDS deployment, bundled as one execution stage.

    Creating a backend wires up the full §4 substrate for one DPU: the
    PCIe DMA engine, the two dedicated Arm cores (DMA thread + SPDK
    worker), the DPU file service over this shard's filesystem, the host
    file library, and the host-side dispatch/completion logic.  Call
    :meth:`start` once the rest of the deployment is assembled to spawn
    the service threads.
    """

    kind = StageKind.EXECUTION

    def __init__(
        self,
        env: Environment,
        host_pool: CpuPool,
        filesystem: DdsFileSystem,
        copy_mode: bool = False,
        name: str = "dds-backend",
    ) -> None:
        super().__init__(name)
        self.env = env
        self.filesystem = filesystem
        self.dma = DmaEngine(env)
        self.dma_core = CpuPool(env, speed=DPU_CPU.speed, name="dpu-dma")
        self.spdk_core = CpuPool(env, speed=DPU_CPU.speed, name="dpu-spdk")
        self.file_service = DpuFileService(
            env, filesystem, self.dma_core, self.spdk_core, copy_mode
        )
        self.library = DdsFileLibrary(
            env, host_pool, self.file_service, self.dma
        )
        self.host_side = DdsHostSide(env, host_pool, self.library)

    def start(self) -> None:
        """Spawn the file service's DMA thread and SPDK worker."""
        self.file_service.start()

    def host_cores(self, elapsed: float) -> float:
        return self.host_side.dispatch_core.cores_consumed(elapsed)

    def dpu_cores(self, elapsed: float) -> float:
        dma, spdk = self.dma_core, self.spdk_core
        return dma.cores_consumed(elapsed) + spdk.cores_consumed(elapsed)

    def device(self, file_id: int) -> DdsFileDevice:
        """The ``IDevice`` an application reaches ``file_id`` through,
        completing on a notification group of the application's own."""
        return DdsFileDevice(CompletionRouter(self.env, self.library), file_id)

    def serve(self, request: IoRequest) -> Generator:
        return self.host_side.serve(request)


@dataclass
class PushdownScanOutcome:
    """What one pushdown scan returned and what it put on the wire."""

    file_id: int
    shard: int
    #: True when the pipeline ran on the DPU under a proof token;
    #: False when admission refused it and the host served the scan.
    offloaded: bool
    rows: int
    wire_bytes: int
    acc: Tuple[int, ...]
    selected: List[Tuple[int, bytes]]


class PushdownExecution(Stage):
    """Verified-pushdown execution on one shard's DPU (DESIGN.md §14).

    Owns one Arm core and an RXP accelerator per shard and redeems
    :class:`~repro.pushdown.verifier.VerifiedPipeline` proof tokens
    against its shard's filesystem — resolved through the unit's
    backend at each read, so the stage follows the swap a recovery
    makes: pages are read locally, records run
    through the :class:`~repro.pushdown.engine.PushdownEngine` (RXP
    absorbing a regex-lowerable filter), and only the operator's output
    crosses the wire.  A scan dies with its DPU: a dead unit starts no
    page and ships nothing.  Admission itself happens at the server
    (:meth:`~repro.topology.sharding.ShardedOffloadServer.
    pushdown_scan`) so a rejection can fall back to the host path
    *before* any DPU resources are touched.
    """

    kind = StageKind.EXECUTION

    def __init__(
        self, env: Environment, unit: OffloadShard, link: NetworkLink
    ) -> None:
        shard = unit.index
        super().__init__(f"pushdown-{shard}")
        self.env = env
        self.unit = unit
        self.link = link
        self.shard = shard
        self.core = CpuPool(
            env, speed=DPU_CPU.speed, name=f"dpu{shard}-pushdown"
        )
        self.spdk_core = CpuPool(
            env, speed=DPU_CPU.speed, name=f"dpu{shard}-pushdown-spdk"
        )
        self.accelerator = HardwareAccelerator(env, BF2_REGEX)
        #: Scans answered in full.
        self.scans = 0

    @property
    def filesystem(self) -> DdsFileSystem:
        return self.unit.backend.filesystem

    def dpu_cores(self, elapsed: float) -> float:
        core, spdk = self.core, self.spdk_core
        return core.cores_consumed(elapsed) + spdk.cores_consumed(elapsed)

    def scan(self, token, file_id: int, pages: int) -> Generator:
        """Run one admitted pipeline over ``pages`` pages of a file.

        A DES process generator returning a :class:`PushdownScanOutcome`.
        The engine is fresh per scan (accumulators start at zero); the
        RXP path engages iff the token certifies a regex lowering.
        """
        # Local import keeps topology importable without the pushdown
        # package having been wired into a deployment.
        from ..pushdown.engine import PushdownEngine, shipped_bytes

        geometry = token.geometry
        page_bytes = geometry.page_bytes
        engine = PushdownEngine(
            self.env,
            self.core,
            self.accelerator if token.pattern is not None else None,
        )
        wire_bytes = 0
        selected: List[Tuple[int, bytes]] = []
        for page_id in range(pages):
            self.unit.require_alive()
            page = yield from submit_read(
                self.spdk_core, self.filesystem, file_id,
                page_id * page_bytes, page_bytes,
            )
            outcome = yield from engine.execute_page(token, page)
            for slot, record in outcome.selected:
                selected.append(
                    (page_id * geometry.records_per_page + slot, record)
                )
            payload = shipped_bytes(token, outcome)
            if payload:
                self.unit.require_alive()
                yield from self.link.transmit("server_to_client", payload)
            wire_bytes += payload
        # An aggregate's folded registers are its entire answer.
        dump = shipped_bytes(token)
        if dump:
            self.unit.require_alive()
            yield from self.link.transmit("server_to_client", dump)
            wire_bytes += dump
        self.scans += 1
        return PushdownScanOutcome(
            file_id=file_id,
            shard=self.shard,
            offloaded=True,
            rows=len(selected),
            wire_bytes=wire_bytes,
            acc=tuple(engine.acc),
            selected=selected,
        )


class OffloadShard:
    """One DPU of an offload deployment, assembled once (§5-§7).

    The paper's DPU is one fixed bundle — the :class:`DdsBackend`
    substrate, the cache table, the director's Arm cores, the offload
    engine and the traffic director in front of them — and scale-out is
    N of that bundle.  The offload server is a list of them (one for
    the paper's DDS); nothing else constructs an engine or a director.

    ``host_serve(shard, requests, respond)`` is the owning server's host
    fallback, ``owner_of`` the director's file→shard hook.  Bring-up
    order is part of the contract — every process spawned here consumes
    a scheduler sequence number — and :meth:`DdsBackend.start` stays
    with the owning server, which calls it once its pipeline is set.
    """

    #: Cache-table capacity (items) of every DPU.
    CACHE_ITEMS = 1 << 20

    def __init__(
        self,
        env: Environment,
        host_pool: CpuPool,
        link: NetworkLink,
        filesystem: DdsFileSystem,
        callbacks: OffloadCallbacks,
        signature: AppSignature,
        host_serve: Callable[..., Generator],
        index: int,
        director_cores: int,
        context_slots: int,
        copy_mode: bool,
        rdma: bool,
        owner_of: Callable[[int], int],
    ) -> None:
        self.index = index
        self.backend = DdsBackend(
            env, host_pool, filesystem, copy_mode, name=f"dds-backend-{index}"
        )
        self.cache_table = CuckooCacheTable(self.CACHE_ITEMS)
        self.backend.file_service.set_offload_hooks(
            callbacks, self.cache_table
        )
        self.cores = [
            CpuPool(
                env, speed=DPU_CPU.speed, name=f"dpu{index}-director-{core}"
            )
            for core in range(director_cores)
        ]
        self.engine = OffloadEngine(
            env,
            self.cores[0],
            self.backend.file_service,
            callbacks,
            self.cache_table,
            context_slots=context_slots,
            copy_mode=copy_mode,
        )
        self.director = TrafficDirector(
            env,
            link,
            self.cores,
            signature,
            callbacks,
            self.cache_table,
            self.engine,
            partial(host_serve, self),
            owner_of,
            rdma=rdma,
            shard_id=index,
        )
        #: False between kill_shard and recover_shard: ingress and
        #: relays route around a dead shard.
        self.alive = True
        #: True once drain_shard finished: the shard left the ring and
        #: the ingress set for good (indices are never reused, so the
        #: object stays in ``server.shards`` as a tombstone).
        self.retired = False

    def require_alive(self) -> None:
        """What a scan calls before each step that spends this DPU's
        cores or NIC: a dead DPU fails it like a failed page read."""
        if not self.alive:
            raise FileSystemError(f"shard {self.index} is down")
