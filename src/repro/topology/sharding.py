"""The DDS offload server: one host, N DPUs, consistent-hash steering.

The paper's DDS is one DPU; scale-out is N of them, each owning a shard
of the file namespace, and the one-shard deployment *is* the paper's.
A :class:`ConsistentHashShardMap` assigns every file id to a shard; each
traffic director holds the map and relays requests for files it does
not own to the owning shard's director over the DPU↔DPU fabric
(charged like the §5.3 bump-in-the-wire forward).  The owning shard
serves the request — offload engine first, its own host fallback second
— and answers the client directly (direct server return).  Every shard
keeps its own file library + host-side dispatch, so writes and bounced
reads land on the host exactly as on one DPU.

Hashing is deliberately *not* Python's builtin ``hash`` (salted per
process); splitmix64 keeps shard placement stable across runs.

The topology is *elastic*: the shard map is versioned
(epoch-stamped membership changes with per-file pinned cutover), and
:meth:`ShardedOffloadServer.add_shard` / :meth:`~ShardedOffloadServer.
drain_shard` grow and shrink a live deployment under traffic — the
migration protocol itself lives in :mod:`repro.topology.resharding`.

The topology layer is simulation code: one OS thread of generators that
switch only at ``yield``, so it takes no locks.  A list that a generator
may be walking across a yield is replaced, never mutated in place.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..core.api import OffloadCallbacks, passthrough_callbacks
from ..core.dedup import RequestDedup
from ..core.messages import IoRequest, IoResponse, OpCode
from ..core.retry import CircuitBreaker
from ..core.server import PipelineServer
from ..core.traffic_director import TrafficDirector
from ..hardware.nic import NetworkLink
from ..hardware.specs import BENCH_APP_NET, HOST_OS_TCP, RDMA_VERBS
from ..net.packet import AppSignature, FiveTuple
from ..net.stack import StackLayer
from ..sim import Environment
from ..storage.disk import RamDisk, SpdkBdev
from ..storage.filesystem import DdsFileSystem, FileSystemError
from .stages import (
    OffloadShard,
    PushdownExecution,
    PushdownScanOutcome,
    ShardLifecycle,
    Stage,
    StageKind,
    WireIngress,
)

__all__ = [
    "ConsistentHashShardMap",
    "flow_shard",
    "mirror_filesystem",
    "OffloadShard",
    "ShardedSteering",
    "ShardedOffloadServer",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    """Deterministic 64-bit mix (process-stable, unlike builtin hash)."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class ConsistentHashShardMap:
    """File id → owning shard, via a versioned consistent-hash ring.

    Each shard contributes ``VNODES`` points on a 64-bit ring; a file id
    belongs to the first point clockwise of its hash.  Virtual nodes keep
    the per-shard share near fair (within ~15% relative at 64 vnodes —
    see ``tests/test_sharding_properties.py`` for the measured bound),
    and a shard's points are derived from its id alone, so adding or
    removing a shard perturbs only ~1/N of the keys and leaves every
    unchanged key's placement byte-stable.

    The map is *versioned*: :meth:`add_shard` / :meth:`remove_shard`
    bump :attr:`epoch` and atomically install the new ring.  Cutover is
    per-file via the pin table — a pinned file keeps routing to its
    previous-epoch owner (the old epoch drains: the source keeps serving
    while its segments migrate), and :meth:`unpin` flips it to the
    ring's current-epoch owner.  A map with no pins and an unchanged
    member set behaves exactly like the fixed-N map it replaced.
    """

    #: Ring points per shard; placement is a pure function of this and
    #: the membership (pinned by ``tests/test_sharding_properties.py``).
    VNODES = 64

    def __init__(self, shard_count: int) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        self.shard_count = shard_count
        #: Bumped on every membership change.
        self.epoch = 0
        self._members = list(range(shard_count))
        #: file_id -> previous-epoch owner.  Empty whenever no migration
        #: is in flight — the fixed-N fast path costs one falsy check.
        self._pins: Dict[int, int] = {}
        ring = []
        for shard in range(shard_count):
            ring.extend(self._shard_points(shard))
        ring.sort()
        self._points = [point for point, _ in ring]
        self._shards = [shard for _, shard in ring]

    def _shard_points(self, shard: int) -> List[Tuple[int, int]]:
        return [
            (_splitmix64(((shard + 1) << 32) | vnode), shard)
            for vnode in range(self.VNODES)
        ]

    @property
    def members(self) -> Tuple[int, ...]:
        """Current ring membership (shard ids, insertion order)."""
        return tuple(self._members)

    @property
    def pinned_files(self) -> int:
        """Files still routed to their previous-epoch owner."""
        return len(self._pins)

    def owner(self, file_id: int) -> int:
        """The shard that serves ``file_id`` *now* (pins included)."""
        if self._pins:
            pinned = self._pins.get(file_id)
            if pinned is not None:
                return pinned
        return self.ring_owner(file_id)

    def ring_owner(self, file_id: int) -> int:
        """The current epoch's ring placement, ignoring pins."""
        if self.shard_count == 1:
            return self._members[0]
        index = bisect_right(self._points, _splitmix64(file_id))
        return self._shards[index % len(self._shards)]

    # ------------------------------------------------------------------
    # membership changes (each bumps the epoch and swaps the ring whole)
    # ------------------------------------------------------------------
    def add_shard(self, shard: Optional[int] = None) -> int:
        """Admit ``shard`` (default: next unused id) to the ring."""
        if shard is None:
            shard = max(self._members) + 1
        if shard in self._members:
            raise ValueError(f"shard {shard} is already a member")
        ring = sorted(
            list(zip(self._points, self._shards)) + self._shard_points(shard)
        )
        # Copy-on-write swap: a holder of the old lists keeps a whole ring.
        self._points = [point for point, _ in ring]
        self._shards = [owner for _, owner in ring]
        self._members = self._members + [shard]
        self.shard_count = len(self._members)
        self.epoch += 1
        return shard

    def remove_shard(self, shard: int) -> None:
        """Retire ``shard`` from the ring (its keys move, nothing else)."""
        if shard not in self._members:
            raise ValueError(f"shard {shard} is not a member")
        if len(self._members) == 1:
            raise ValueError("cannot remove the last shard")
        ring = [
            (point, owner)
            for point, owner in zip(self._points, self._shards)
            if owner != shard
        ]
        self._points = [point for point, _ in ring]
        self._shards = [owner for _, owner in ring]
        self._members = [m for m in self._members if m != shard]
        self.shard_count = len(self._members)
        self.epoch += 1

    # ------------------------------------------------------------------
    # per-file cutover (the old epoch drains, the new epoch owns)
    # ------------------------------------------------------------------
    def pin(self, file_id: int, shard: int) -> None:
        """Keep ``file_id`` routed to ``shard`` (its pre-change owner)
        until :meth:`unpin` — the deterministic cutover rule."""
        self._pins[file_id] = shard

    def unpin(self, file_id: int) -> None:
        """Flip ``file_id`` to its current-epoch ring owner."""
        self._pins.pop(file_id, None)


def flow_shard(flow: FiveTuple, shard_count: int) -> int:
    """Which shard's director a flow's packets arrive at (ingress RSS).

    Delegates to :meth:`FiveTuple.rss_hash`, which is symmetric (both
    directions map identically) and process-stable (blake2b over the
    sorted endpoint pair), so per-core RSS and shard steering agree by
    construction.
    """
    return flow.rss_hash(shard_count)


def mirror_filesystem(
    env: Environment, source: DdsFileSystem
) -> DdsFileSystem:
    """A fresh filesystem on its own SSD with the same namespace.

    Every shard needs its own device (one SSD per DPU, as in the paper's
    testbed) — sharing one bdev would cap aggregate IOPS at a single
    SSD.  File ids are preserved so the shard map agrees across shards.
    """
    disk = RamDisk(source.bdev.disk.size)
    mirror = DdsFileSystem(
        env, SpdkBdev(env, disk), segment_size=source.segment_size
    )
    source.clone_into(mirror)
    return mirror


class ShardedSteering(Stage, ShardLifecycle):
    """Steering across N shard directors.

    Ingress RSS picks the director a client flow lands on; that director
    consults the shard map, serves what it owns, and relays the rest.
    """

    kind = StageKind.STEERING

    def __init__(self, env: Environment, shards: List[OffloadShard]) -> None:
        super().__init__("sharded-director")
        self.env = env
        self.shards = shards
        #: Shards currently accepting client flows.  ``shards`` is the
        #: server's live list (it grows on add_shard and keeps retired
        #: tombstones); the ingress set is maintained separately so the
        #: RSS hash and the counters track the *dynamic* membership —
        #: not the construction-time list.
        self._ingress = list(shards)
        #: Messages steered to each shard, indexed by shard id: grows as
        #: shards are added, and a retired shard keeps its historical
        #: total at its old index.
        self._steered = [0] * len(shards)
        #: Requests steered to each shard (messages carry batches; this
        #: is the IOPS-proportional number the autoscaler samples).
        self._requests = [0] * len(shards)
        #: Messages re-routed because their ingress shard was dead.
        self.failovers = 0
        #: Messages lost at ingress because every shard was dead: chaos
        #: benches surface this so an ingress black-hole is
        #: distinguishable from an in-flight loss (a message that
        #: reached a director and died with it).
        self.dropped = 0

    def shard_added(self, shard: OffloadShard) -> Generator:
        """Open ingress to a freshly wired shard (counters included)."""
        while len(self._steered) <= shard.index:
            self._steered.append(0)
            self._requests.append(0)
        # Copy-on-write: a steer() mid-iteration keeps its snapshot.
        self._ingress = self._ingress + [shard]
        yield from ()

    def shard_retired(self, shard: OffloadShard) -> Generator:
        """Close ingress to a drained shard; its totals are retained."""
        self._ingress = [s for s in self._ingress if s is not shard]
        yield from ()

    @property
    def shard_loads(self) -> List[int]:
        """Messages steered to each shard, in shard-index order."""
        return list(self._steered)

    @property
    def request_loads(self) -> List[int]:
        """Requests steered to each shard, in shard-index order."""
        return list(self._requests)

    @property
    def messages_steered(self) -> int:
        """Total steering decisions made (sum over shards)."""
        return sum(self.shard_loads)

    def dpu_cores(self, elapsed: float) -> float:
        total = 0.0
        for shard in self.shards:
            for core in shard.cores:
                total += core.cores_consumed(elapsed)
        return total

    def steer(
        self,
        flow: FiveTuple,
        requests: Sequence[IoRequest],
        respond: Callable,
    ) -> Generator:
        ingress = self._ingress
        shard_index = flow_shard(flow, len(ingress))
        shard = ingress[shard_index]
        if not shard.alive:
            # The flow's ingress DPU is dead.  The client's transport
            # reconnects and lands on the next live director (a new
            # five-tuple would re-hash; scanning from the RSS index is
            # the deterministic equivalent).  All-dead: packets vanish
            # and the client retries into the void.
            for probe in range(1, len(ingress)):
                candidate = ingress[(shard_index + probe) % len(ingress)]
                if candidate.alive:
                    shard = candidate
                    self.failovers += 1
                    break
            else:
                self.dropped += 1
                return
        self._steered[shard.index] += 1
        self._requests[shard.index] += len(requests)
        yield from shard.director.receive_message(flow, requests, respond)


class ShardedOffloadServer(PipelineServer):
    """Full DDS offloading on N DPUs (§5-§7): one shard map, N directors,
    N offload engines, N per-shard host fallbacks.  ``shard_count=1`` is
    the paper's DDS.

    Each DPU is an :class:`OffloadShard`, ``shards[i]`` over
    ``filesystems[i]``.  The NIC's signature match and the traffic
    director steer read requests to the offload engine, which serves
    them without touching the host; writes (and cache-miss reads) fall
    back to the host library path over the split connection, which this
    class owns once for every shard: the application callbacks, the
    transport layers, the fallback with its write-commit chain and the
    resilience arming.
    """

    #: Traffic-director cores per DPU.
    DIRECTOR_CORES = 1
    #: Each director's circuit breaker (:meth:`enable_resilience`): it
    #: opens after this many consecutive failures, half-opens after this
    #: long, and (when not None) also opens after this many consecutive
    #: capacity bounces.
    BREAKER_THRESHOLD = 4
    BREAKER_RECOVERY = 500e-6
    BREAKER_SATURATION: Optional[int] = None

    def __init__(
        self,
        env: Environment,
        link: NetworkLink,
        filesystem: DdsFileSystem,
        shard_count: int,
        callbacks: Optional[OffloadCallbacks] = None,
        context_slots: int = 1024,
        copy_mode: bool = False,
        rdma_transport: bool = False,
        host_app: Optional[Callable] = None,
    ) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        super().__init__(env, link)
        self.callbacks = callbacks or passthrough_callbacks()
        self._signature = AppSignature(server_port=5000)
        # Application override for requests bounced to the host (KV gets,
        # GetPage@LSN); default is plain file semantics via the library.
        self.host_app = host_app
        self.client_spec = RDMA_VERBS if rdma_transport else HOST_OS_TCP
        self.transport = StackLayer(env, self.client_spec, self.host_pool)
        self.app_net = StackLayer(env, BENCH_APP_NET, self.host_pool)
        # OffloadShard's sizing knobs, kept so a shard added later is
        # assembled exactly like a construction-time one.
        self._unit_options = dict(
            director_cores=self.DIRECTOR_CORES,
            context_slots=context_slots,
            copy_mode=copy_mode,
            rdma=rdma_transport,
        )
        self.shards: List[OffloadShard] = []
        self.directors: List[TrafficDirector] = []
        #: Write-commit chain: ``commit(shard_index, request)`` generators
        #: run in order between a write's local apply and its ack; the
        #: first to return False fails the ack.  Empty until replication
        #: or resharding registers a link.
        self._commit_chain: List[Callable[[int, IoRequest], Generator]] = []
        self.shard_map = ConsistentHashShardMap(shard_count)
        #: The routing hook — which shard serves a file now: the map's
        #: owner, the acting leader once replicated.  Every director's
        #: ``owner_of`` is this object; scans and migrations ask it too.
        self.owner_of: Callable[[int], int] = self.shard_map.owner
        #: Installed by :meth:`enable_replication`; None keeps every
        #: datapath byte-identical to the unreplicated deployment.
        self.replicator = None
        #: Installed on the first :meth:`add_shard`/:meth:`drain_shard`
        #: (or explicitly); None keeps the fixed-N datapath untouched.
        self.resharder = None
        #: shard index -> :class:`PushdownExecution`, installed by
        #: :meth:`enable_pushdown`; empty until then (no new stages, no
        #: new cores — the plain datapath is untouched).
        self.pushdown_stages: Dict[int, PushdownExecution] = {}
        #: Installed by :meth:`enable_qos`; None keeps ingress steering
        #: byte-identical to the ungated deployment.
        self.qos = None
        #: True while a membership change runs.
        self._changing = False
        #: Shard 0 serves the caller's filesystem; other shards get a
        #: mirrored namespace on their own SSD.
        self.filesystems = [filesystem] + [
            mirror_filesystem(env, filesystem)
            for _ in range(shard_count - 1)
        ]
        for fs in self.filesystems:
            self._build_unit(fs)
        #: The shard-steering stage (ingress counters live here).  It is
        #: the pipeline's steering entry until :meth:`enable_qos` puts
        #: the gate in front of it.
        self.steering = ShardedSteering(env, self.shards)
        # The three lists an opt-in registers with; the lifecycle
        # methods and the write path only walk them (DESIGN §8).  Each
        # is swapped copy-on-write, since a generator may be walking it
        # across a yield; the third is the write-commit chain above.
        #: Per-shard wiring: applied to every live shard on registration
        #: and to every shard :meth:`add_shard` builds afterwards.
        self._shard_wiring: List[Callable[[OffloadShard], None]] = []
        #: Shard-lifecycle members, walked in order at every membership
        #: change (steering first, then the replicator).
        self._lifecycle: List[ShardLifecycle] = [self.steering]
        self.set_pipeline(
            [WireIngress(env, link, forward_latency=False)]
            + [shard.backend for shard in self.shards]
            + [self.steering],
            steering=self.steering,
        )
        for shard in self.shards:
            shard.backend.start()
        # Bring-up durability point: every shard's namespace (the cloned
        # mirrors included) is persisted to its own disk, so a shard
        # crashed mid-run can be rebuilt from raw disk via ``recover``.
        for fs in self.filesystems:
            fs.flush_metadata_sync()

    def _build_unit(self, filesystem: DdsFileSystem) -> OffloadShard:
        """The next DPU's machinery over ``filesystem``, listed in
        ``shards`` and joined to the relay fabric (not yet started)."""
        shard = OffloadShard(
            self.env,
            self.host_pool,
            self.link,
            filesystem,
            self.callbacks,
            self._signature,
            self._host_serve,
            index=len(self.shards),
            owner_of=self.owner_of,
            **self._unit_options,
        )
        shard.director.peers = self.directors
        shard.director.ring_size = lambda: self.shard_map.shard_count
        self.shards.append(shard)
        self.directors.append(shard.director)
        return shard

    def _wire_every_shard(
        self, wire: Callable[[OffloadShard], None]
    ) -> None:
        """Apply ``wire`` to every live shard now and to every shard
        :meth:`add_shard` builds later."""
        self._shard_wiring = self._shard_wiring + [wire]
        for shard in self.live_shards:
            wire(shard)

    # ------------------------------------------------------------------
    # the host half: split-connection fallback, commit chain, resilience
    # ------------------------------------------------------------------
    def enable_resilience(self) -> RequestDedup:
        """One request-id dedup table shared by all directors (a retry
        may land on a different ingress director after failover), plus
        one circuit breaker per director/engine pair, armed with the
        ``BREAKER_*`` constants.  A ``BREAKER_SATURATION`` (off: None)
        additionally opens a breaker after that many consecutive
        capacity bounces, so a saturated-but-alive engine sheds intake
        work to the host path instead of being probed on every request.
        Returns the table so scenarios can audit it after the run.
        Enables once: a second table would leave in-flight requests
        recording into the first while their retries consult the
        second, and re-execute."""
        if self.dedup is not None:
            raise RuntimeError("resilience is already enabled")
        dedup = self.dedup = RequestDedup(self.env)

        def arm(shard: OffloadShard) -> None:
            shard.director.dedup = dedup
            shard.director.breaker = CircuitBreaker(
                self.env,
                failure_threshold=self.BREAKER_THRESHOLD,
                recovery_time=self.BREAKER_RECOVERY,
                saturation_threshold=self.BREAKER_SATURATION,
            )

        self._wire_every_shard(arm)
        return dedup

    def offloaded_fraction(self) -> float:
        offloaded = sum(d.requests_offloaded for d in self.directors)
        total = offloaded + sum(d.requests_to_host for d in self.directors)
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

    # ------------------------------------------------------------------
    # replication: replica groups, leader routing, quorum acks
    # ------------------------------------------------------------------
    def enable_replication(self, checker=None):
        """Turn on replicated shard groups.

        Every write is synchronously mirrored to its keyspace's backup
        peer before the client ack, and each director routes requests to
        the keyspace's *acting leader* instead of its static owner — so
        a killed shard's keyspace keeps serving from the backup with
        zero dark window.  ``checker`` (an
        :class:`~repro.faults.invariants.InvariantChecker`) is attached
        to this server; it hears every protocol step through the
        environment's listeners.  Returns the installed
        :class:`~repro.topology.replication.ShardReplicator`.
        """
        from .replication import ShardReplicator

        if self.replicator is not None:
            raise RuntimeError("replication is already enabled")
        if checker is not None:
            checker.attach(self)
        replicator = ShardReplicator(self.env, self)
        self.replicator = replicator
        # A shard built later takes the hook from _build_unit.
        self.owner_of = replicator.leader_for
        for shard in self.live_shards:
            shard.director.owner_of = self.owner_of
        self._lifecycle = self._lifecycle + [replicator]
        # Quorum first, whatever the enable order: a write the group
        # refused must never reach migration bookkeeping.
        self._commit_chain = [replicator.replicate] + self._commit_chain
        return replicator

    # ------------------------------------------------------------------
    # elastic resharding: live shard add/drain
    # ------------------------------------------------------------------
    @property
    def live_shards(self) -> List[OffloadShard]:
        """Shards still in the cluster (retired tombstones excluded)."""
        return [shard for shard in self.shards if not shard.retired]

    def enable_resharding(self):
        """The deployment's :class:`~repro.topology.resharding.
        ReshardingCoordinator` (created on first use; a fixed-N
        deployment that never reshards never pays for one)."""
        if self.resharder is None:
            from .resharding import ReshardingCoordinator

            self.resharder = ReshardingCoordinator(self.env, self)
            self._commit_chain = self._commit_chain + [
                self.resharder.on_write_applied
            ]
        return self.resharder

    def membership_refusal(self, drain: Optional[int] = None) -> Optional[str]:
        """Why :meth:`add_shard` (or :meth:`drain_shard` of ``drain``)
        cannot start now, or None — checked before either touches
        anything, and asked by the autoscaler.  One change at a time, a
        live unretired drainee, no dark shard (the pairing would resize
        around a member that cannot sync; one dying *mid*-change is
        handled), and no drain below the lifecycle members' floor."""
        if self._changing:
            return "a resharding operation is already in flight"
        live = self.live_shards
        if drain is not None:
            if self.shards[drain].retired:
                return f"shard {drain} is already retired"
            if not self.shards[drain].alive:
                return f"cannot drain dead shard {drain}"
            floor = 1 + max(member.min_shards for member in self._lifecycle)
            if len(live) < floor:
                return f"cannot drain below {floor - 1} live shard(s)"
        if any(not shard.alive for shard in live):
            change = "an add" if drain is None else "a drain"
            return f"cannot start {change} with a dead shard"
        return None

    def _begin_change(self, drain: Optional[int] = None):
        """Raise the refusal, or mark a change started (cleared when it
        ends) and return the coordinator."""
        refusal = self.membership_refusal(drain)
        if refusal is not None:
            raise RuntimeError(refusal)
        self._changing = True
        return self.enable_resharding()

    def add_shard(self) -> Generator:
        """Grow the deployment by one shard, live, under traffic.

        Refused up front (:meth:`membership_refusal`).  Builds the new
        DPU's machinery (cloned namespace on its own SSD, backend,
        engine, director), wires it into the relay fabric, applies
        every registered per-shard wiring, walks the lifecycle members
        (ingress opens, the replication pairing resizes), then admits it
        to the ring and migrates the moved keyspaces' segments — sources
        keep serving reads and writes until each file's atomic cutover.
        Returns the new shard index.
        """
        resharder = self._begin_change()
        index = len(self.shards)
        fs = mirror_filesystem(self.env, self.filesystems[0])
        # Durability point for the new disk: a shard killed mid-
        # migration must recover from raw disk like any other.
        fs.flush_metadata_sync()
        # Copy-on-write (relay/steering paths read the list live).
        self.filesystems = list(self.filesystems) + [fs]
        shard = self._build_unit(fs)
        self._stages.append(shard.backend)
        shard.backend.start()
        # Wiring before lifecycle: members see a fully armed shard.
        for wire in self._shard_wiring:
            wire(shard)
        for member in self._lifecycle:
            yield from member.shard_added(shard)
        moves = resharder.plan_add(index)
        yield from resharder.migrate(moves, kind=f"add:{index}")
        self._changing = False
        return index

    def drain_shard(self, index: int) -> Generator:
        """Retire one shard, live: migrate its keyspace out, then
        remove it from the ring, the replication pairing, and the
        ingress set.  The drained shard keeps serving its files until
        each one's atomic cutover (zero dark window by construction).
        Refused up front (:meth:`membership_refusal`).
        """
        resharder = self._begin_change(drain=index)
        shard = self.shards[index]
        moves = resharder.plan_remove(index)
        yield from resharder.migrate(moves, kind=f"drain:{index}")
        # Tombstone *before* the members hear of it: the replication
        # pairing re-derives from the non-retired membership, so
        # retiring afterwards would leave the drained shard as a live
        # backup.  It stays alive (and keeps mirroring for groups it
        # still backs) until each adoption completes — only client
        # ingress closes here.
        shard.retired = True
        for member in self._lifecycle:
            yield from member.shard_retired(shard)
        self._changing = False

    # ------------------------------------------------------------------
    # verified pushdown: per-shard offload-program execution (DESIGN §14)
    # ------------------------------------------------------------------
    def enable_pushdown(self) -> Dict[int, PushdownExecution]:
        """Give every live shard a verified-pushdown execution stage.

        Each shard gets its own Arm core + RXP accelerator over its own
        filesystem, appended to the stage list so the cores-consumed
        roll-up sees them.  Idempotent; a shard added after enabling
        gets its stage the same way.
        """
        if not self.pushdown_stages:
            self._wire_every_shard(self._install_pushdown)
        return self.pushdown_stages

    def _install_pushdown(self, shard: OffloadShard) -> None:
        stage = PushdownExecution(self.env, shard, self.link)
        self.pushdown_stages[shard.index] = stage
        self._stages.append(stage)

    def pushdown_scan(self, file_id: int, pipeline, pages: int) -> Generator:
        """Serve a pushdown pipeline over one file, shard-routed.

        Admission first: the pipeline goes through :func:`repro.
        pushdown.verifier.verify` against the canonical 128B×64
        record/page ``GEOMETRY``.  A proof token routes the
        scan to the serving shard's :class:`PushdownExecution` stage; a
        rejection falls back to that shard's host path — every page
        ships over the wire and through the host transport, and the
        host pool computes the same answer — returning an outcome whose
        ``verdict`` carries the typed rule that refused the DPU.  The
        serving shard is the one the directors route the file's
        requests to (the map's owner; the acting leader while
        replicated), and a scan it cannot finish because it is down
        raises :class:`~repro.storage.filesystem.FileSystemError` like any
        failed page read.

        Returns ``(verdict, outcome)``; a process generator either way.
        """
        from ..pushdown.scan import GEOMETRY
        from ..pushdown.verifier import verify

        verdict, token = verify(pipeline, GEOMETRY)
        serving = self.owner_of(file_id)
        if token is None:
            outcome = yield from self._pushdown_host_fallback(
                serving, file_id, pipeline, pages, GEOMETRY
            )
            return verdict, outcome
        if not self.pushdown_stages:
            raise RuntimeError(
                "call enable_pushdown() before pushdown_scan()"
            )
        stage = self.pushdown_stages[serving]
        outcome = yield from stage.scan(token, file_id, pages)
        return verdict, outcome

    def _pushdown_host_fallback(
        self,
        shard_index: int,
        file_id: int,
        pipeline,
        pages: int,
        geometry,
    ) -> Generator:
        """Ship-all host execution for a pipeline the verifier refused.

        The host is not the resource-starved party the verifier
        protects, so the interpreter runs with host-sized stack and fuel
        bounds — a program rejected for *DPU* limits still computes the
        correct answer here, while a genuinely divergent one is stopped
        by the host's (much larger) fuel and surfaces as a trap.
        """
        from ..pushdown.engine import HOST_HZ, cycles_of
        from ..pushdown.interp import interpret_page
        from ..pushdown.isa import ACC_REGS, STACK_LIMIT

        page_bytes = geometry.page_bytes
        shard = self.shards[shard_index]
        filesystem = self.filesystems[shard_index]
        host_fuel = geometry.fuel_limit * 1024
        acc: List[int] = [0] * ACC_REGS
        selected: List[Tuple[int, bytes]] = []
        wire_bytes = cycles = 0
        for page_id in range(pages):
            shard.require_alive()
            page = yield from filesystem.read(
                file_id, page_id * page_bytes, page_bytes
            )
            # Ship-all: the whole page crosses the wire and the host
            # transport before any operator runs.
            shard.require_alive()
            yield from self.link.transmit("server_to_client", len(page))
            yield from self.transport.process(len(page))
            yield from self.app_net.process(len(page))
            wire_bytes += len(page)
            # ddslint: disable=DDS501 -- the verifier's refusal is why this runs: host-sized fuel and stack
            hits, _emitted, stats = interpret_page(
                pipeline, page, geometry, host_fuel, acc,
                stack_limit=STACK_LIMIT * 128,
            )
            cycles += cycles_of(stats)
            first = page_id * geometry.records_per_page
            selected.extend((first + slot, record) for slot, record in hits)
        yield from self.host_pool.execute(cycles / HOST_HZ)
        return PushdownScanOutcome(
            file_id=file_id,
            shard=shard_index,
            offloaded=False,
            rows=len(selected),
            wire_bytes=wire_bytes,
            acc=tuple(acc),
            selected=selected,
        )

    # ------------------------------------------------------------------
    # overload QoS: admission, bounded tenant queues, fair dispatch
    # ------------------------------------------------------------------
    def enable_qos(self, config=None):
        """Install the tenant QoS gate at ingress (DESIGN §15).

        Client messages then pass admission control (token buckets) and
        per-tenant bounded queues, and reach the shard directors via
        weighted-fair DRR dispatch; excess load is shed with explicit
        THROTTLED responses instead of growing invisible queues.
        Returns the installed :class:`~repro.topology.qos.TenantQosGate`.
        """
        from .qos import QosConfig, TenantQosGate

        if self.qos is not None:
            raise RuntimeError("QoS is already enabled")
        gate = TenantQosGate(
            self.env,
            config or QosConfig(),
            self.steering.steer,
            dedup_source=lambda: self.dedup,
        )
        self.qos = gate
        # The gate interposes: it becomes the pipeline's steering entry
        # and dispatches into the shard steering it holds.
        self._steering = gate
        self._stages.append(gate)
        return gate

    # ------------------------------------------------------------------
    # crash and crash-consistent recovery
    # ------------------------------------------------------------------
    def kill_shard(self, index: int) -> int:
        """Crash one shard's DPU mid-flight.

        The director stops accepting (and answering) messages, and the
        engine drops its in-flight contexts without responding — exactly
        what a power-failed DPU looks like from the wire.  Returns the
        number of dropped in-flight offload contexts.
        """
        shard = self.shards[index]
        if not shard.alive:
            raise RuntimeError(f"shard {index} is already dead")
        shard.alive = False
        shard.director.alive = False
        dropped = shard.engine.crash()
        # Same simulation instant as the crash (no yield between).
        for member in self._lifecycle:
            member.shard_killed(shard)
        return dropped

    def recover_shard(self, index: int) -> Generator:
        """Restart a killed shard from its raw disk.

        Re-reads the metadata segment (device-timed, so time-to-recover
        includes real device latency), rebuilds the shard's filesystem
        from the newest valid slot, rewires the backend onto it, and
        rejoins the shard map.  Returns the recovered filesystem.
        """
        shard = self.shards[index]
        if shard.alive:
            raise RuntimeError(f"shard {index} is not dead")
        old_fs = self.filesystems[index]
        yield from old_fs.bdev.device.read(old_fs.segment_size)
        fs = DdsFileSystem.recover(
            self.env, old_fs.bdev, segment_size=old_fs.segment_size
        )
        shard.backend.filesystem = fs
        shard.backend.file_service.filesystem = fs
        # Copy-on-write, not ``self.filesystems[index] = fs``: relay and
        # steering paths read the list concurrently with recovery.
        replaced = list(self.filesystems)
        replaced[index] = fs
        self.filesystems = replaced
        shard.engine.restart()
        if shard.director.breaker is not None:
            # The breaker accumulated crash failures from dispatches
            # that were already past the alive check when the shard
            # died; a freshly recovered engine must not start half-open
            # for the previous crash's failures.
            shard.director.breaker.reset()
        for member in self._lifecycle:
            yield from member.shard_recovering(shard)
        # No yield since the last member's final check: the alive flip
        # and what the members do on rejoin are one instant.
        shard.director.alive = True
        shard.alive = True
        for member in self._lifecycle:
            member.shard_recovered(shard)
        return fs
