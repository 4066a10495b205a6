"""Elastic resharding: live keyspace migration plus the autoscaler.

ROADMAP item 2.  The versioned shard map (:mod:`repro.topology.
sharding`) makes membership changes cheap to *decide*; this module
makes them cheap to *execute* while the deployment keeps serving:

* :class:`ReshardingCoordinator` — plans a membership change atomically
  (ring swap + per-file pins, no simulation yield, so routing never
  observes a half-applied map) and then migrates each moved file's
  segments over the existing relay fabric with device-timed copies,
  exactly like PR 7's anti-entropy path: Arm-core forward cost on the
  source, the DPU→DPU fabric hop, receive cost on the destination, a
  device-timed write into the destination's filesystem.  The source
  keeps serving reads and writes throughout; writes that land on a
  migrating file mark their chunks dirty (re-copied before cutover),
  and the final flip happens in the same simulation instant as the
  empty-dirty-set check — the cooperative DES makes check + flip
  atomic, so there is no window in which neither epoch owns the file.
  A write that was already in flight to the old owner when its file
  flipped is a *straggler*: it is forwarded to the new owner before its
  ack (replicated deployments instead fail it below quorum and let the
  client retry onto the new owner), so an acked write always ends on
  the owning shard's disk.
* :class:`ShardAutoscaler` — a DES control loop sampling the per-shard
  ingress request counters: scale out past the high-water per-shard
  IOPS, drain the newest shard below the low-water mark, with a
  cooldown between actions so one burst does not thrash the ring.

Chunk copies assume the moved files' extents are already durable on
the destination (namespaces are cloned and flushed at bring-up /
add_shard), which is what makes a destination crash mid-migration
recoverable: the RamDisk retains copied bytes and the flushed metadata
maps them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Generator, List, Set

from ..core.messages import IoRequest
from ..core.traffic_director import TrafficDirector
from ..sim import Environment, Interrupt
from ..structures.atomics import AtomicCounter
from .replication import land_relay, relay_write

if TYPE_CHECKING:
    from .sharding import ShardedOffloadServer

__all__ = ["FileMove", "ReshardingCoordinator", "ShardAutoscaler"]


@dataclass(frozen=True)
class FileMove:
    """One file's reassignment under a membership change."""

    file_id: int
    source: int
    dest: int


class ReshardingCoordinator:
    """Migrates moved keyspaces through the stage pipeline, live.

    One coordinator per deployment (``server.enable_resharding()``);
    operations are serialized — a second ``migrate`` while one is in
    flight raises.  All protocol state is guarded by ``_lock`` (no
    yield inside a locked region), and every cutover is atomic with its
    final dirty check.
    """

    #: Copy granularity.  Smaller chunks interleave better with the
    #: datapath (finer dirty tracking, shorter device holds); 256 KiB
    #: keeps a 1 MiB file at four copy events.
    chunk_bytes = 256 << 10
    #: Poll interval while a copy endpoint is dark (the copy plane
    #: stalls; the datapath keeps serving via pins / acting leaders).
    wait_tick = 100e-6

    def __init__(self, env: Environment, server: "ShardedOffloadServer"):
        self.env = env
        self.server = server
        self._lock = threading.Lock()
        #: file_id -> FileMove for files between plan and flip.
        self._migrating: Dict[int, FileMove] = {}
        #: file_id -> dirty chunk indices (writes applied since copy).
        self._dirty: Dict[int, Set[int]] = {}
        #: file_id -> destination, for every file ever flipped (the
        #: straggler-forward lookup; bounded by the namespace size).
        self._moved: Dict[int, int] = {}
        self.active = False
        #: One record per completed operation: kind, sim start/end,
        #: moved file ids, bytes copied.
        self.history: List[dict] = []
        self._files_moved = AtomicCounter(0)
        self._bytes_copied = AtomicCounter(0)
        self._chunk_copies = AtomicCounter(0)
        self._dirty_recopies = AtomicCounter(0)
        self._cutovers = AtomicCounter(0)

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    @property
    def files_moved(self) -> int:
        """Files whose cutover completed."""
        return self._files_moved.load()

    @property
    def bytes_copied(self) -> int:
        """Payload bytes shipped source→destination (re-copies included)."""
        return self._bytes_copied.load()

    @property
    def dirty_recopies(self) -> int:
        """Chunk copies repeated because a write landed after the first."""
        return self._dirty_recopies.load()

    @property
    def cutovers(self) -> int:
        """Atomic per-file flips executed."""
        return self._cutovers.load()

    # ------------------------------------------------------------------
    # planning (atomic: ring swap + pins, no simulation yield)
    # ------------------------------------------------------------------
    def plan_add(self, index: int) -> List[FileMove]:
        """Admit ``index`` to the ring (see :meth:`_plan`)."""
        return self._plan(lambda shard_map: shard_map.add_shard(index))

    def plan_remove(self, index: int) -> List[FileMove]:
        """Retire ``index`` from the ring: only its own files move, and
        they drain on it (see :meth:`_plan`)."""
        return self._plan(lambda shard_map: shard_map.remove_shard(index))

    def _plan(self, change) -> List[FileMove]:
        """Apply ``change`` to the ring and pin every file it moves to
        its old owner.  Runs without yielding, so routing sees either the
        old placement or (pinned) old owners — never a half-applied map."""
        shard_map = self.server.shard_map
        files = self.server.filesystems[0].file_ids()
        old = {f: shard_map.owner(f) for f in files}
        change(shard_map)
        moves = []
        for file_id in files:
            new = shard_map.ring_owner(file_id)
            if new != old[file_id]:
                shard_map.pin(file_id, old[file_id])
                moves.append(FileMove(file_id, old[file_id], new))
        return moves

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------
    def migrate(self, moves: List[FileMove], kind: str) -> Generator:
        """Copy every move's segments and flip each file atomically."""
        with self._lock:
            if self.active:
                raise RuntimeError(
                    "a resharding operation is already in flight"
                )
            self.active = True
        start = self.env.now
        bytes_before = self.bytes_copied
        for move in moves:
            with self._lock:
                self._migrating[move.file_id] = move
                self._dirty[move.file_id] = set()
            yield from self._migrate_file(move)
        with self._lock:
            self.active = False
        self.history.append(
            {
                "kind": kind,
                "start": start,
                "end": self.env.now,
                "files": [move.file_id for move in moves],
                "bytes": self.bytes_copied - bytes_before,
            }
        )

    def _migrate_file(self, move: FileMove) -> Generator:
        size = self.server.filesystems[move.source].file_size(move.file_id)
        chunks = max(1, -(-size // self.chunk_bytes))
        # Bulk pass: the source keeps serving; failed copies (an
        # endpoint died mid-chunk) re-queue as dirty.
        for chunk_index in range(chunks):
            ok = yield from self._copy_chunk(move, chunk_index)
            if not ok:
                with self._lock:
                    self._dirty[move.file_id].add(chunk_index)
        # Dirty passes: writes applied during the copy re-dirty their
        # chunks.  When a check finds the set empty, the flip happens
        # with no yield in between — check + cutover are one simulated
        # instant, so exactly one epoch owns the file at all times.
        while True:
            with self._lock:
                dirty = self._dirty[move.file_id]
                if not dirty:
                    del self._dirty[move.file_id]
                    del self._migrating[move.file_id]
                    self._moved[move.file_id] = move.dest
                    flip = True
                else:
                    chunk_index = min(dirty)
                    dirty.discard(chunk_index)
                    flip = False
            if flip:
                self.server.shard_map.unpin(move.file_id)
                self._cutovers.fetch_add(1)
                self._files_moved.fetch_add(1)
                return
            self._dirty_recopies.fetch_add(1)
            ok = yield from self._copy_chunk(move, chunk_index)
            if not ok:
                with self._lock:
                    # The destination died mid-copy; re-queue and let
                    # the next pass wait for its recovery.
                    self._dirty[move.file_id].add(chunk_index)

    def _wait_alive(self, index: int) -> Generator:
        while not self.server.shards[index].alive:
            yield self.env.timeout(self.wait_tick)

    def _copy_chunk(self, move: FileMove, chunk_index: int) -> Generator:
        """One device-timed source→destination segment copy: forward
        cost on the source's Arm core, the source's device read, then
        :func:`~repro.topology.replication.land_relay` on the
        destination.  The source is the routing hook's answer — the
        file is pinned to ``move.source`` until its flip, so the pinned
        owner or, replicated, its keyspace's acting leader (a drained
        shard keeps its group until after its last flip).  Returns False
        when the destination died mid-copy (re-queue the chunk).
        """
        server = self.server
        source = server.owner_of(move.file_id)
        if not server.shards[source].alive:
            # No acting leader can serve the bytes: stall until the
            # source recovers (§4.3 raw-disk recovery), then re-resolve.
            yield from self._wait_alive(source)
            source = server.owner_of(move.file_id)
        yield from self._wait_alive(move.dest)
        # The live size, not the plan-time one: a write may have grown
        # the file mid-migration (its chunks arrive via dirty marks).
        size = server.filesystems[source].file_size(move.file_id)
        offset = chunk_index * self.chunk_bytes
        length = min(self.chunk_bytes, size - offset)
        if length <= 0:
            return True
        packets = server.link.packets_for(length)
        yield from server.shards[source].cores[0].execute(
            TrafficDirector.FORWARD_COST_PER_PACKET * packets
        )
        payload = yield from server.filesystems[source].read(
            move.file_id, offset, length
        )
        landed = yield from land_relay(
            server, move.dest, packets, move.file_id, offset, payload
        )
        if not landed:
            return False
        self._chunk_copies.fetch_add(1)
        self._bytes_copied.fetch_add(length)
        return True

    # ------------------------------------------------------------------
    # write-commit chain link (run by the server after each applied
    # write, before its ack is released; after the quorum link)
    # ------------------------------------------------------------------
    def on_write_applied(
        self, executor: int, request: IoRequest
    ) -> Generator:
        """Dirty-mark a migrating file's chunks, or forward a straggler.

        For a file between plan and flip this only mutates the dirty
        set (no yield — no scheduled events, so an idle coordinator
        leaves the datapath byte-identical).  For a file that already
        flipped away from ``executor``, the payload is forwarded to the
        current owner before the ack (device-timed); replicated
        deployments never reach that branch — their stragglers fail
        below quorum and retry onto the new owner.  Either way the ack
        implies the owning shard holds the bytes: the return value is
        False (fail the ack, the client retries onto the owner) only
        when a forward could not land because the owner went dark.
        """
        file_id = request.file_id
        with self._lock:
            if file_id in self._migrating:
                dirty = self._dirty.get(file_id)
                if dirty is not None:
                    first = request.offset // self.chunk_bytes
                    last = (
                        max(request.offset, request.offset + request.size - 1)
                        // self.chunk_bytes
                    )
                    for chunk_index in range(first, last + 1):
                        dirty.add(chunk_index)
                return True
            moved = file_id in self._moved
        if not moved:
            return True
        owner = self.server.owner_of(file_id)
        if executor == owner:
            return True
        return (yield from relay_write(self.server, executor, owner, request))


class ShardAutoscaler:
    """Scale the deployment from per-shard ingress load, inside the DES.

    Samples :attr:`ShardedSteering.request_loads` every ``interval``
    and compares the busiest live shard's request rate against the
    water marks: above ``high_water_iops`` → ``add_shard`` (up to
    ``max_shards``); below ``low_water_iops`` → drain the newest live
    shard (down to ``min_shards``, the policy floor; the safety floor is
    the server's).  ``cooldown`` intervals must pass after an action
    before the next one, so a single burst cannot thrash the ring.  A
    step the server's :meth:`~repro.topology.sharding.
    ShardedOffloadServer.membership_refusal` refuses (a dark shard, a
    change in flight, the drain floor) is held.  Decisions (and the
    rates that drove them) land in :attr:`decisions` for the cost-curve
    tables.
    """

    def __init__(
        self,
        env: Environment,
        server: "ShardedOffloadServer",
        high_water_iops: float,
        low_water_iops: float,
        interval: float = 1e-3,
        min_shards: int = 1,
        max_shards: int = 8,
        cooldown: int = 2,
    ) -> None:
        if low_water_iops >= high_water_iops:
            raise ValueError("low_water_iops must be < high_water_iops")
        self.env = env
        self.server = server
        self.high_water_iops = high_water_iops
        self.low_water_iops = low_water_iops
        self.interval = interval
        self.min_shards = min_shards
        self.max_shards = max_shards
        self.cooldown = cooldown
        self.decisions: List[dict] = []
        self.scale_outs = 0
        self.scale_ins = 0
        self._process = None
        self._running = False

    def start(self) -> "ShardAutoscaler":
        if self._process is not None:
            raise RuntimeError("autoscaler already started")
        self._running = True
        self._process = self.env.process(self._run())
        return self

    def stop(self) -> None:
        """Stop the control loop (benches stop it before draining)."""
        self._running = False
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("autoscaler stopped")

    def _run(self) -> Generator:
        steering = self.server.steering
        previous = steering.request_loads
        cooling = 0
        while self._running:
            try:
                yield self.env.timeout(self.interval)
            except Interrupt:
                return
            loads = steering.request_loads
            rates = [
                (
                    loads[i]
                    - (previous[i] if i < len(previous) else 0)
                )
                / self.interval
                for i in range(len(loads))
            ]
            previous = loads
            live = [
                s
                for s in self.server.shards
                if not s.retired and s.alive
            ]
            busiest = max((rates[s.index] for s in live), default=0.0)
            action = None
            if cooling > 0:
                cooling -= 1
            elif (
                busiest > self.high_water_iops
                and len(live) < self.max_shards
            ):
                # A refused step is recorded with no action and asked
                # again next tick.
                if self.server.membership_refusal() is None:
                    index = yield from self.server.add_shard()
                    action = f"add:{index}"
                    self.scale_outs += 1
                    cooling = self.cooldown
            elif (
                busiest < self.low_water_iops
                and len(live) > self.min_shards
            ):
                index = max(s.index for s in live)
                if self.server.membership_refusal(drain=index) is None:
                    yield from self.server.drain_shard(index)
                    action = f"drain:{index}"
                    self.scale_ins += 1
                    cooling = self.cooldown
            self.decisions.append(
                {
                    "time": self.env.now,
                    "rates": [round(r, 1) for r in rates],
                    "live": len(live),
                    "action": action,
                }
            )
