"""Replicated shard groups: synchronous primary→backup mirroring.

ROADMAP item 1: the §4.3 raw-disk recovery is crash-consistent but not
*available* — a killed shard's keyspace goes dark for the whole outage.
This module closes that window with SWARM-style near-free replication
(PAPERS.md): every write is applied on the owning primary and
synchronously mirrored to one deterministic backup peer over the
existing director→director relay fabric, and the client ack waits for
the quorum (both members when both are alive, the survivor alone when
one is dark).

* :class:`ReplicaGroup` — the per-keyspace replication state: one shared
  write log (the simulator's model of the replicated log), per-member
  applied sets with contiguous watermarks (mirrors complete out of
  order, so the applied *prefix* is what log-prefix agreement is checked
  against), the current leader, and a monotonic epoch bumped on every
  leadership change.
* :class:`ShardReplicator` — the deployment-level protocol driver:
  routes each keyspace to its acting leader (``leader_for`` becomes the
  server's routing hook), mirrors writes with relay-fabric costs, runs
  the deterministic leader handoff on ``kill_shard``, and replays the
  survivor's log into a recovered member (anti-entropy catch-up)
  before it rejoins.

Every protocol step reports to an optional observer (the Derecho-style
runtime invariant checker in :mod:`repro.faults.invariants`), so the
invariants are checked *while* chaos runs, not just post-hoc.

Group membership is deterministic: shard ``k``'s group is
``(primary=k, backup=(k+1) % N)``, so with N shards every shard is the
primary of its own keyspace and the backup of its predecessor's.
Handoff is equally deterministic — the primary leads whenever it is
alive, the backup leads otherwise — which is what lets two runs of the
same seed produce identical failover trajectories.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Generator, Optional, Tuple

from ..concurrency.hooks import yield_point
from ..core.messages import IoRequest
from ..core.traffic_director import TrafficDirector
from ..digest import blake2b
from ..sim import Environment
from ..storage.filesystem import FileSystemError
from ..structures.atomics import AtomicCounter
from .stages import ShardLifecycle

if TYPE_CHECKING:
    from .sharding import ShardedOffloadServer
    from .stages import OffloadShard

__all__ = [
    "WriteRecord",
    "CommitRecord",
    "ReplicaGroup",
    "ShardReplicator",
    "land_relay",
    "relay_write",
]


def _digest(payload: bytes) -> str:
    """Short stable content digest for log records and violation text."""
    return blake2b(payload, digest_size=8).hexdigest()


@dataclass(frozen=True)
class WriteRecord:
    """One entry of a replica group's write log."""

    lsn: int
    epoch: int
    request_id: int
    file_id: int
    offset: int
    size: int
    digest: str
    payload: bytes = b""

    def describe(self) -> str:
        return (
            f"lsn={self.lsn} epoch={self.epoch} rid={self.request_id} "
            f"file={self.file_id} off={self.offset} digest={self.digest}"
        )


@dataclass(frozen=True)
class CommitRecord:
    """Quorum state of one write at the moment its ack was released."""

    request_id: int
    keyspace: int
    lsn: int
    epoch: int
    #: Members that had applied the write when the ack was released.
    applied: Tuple[int, ...]
    #: Members that were alive when the ack was released.
    live: Tuple[int, ...]


class ReplicaGroup:
    """Replication state for one keyspace (one primary, one backup).

    The log is shared between the members — it models the replicated
    log, and *log-prefix agreement* is the invariant that each member's
    applied prefix (its watermark) is a prefix of it.  Applied lsns land
    in per-member sets because concurrent mirrors complete out of order;
    the watermark only advances over a contiguous prefix.

    All mutations run under the group lock with a preceding
    ``yield_point``, so the deterministic interleaving harness can drive
    concurrent appenders, mirrors, and handoffs through every schedule.
    """

    def __init__(self, keyspace: int, primary: int, backup: int) -> None:
        if primary == backup:
            raise ValueError("a replica group needs two distinct members")
        self.keyspace = keyspace
        self.primary = primary
        self.backup = backup
        self.members: Tuple[int, int] = (primary, backup)
        self.leader = primary
        self.epoch = 0
        #: Prospective backups mid-sync: new writes are mirrored to
        #: them live (marked via :meth:`mark_synced`, outside quorum),
        #: so the resize backfill replays a *fixed* prefix instead of
        #: chasing a growing log it can never catch under sustained
        #: traffic.
        self.joiners: frozenset = frozenset()
        #: Cutover write fence: while set, new appends for this
        #: keyspace stall (a bounded latency blip, never a failure) so
        #: the in-flight mirror set can drain to zero — the only way
        #: total joiner coverage is ever reached under saturation.
        self.fenced = False
        #: Joiner awaiting promotion to backup (set by
        #: :meth:`request_adoption`, consumed by the completion-
        #: triggered swap in :meth:`_maybe_adopt_locked`).
        self._pending_adoption: Optional[int] = None
        #: Evidence from the last swap: ``(member, synced watermark at
        #: the swap instant, log length at the swap instant)`` — the
        #: runtime checker verifies coverage was total *when it
        #: happened*, not at some later observation point.
        self.last_adoption: Optional[Tuple[int, int, int]] = None
        self.log: list = []
        self._applied: Dict[int, set] = {primary: set(), backup: set()}
        self._watermark: Dict[int, int] = {primary: 0, backup: 0}
        # Re-entrant: the completion-triggered swap in _maybe_adopt
        # runs from inside mark_synced's critical section.
        self._lock = threading.RLock()
        self._key = ("replica-group", keyspace)

    # ------------------------------------------------------------------
    # log writes
    # ------------------------------------------------------------------
    def append_record(
        self, request_id: int, file_id: int, offset: int, payload: bytes
    ) -> WriteRecord:
        """Append one write to the log; the lsn is assigned atomically."""
        yield_point("replication.append", self._key)
        with self._lock:
            record = WriteRecord(
                lsn=len(self.log),
                epoch=self.epoch,
                request_id=request_id,
                file_id=file_id,
                offset=offset,
                size=len(payload),
                digest=_digest(payload),
                payload=payload,
            )
            self.log.append(record)
        return record

    def mark_applied(self, member: int, lsn: int) -> None:
        """Record that ``member`` has applied log entry ``lsn``."""
        if member not in self._applied:
            raise ValueError(f"shard {member} is not in group {self.keyspace}")
        yield_point("replication.apply", self._key)
        with self._lock:
            self._applied[member].add(lsn)
            while self._watermark[member] in self._applied[member]:
                self._watermark[member] += 1

    def mark_synced(self, member: int, lsns) -> None:
        """Record log entries a *prospective* member holds on disk.

        The resize sync path writes the log prefix into a shard that is
        not (yet) in the group — membership is not required, and state
        for former members is retained so a later re-adoption only
        replays what they missed.
        """
        yield_point("replication.sync", self._key)
        with self._lock:
            applied = self._applied.setdefault(member, set())
            applied.update(lsns)
            mark = self._watermark.get(member, 0)
            while mark in applied:
                mark += 1
            self._watermark[member] = mark
            # The mirror that completes total coverage performs the
            # pending swap itself — the only instant at which no append
            # can be in flight.
            self._maybe_adopt()

    def synced_watermark(self, member: int) -> int:
        """Like :meth:`applied_watermark`, but 0 for unknown members."""
        return self._watermark.get(member, 0)

    def add_joiner(self, member: int) -> int:
        """Open live mirroring to a prospective backup.

        Returns the join point: every lsn appended from here on reaches
        ``member`` through the write path, so the caller's backfill only
        has to replay entries *below* it (plus the bounded set of
        writes that were mid-mirror at this instant).
        """
        yield_point("replication.join", self._key)
        with self._lock:
            self.joiners = self.joiners | {member}
            return len(self.log)

    # ------------------------------------------------------------------
    # reads (single attribute/dict reads are GIL-indivisible; the lock
    # is reserved for the compound mutations above)
    # ------------------------------------------------------------------
    def has_applied(self, member: int, lsn: int) -> bool:
        return lsn in self._applied[member]

    def applied_watermark(self, member: int) -> int:
        """Length of ``member``'s contiguous applied log prefix."""
        return self._watermark[member]

    def next_unapplied(self, member: int) -> Optional[int]:
        """Lowest lsn ``member`` has not applied, or None if caught up."""
        mark = self._watermark[member]
        return mark if mark < len(self.log) else None

    def record(self, lsn: int) -> WriteRecord:
        return self.log[lsn]

    # ------------------------------------------------------------------
    # leadership
    # ------------------------------------------------------------------
    def elect(self, alive: Callable[[int], bool]) -> Tuple[int, int, bool]:
        """Deterministic re-election: the primary leads whenever it is
        alive, else the backup; both dark leaves the leader unchanged
        (nothing can serve either way).  Returns (old leader, new
        leader, changed); the epoch bumps exactly when leadership moves.
        """
        yield_point("replication.elect", self._key)
        with self._lock:
            old = self.leader
            if alive(self.primary):
                new = self.primary
            elif alive(self.backup):
                new = self.backup
            else:
                new = old
            changed = new != old
            if changed:
                self.leader = new
                self.epoch += 1
        return old, new, changed

    def request_adoption(self, member: int) -> None:
        """Arm the backup swap for a fully-backfilled joiner.

        The swap itself is *completion-triggered*: it runs inside
        whichever :meth:`mark_synced` call closes the joiner's last log
        gap (or inside :meth:`try_adopt` when coverage is already
        total).  Under sustained traffic some append is always
        mid-mirror, so a polling caller could never observe total
        coverage — but at the instant the closing mirror lands, every
        appended lsn is marked, so swapping there is atomic and needs
        no write fence.  A swap is a view change: the epoch bumps.
        """
        yield_point("replication.adopt", self._key)
        with self._lock:
            if member in self.members:
                raise ValueError(
                    f"shard {member} is already in group {self.keyspace}"
                )
            if self.leader != self.primary:
                raise RuntimeError(
                    f"group {self.keyspace}: cannot resize during failover"
                )
            self._pending_adoption = member

    def fence(self) -> None:
        """Raise the cutover write fence (new appends stall)."""
        yield_point("replication.fence", self._key)
        with self._lock:
            self.fenced = True

    def cancel_adoption(self) -> None:
        """Abort a pending swap (failover mid-resize): drop the fence
        and the pending joiner so writes flow again under the old
        pairing."""
        yield_point("replication.fence", self._key)
        with self._lock:
            member = self._pending_adoption
            self._pending_adoption = None
            self.fenced = False
            if member is not None:
                self.joiners = self.joiners - {member}

    def try_adopt(self) -> bool:
        """Attempt the pending swap now (the no-traffic fast path).
        Returns True when no swap remains pending."""
        self._maybe_adopt()
        return self._pending_adoption is None

    def _maybe_adopt(self) -> None:
        yield_point("replication.adopt", self._key)
        with self._lock:
            member = self._pending_adoption
            if member is None:
                return
            if self.leader != self.primary:
                return  # failover mid-resize: hold until it settles
            mark = self._watermark.get(member, 0)
            if mark < len(self.log):
                return
            self._applied.setdefault(member, set())
            self._watermark.setdefault(member, 0)
            # The outgoing backup's applied state is retained for a
            # cheaper future re-adoption.
            self.backup = member
            self.members = (self.primary, member)
            self.joiners = self.joiners - {member}
            self.epoch += 1
            self._pending_adoption = None
            self.fenced = False
            self.last_adoption = (member, mark, len(self.log))


def land_relay(
    server: "ShardedOffloadServer", peer: int, packets: int, file_id: int,
    offset: int, payload: bytes,
) -> Generator:
    """The far half of every relay-fabric write (a mirror, a straggler
    forward, a migration chunk), once the sender has paid its forward
    cost: the DPU→DPU hop, receive cost on the peer's Arm core, then a
    device-timed write into the peer's filesystem (fetched at write
    time: a recovery replaces the object).  False when the peer was
    dark at the far end of the hop or died mid-write — the caller must
    not count the bytes.  A device refusal raises FileSystemError."""
    yield server.env.timeout(server.link.spec.dpu_forward)
    if not server.shards[peer].alive:
        return False
    yield from server.shards[peer].cores[0].execute(
        TrafficDirector.RX_COST_PER_PACKET * packets
    )
    yield from server.filesystems[peer].write(file_id, offset, payload)
    return server.shards[peer].alive


def relay_write(
    server: "ShardedOffloadServer", sender: int, peer: int, request: IoRequest
) -> Generator:
    """Ship one applied write ``sender`` → ``peer`` over the relay fabric:
    the §5.3 bump-in-the-wire forward cost on the sender's Arm core,
    then :func:`land_relay`."""
    packets = server.link.packets_for(request.wire_size)
    yield from server.shards[sender].cores[0].execute(
        TrafficDirector.FORWARD_COST_PER_PACKET * packets
    )
    return (yield from land_relay(
        server, peer, packets, request.file_id, request.offset,
        request.payload or b"",
    ))


class ShardReplicator(ShardLifecycle):
    """Drives the replication protocol over a sharded deployment.

    Constructed by :meth:`ShardedOffloadServer.enable_replication`,
    which registers it as a shard-lifecycle member (the ``shard_*``
    hooks below hold the protocol's order at each membership change)
    and puts :meth:`replicate` at the head of the write-commit chain.
    The optional ``observer`` (a
    :class:`~repro.faults.invariants.InvariantChecker`)
    receives a synchronous callback at every protocol step:
    ``on_append``, ``on_apply``, ``on_commit``, ``on_handoff``,
    ``on_rejoin``, ``on_resize``.
    """

    #: Poll interval while a resize waits for its completion-triggered
    #: backup swap (and the stall-detection horizon for re-backfills).
    ADOPT_TICK = 250e-6
    #: A replica group needs two distinct members.
    min_shards = 2

    def __init__(
        self,
        env: Environment,
        server: "ShardedOffloadServer",
        observer=None,
    ) -> None:
        self.env = env
        self.server = server
        pairing = self._pairing()
        self.observer = observer
        self.groups: Dict[int, ReplicaGroup] = {
            member: ReplicaGroup(keyspace=member, primary=member, backup=backup)
            for member, backup in pairing.items()
        }
        #: request_id -> quorum state at ack time (the runtime checker's
        #: no-ack-before-quorum evidence).
        self.commits: Dict[int, CommitRecord] = {}
        self._lock = threading.Lock()
        self._key = ("replicator", id(self))
        self._mirrored = AtomicCounter(0)
        self._solo_acks = AtomicCounter(0)
        self._handoffs = AtomicCounter(0)
        self._catchup_replays = AtomicCounter(0)
        self._mirror_failures = AtomicCounter(0)

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    @property
    def mirrored_writes(self) -> int:
        """Writes successfully applied on the backup before their ack."""
        return self._mirrored.load()

    @property
    def solo_acks(self) -> int:
        """Writes acked by a lone survivor (the peer was dark)."""
        return self._solo_acks.load()

    @property
    def handoffs(self) -> int:
        """Leadership changes (kill-triggered plus rejoin-triggered)."""
        return self._handoffs.load()

    @property
    def catchup_replays(self) -> int:
        """Log entries replayed into recovering members."""
        return self._catchup_replays.load()

    @property
    def mirror_failures(self) -> int:
        """Mirror applies that failed at the peer's filesystem."""
        return self._mirror_failures.load()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def leader_for(self, file_id: int) -> int:
        """The shard currently serving ``file_id``: its keyspace's acting
        leader (every director's ``owner_of`` hook while replicated)."""
        return self.groups[self.server.shard_map.owner(file_id)].leader

    def _alive(self, member: int) -> bool:
        return self.server.shards[member].alive

    def _pairing(self) -> Dict[int, int]:
        """Keyspace -> backup for the current membership: keyspace k's
        group is (primary=k, backup=next non-retired member in cyclic
        order) — identical to (k+1) % N while membership is contiguous,
        and well-defined after drains leave holes."""
        members = sorted(
            shard.index for shard in self.server.shards if not shard.retired
        )
        if len(members) < 2:
            raise ValueError("replication needs at least two shards")
        return {
            member: members[(rank + 1) % len(members)]
            for rank, member in enumerate(members)
        }

    # ------------------------------------------------------------------
    # write path (called by the serving shard after its local apply,
    # before the client ack is released)
    # ------------------------------------------------------------------
    def replicate(self, executor: int, request: IoRequest) -> Generator:
        """Log + mirror one applied write; returns once the quorum holds.

        ``executor`` is the shard whose filesystem already holds the
        write (the acting leader).  The record is appended, the peer is
        mirrored synchronously over the relay fabric when alive, and the
        quorum state at ack time is recorded for the runtime checker.

        Returns ``True`` when the group committed the write.  ``False``
        means the executor died between its local apply and this hop:
        the write exists only on the dead member's disk, so the caller
        must *fail* the response — a success would land in the shared
        dedup table and be replayed to the retrying client by the new
        leader without ever reaching the group log (an ack below
        quorum).  Failing it makes the dedup entry abandon, and the
        retry re-executes on the acting leader.
        """
        server = self.server
        keyspace = server.shard_map.owner(request.file_id)
        group = self.groups[keyspace]
        while group.fenced:
            # Resize cutover in progress: hold the append (bounded — the
            # fence lifts as soon as the in-flight mirrors drain).  No
            # simulation yield separates this check from the append, so
            # nothing slips under a fence raised afterwards.
            yield self.env.timeout(self.ADOPT_TICK)
        if not self._alive(executor) or executor != group.leader:
            # Dead, demoted, or a resharding straggler (the file's
            # keyspace flipped between routing and this hop — the old
            # owner may even be the *backup* of the new group, and a
            # non-leader append would break RI1).  Fail the response:
            # the retry re-executes on the current leader.
            return False
        record = group.append_record(
            request.request_id, request.file_id, request.offset,
            request.payload or b"",
        )
        if self.observer is not None:
            self.observer.on_append(group, record, executor)
        group.mark_applied(executor, record.lsn)
        if self.observer is not None:
            self.observer.on_apply(group, record, executor, catchup=False)
        peer = group.backup if executor == group.primary else group.primary
        if (
            self._alive(peer)
            and (yield from self._mirror(executor, peer, request))
            # The pairing may have resized while the mirror was in
            # flight: the old backup took the bytes but left the group
            # — its copy is history, not quorum.
            and peer in group.members
        ):
            group.mark_applied(peer, record.lsn)
            self._mirrored.fetch_add(1)
            if self.observer is not None:
                self.observer.on_apply(group, record, peer, catchup=False)
        for joiner in group.joiners:
            # Resize in progress: keep the prospective backup current so
            # the backfill's prefix stays fixed.  Outside the quorum —
            # marked synced, not applied — so the runtime checker's
            # RI2/RI3 membership rules never see a joiner.
            if self._alive(joiner) and (
                yield from self._mirror(executor, joiner, request)
            ):
                group.mark_synced(joiner, (record.lsn,))
        applied = tuple(
            m for m in group.members if group.has_applied(m, record.lsn)
        )
        live = tuple(m for m in group.members if self._alive(m))
        commit = CommitRecord(
            request_id=request.request_id,
            keyspace=keyspace,
            lsn=record.lsn,
            epoch=record.epoch,
            applied=applied,
            live=live,
        )
        yield_point("replication.commit", self._key)
        with self._lock:
            self.commits[request.request_id] = commit
        if len(applied) < 2:
            self._solo_acks.fetch_add(1)
        if self.observer is not None:
            self.observer.on_commit(group, record, commit)
        return True

    def _mirror(
        self, executor: int, peer: int, request: IoRequest
    ) -> Generator:
        """One synchronous :func:`relay_write` to a member or joiner.

        False when the bytes did not land on a live peer: it died in
        flight (catch-up, or the backfill loop, re-replays the entry
        idempotently after recovery), or its device refused the write —
        which then stays below quorum, and the runtime checker flags
        its ack.
        """
        try:
            return (
                yield from relay_write(self.server, executor, peer, request)
            )
        except FileSystemError:
            self._mirror_failures.fetch_add(1)
            return False

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------
    def shard_killed(self, shard: "OffloadShard") -> None:
        """Deterministic leader handoff after ``kill_shard``.

        Runs synchronously inside ``kill_shard`` (no simulation yield
        between the alive flip and the re-election), so the backup
        serves the dead shard's keyspace from the very next event.
        """
        self._reelect(shard.index)

    def shard_recovered(self, shard: "OffloadShard") -> None:
        """Hand leadership back: no yield since catch-up's final check,
        so the rejoin is atomic with the alive flip."""
        self._reelect(shard.index)
        if self.observer is not None:
            for group in self._groups_of(shard.index):
                self.observer.on_rejoin(group, shard.index)

    def _reelect(self, index: int) -> None:
        for group in self._groups_of(index):
            old, new, changed = group.elect(self._alive)
            if changed:
                self._handoffs.fetch_add(1)
                if self.observer is not None:
                    alive = tuple(
                        m for m in group.members if self._alive(m)
                    )
                    self.observer.on_handoff(group, old, new, alive)

    def _groups_of(self, index: int):
        for keyspace in sorted(self.groups):
            group = self.groups[keyspace]
            if index in group.members:
                yield group

    # ------------------------------------------------------------------
    # anti-entropy catch-up
    # ------------------------------------------------------------------
    def shard_recovering(self, shard: "OffloadShard") -> Generator:
        """Replay the survivor's log into a recovered member.

        Runs inside ``recover_shard`` after the filesystem is rebuilt
        from raw disk and *before* the shard is marked alive (and before
        leadership moves back): every log entry the member missed is
        re-written (device-timed, in lsn order).  Writes keep landing on
        the acting leader while this runs; the loop re-checks the log
        length after every replay and returns with **no trailing
        yield**, so the caller's alive flip + rejoin happen atomically
        after the final check — there is no window for a write to slip
        past both catch-up and mirroring.
        """
        index = shard.index
        for group in self._groups_of(index):
            while True:
                lsn = group.next_unapplied(index)
                if lsn is None:
                    break
                record = group.record(lsn)
                yield from self.server.filesystems[index].write(
                    record.file_id, record.offset, record.payload
                )
                group.mark_applied(index, lsn)
                self._catchup_replays.fetch_add(1)
                if self.observer is not None:
                    self.observer.on_apply(
                        group, record, index, catchup=True
                    )

    # ------------------------------------------------------------------
    # elastic resize
    # ------------------------------------------------------------------
    def shard_added(self, shard: "OffloadShard") -> Generator:
        """Pair a freshly wired shard before any file flips to it.

        The clone is a byte-copy of shard 0's disk taken with no
        intervening yield: credit it with shard 0's applied prefixes so
        the resize backfill only replays the tail.  Then re-derive the
        (k, next-live-k) pairing: the new keyspace's group must exist
        (and the re-paired backup be synced) by cutover time.
        """
        self.seed_from_clone(shard.index, source=0)
        yield from self.resize()

    def shard_retired(self, shard: "OffloadShard") -> Generator:
        """After the last flip nothing routes to the drained keyspace:
        the pairing re-derives without it (device-timed backup sync)."""
        yield from self.resize()

    def seed_from_clone(self, member: int, source: int) -> None:
        """Credit a freshly cloned shard with ``source``'s applied
        prefixes.

        ``add_shard`` clones the new shard's namespace from an existing
        disk, so every log entry ``source`` had applied at the clone
        instant is already on the clone byte-for-byte — for each group
        ``source`` belongs to, the clone's synced watermark starts at
        ``source``'s applied watermark instead of zero, and the resize
        backfill shrinks to the in-flight tail.  The caller must not
        yield simulation time between the clone and this call.
        """
        for group in self._groups_of(source):
            mark = group.applied_watermark(source)
            if mark:
                group.mark_synced(member, range(0, mark))

    def resize(self) -> Generator:
        """Re-derive the backup pairing for the current live membership.

        Runs from :meth:`shard_added` (after the new shard is wired,
        *before* any keyspace flips to it) and :meth:`shard_retired`
        (after the drained shard's migration and tombstone).  The
        pairing is :meth:`_pairing`, the rule ``__init__`` uses, so a
        contiguous membership reproduces the original ``(k + 1) % N``
        groups exactly.

        Each changed group is resized in two steps: the prospective
        backup is *synced* (the log prefix it is missing is replayed
        into its filesystem, device-timed, while writes keep landing on
        the primary), then *adopted* with no simulation yield after the
        final sync check — the same no-dark-window discipline as
        :meth:`shard_recovering`.  RI1–RI5 hold throughout because the old
        backup stays in the group (still mirroring, still quorum) until
        the instant the new one is fully caught up.
        """
        backup_of = self._pairing()
        for keyspace in sorted(self.groups):
            if keyspace in backup_of:
                continue
            # The keyspace's owner drained: its files migrated away and
            # its group has nothing left to protect.
            yield_point("replication.resize", self._key)
            with self._lock:
                retired_group = self.groups.pop(keyspace)
            if self.observer is not None:
                self.observer.on_resize(
                    retired_group, retired_group.backup, None, 0
                )
        for member in backup_of:
            group = self.groups.get(member)
            if group is None:
                new_group = ReplicaGroup(
                    keyspace=member,
                    primary=member,
                    backup=backup_of[member],
                )
                yield_point("replication.resize", self._key)
                with self._lock:
                    self.groups[member] = new_group
                if self.observer is not None:
                    self.observer.on_resize(
                        new_group, None, backup_of[member], 0
                    )
                continue
            new_backup = backup_of[member]
            if group.backup == new_backup:
                continue
            old_backup = group.backup
            synced = yield from self._sync_member(group, new_backup)
            group.request_adoption(new_backup)
            if not group.try_adopt():
                # Mirrors are in flight: fence new appends for this
                # keyspace (a bounded latency blip) so the in-flight
                # set drains to zero — under saturation some append is
                # otherwise always mid-mirror and coverage never
                # completes.  The swap fires inside the mirror that
                # closes the last gap and lifts the fence itself.
                group.fence()
                last_mark = -1
                while group.backup != new_backup:
                    if group.leader != group.primary:
                        # Failover mid-cutover: abort, writes flow
                        # again under the old (still intact) pairing.
                        group.cancel_adoption()
                        raise RuntimeError(
                            f"group {group.keyspace}: resize aborted "
                            "by a failover mid-cutover"
                        )
                    yield self.env.timeout(self.ADOPT_TICK)
                    mark = group.synced_watermark(new_backup)
                    if mark == last_mark and self._alive(new_backup):
                        # Wedged (e.g. a mirror skipped while the
                        # joiner was dark): re-backfill the hole.
                        synced += yield from self._replay_window(
                            group, new_backup, len(group.log)
                        )
                        group.try_adopt()
                    last_mark = mark
            if self.observer is not None:
                self.observer.on_resize(group, old_backup, new_backup, synced)

    def _sync_member(self, group: ReplicaGroup, member: int) -> Generator:
        """Backfill ``group``'s log into a prospective backup.

        The member is registered as a *joiner* first, so every write
        appended from that instant mirrors to it through the ordinary
        write path — the backfill then replays the **fixed** prefix
        below the join point instead of chasing a log that grows faster
        than a sequential replay can drain (under sustained traffic
        that chase never converges).  Any lsn appended before the join
        registration is already in the log (appends precede mirrors),
        so prefix + live mirroring covers every entry.  Returns the
        number of log entries backfilled.
        """
        join_at = group.add_joiner(member)
        total = 0
        while True:
            mark = group.synced_watermark(member)
            if mark >= join_at:
                return total
            total += yield from self._replay_window(group, member, join_at)

    def _replay_window(
        self, group: ReplicaGroup, member: int, upto: int
    ) -> Generator:
        """Device-timed replay of log window ``[watermark, upto)`` into
        ``member``, coalesced to the latest record per ``(file_id,
        offset)`` — earlier versions are dead bytes.  Returns the
        number of log entries covered."""
        mark = group.synced_watermark(member)
        if mark >= upto:
            return 0
        latest: Dict[Tuple[int, int], WriteRecord] = {}
        for lsn in range(mark, upto):
            record = group.record(lsn)
            latest[(record.file_id, record.offset)] = record
        for record in sorted(latest.values(), key=lambda r: r.lsn):
            yield from self.server.filesystems[member].write(
                record.file_id, record.offset, record.payload
            )
            self._catchup_replays.fetch_add(1)
        group.mark_synced(member, range(mark, upto))
        return upto - mark
