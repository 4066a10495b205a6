"""Durability invariants: post-run audit plus a runtime protocol checker.

:class:`DurabilityChecker` rides the client as an observer (``on_issue``
/ ``on_ack``) and, once the simulation drains, audits the final on-disk
state against the acknowledgement history:

* **No acked write lost** — for every WRITE the client saw acknowledged,
  the bytes at (file, offset) on the owning shard's recovered filesystem
  must equal that write's payload.  When several acked writes hit the
  same offset, the latest acknowledgement wins; writes that were issued
  later but never acknowledged are also admissible final contents (they
  may legitimately have been applied without their response surviving).
* **No double-apply** — the deployment's :class:`~repro.core.dedup.
  RequestDedup` history must show zero second applications of the same
  write id.

:class:`ReplicationInvariantChecker` extends the audit into a
Derecho-style *runtime* checker (PAPERS.md: *Specification and Runtime
Checking of Derecho*): it receives a synchronous callback at every
replication protocol step and verifies the invariants while chaos runs,
not post-hoc —

* **RI1 append well-formedness** — log records are dense (lsn == index),
  carry the group's current epoch, and are appended by the acting
  leader.
* **RI2 log-prefix agreement** — each member's applied watermark is
  monotone and bounded by the log, and the bytes a member applied match
  the log record (unless a later record legitimately overwrote the
  range).
* **RI3 no-ack-before-quorum** — a write ack is only released once every
  live member of its group applied it (both members when both are
  alive; the survivor alone when one is dark).
* **RI4 handoff determinism** — leadership changes go to the alive
  primary-first candidate and bump the epoch strictly monotonically.
* **RI5 catch-up before rejoin** — a recovering member's watermark
  equals the log length at the instant it rejoins.

Chaos scenarios that want the strict per-offset check (one writer per
offset) get it for free by issuing unique offsets per request id, which
is what ``benchmarks/test_chaos_recovery.py`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.dedup import RequestDedup
from ..core.messages import IoRequest, IoResponse, OpCode

__all__ = [
    "DurabilityChecker",
    "DurabilityReport",
    "InvariantViolation",
    "ReplicationInvariantChecker",
]


@dataclass(frozen=True)
class InvariantViolation:
    """One runtime protocol invariant breach, stamped with sim time."""

    time: float
    rule: str  # "RI1" .. "RI5"
    detail: str

    def format(self) -> str:
        return f"[{self.time * 1e6:.2f}us] {self.rule}: {self.detail}"


@dataclass
class DurabilityReport:
    """Audit outcome: empty ``lost_writes`` and zero doubles == pass.

    Runs under a :class:`ReplicationInvariantChecker` additionally fold
    the runtime protocol violations into ``ok``.
    """

    verified_writes: int = 0
    acked_reads: int = 0
    double_applies: int = 0
    lost_writes: List[str] = field(default_factory=list)
    invariant_violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            not self.lost_writes
            and self.double_applies == 0
            and not self.invariant_violations
        )

    def assert_ok(self) -> None:
        if not self.ok:
            problems = list(self.lost_writes)
            if self.double_applies:
                problems.append(
                    f"{self.double_applies} write(s) applied twice"
                )
            problems.extend(self.invariant_violations)
            raise AssertionError(
                "durability violated:\n" + "\n".join(problems)
            )


class DurabilityChecker:
    """Client observer + post-run auditor for chaos scenarios."""

    def __init__(self) -> None:
        self._issue_seq = 0
        #: Monotonic ack stamp.  Deliberately NOT ``len(acked_writes)``:
        #: a duplicated delivery of an already-recorded ack (a NIC dup
        #: window, or a dedup replay racing the original) would reuse a
        #: stale length and could tie — or even *exceed* — a later
        #: write's stamp, misordering the latest-write-wins audit.
        self._ack_seq = 0
        #: request_id -> (request, issue order)
        self.issued: Dict[int, Tuple[IoRequest, int]] = {}
        #: request_id -> (request, ack order)
        self.acked_writes: Dict[int, Tuple[IoRequest, int]] = {}
        self.acked_reads = 0
        self.failed_requests = 0
        #: Write acks observed again for an already-recorded request id.
        self.duplicate_acks = 0

    # ------------------------------------------------------------------
    # client observer protocol
    # ------------------------------------------------------------------
    def on_issue(self, request: IoRequest) -> None:
        if request.request_id not in self.issued:
            self.issued[request.request_id] = (request, self._issue_seq)
            self._issue_seq += 1

    def on_ack(self, request: IoRequest, response: IoResponse) -> None:
        if not response.ok:
            self.failed_requests += 1
            return
        if request.op is OpCode.WRITE:
            if request.request_id in self.acked_writes:
                # First ack wins: a duplicate delivery carries no new
                # ordering information, and restamping it would wrongly
                # demand stale content at its offset.
                self.duplicate_acks += 1
                return
            self.acked_writes[request.request_id] = (
                request,
                self._ack_seq,
            )
            self._ack_seq += 1
        else:
            self.acked_reads += 1

    def on_give_up(self, request: IoRequest) -> None:
        self.failed_requests += 1

    # ------------------------------------------------------------------
    # post-run audit
    # ------------------------------------------------------------------
    def check(
        self, server, dedup: Optional[RequestDedup] = None
    ) -> DurabilityReport:
        """Audit final disk state against the acknowledgement history.

        ``server`` lists its per-DPU ``filesystems``; a sharded one also
        exposes the ``shard_map`` that names each file's owner.
        """
        report = DurabilityReport(acked_reads=self.acked_reads)
        if dedup is not None:
            report.double_applies = dedup.double_applies
        # Latest acked write per (file, offset) is the required content.
        latest: Dict[Tuple[int, int], Tuple[IoRequest, int]] = {}
        for request, ack_seq in self.acked_writes.values():
            key = (request.file_id, request.offset)
            if key not in latest or ack_seq > latest[key][1]:
                latest[key] = (request, ack_seq)
        for (file_id, offset), (request, _seq) in sorted(latest.items()):
            filesystem = self._filesystem_for(server, file_id)
            found = filesystem.read_sync(file_id, offset, request.size)
            if found == request.payload:
                report.verified_writes += 1
                continue
            # An unacked overwrite of the same range may have been
            # applied without its response surviving the run.
            admissible = [
                issued.payload
                for issued, _ in self.issued.values()
                if issued.op is OpCode.WRITE
                and issued.file_id == file_id
                and issued.offset == offset
                and issued.request_id not in self.acked_writes
            ]
            if found in admissible:
                report.verified_writes += 1
                continue
            report.lost_writes.append(
                f"file {file_id} offset {offset}: acked write "
                f"{request.request_id} not found on disk"
            )
        return report

    @staticmethod
    def _filesystem_for(server, file_id: int):
        shard_map = getattr(server, "shard_map", None)
        owner = 0 if shard_map is None else shard_map.owner(file_id)
        return server.filesystems[owner]


def _below_quorum(commit) -> bool:
    """RI3's test: fewer members applied the write than its quorum —
    both when both were live, the lone survivor otherwise."""
    return len(commit.applied) < min(2, max(1, len(commit.live)))


class ReplicationInvariantChecker(DurabilityChecker):
    """Runtime checker for replicated shard groups (RI1–RI5).

    Doubles as the client observer (inherited ``on_issue``/``on_ack``,
    with ``on_ack`` additionally enforcing RI3 against the replicator's
    commit records) and as the :class:`~repro.topology.replication.
    ShardReplicator` observer — the replicator invokes the ``on_*``
    protocol callbacks synchronously at each step, so a violated
    invariant is caught at the simulated instant it happens, with the
    run still live.  ``check()`` folds any violations into the final
    :class:`DurabilityReport`.
    """

    def __init__(self, env) -> None:
        super().__init__()
        self.env = env
        #: Set via :meth:`attach` (``enable_replication`` does it).
        self.replicator = None
        self.violations: List[InvariantViolation] = []
        # Progress counters: a run that reports "no violations" must
        # also prove the checker actually saw the protocol run.
        self.appends_seen = 0
        self.applies_seen = 0
        self.commits_seen = 0
        self.handoffs_seen = 0
        self.rejoins_seen = 0
        self.resizes_seen = 0
        #: (keyspace, member) -> highest watermark observed (RI2).
        self._watermarks: Dict[Tuple[int, int], int] = {}
        #: keyspace -> highest epoch observed in a handoff (RI4).
        self._epochs: Dict[int, int] = {}

    def attach(self, replicator) -> None:
        self.replicator = replicator

    def _flag(self, rule: str, detail: str) -> None:
        self.violations.append(
            InvariantViolation(self.env.now, rule, detail)
        )

    # ------------------------------------------------------------------
    # replicator observer protocol (called synchronously per step)
    # ------------------------------------------------------------------
    def on_append(self, group, record, executor: int) -> None:
        """RI1: dense lsn, current epoch, appended by the leader."""
        self.appends_seen += 1
        if record.lsn != len(group.log) - 1 or (
            group.log[record.lsn] is not record
        ):
            self._flag(
                "RI1",
                f"group {group.keyspace}: non-dense append "
                f"({record.describe()}, log length {len(group.log)})",
            )
        if record.epoch != group.epoch:
            self._flag(
                "RI1",
                f"group {group.keyspace}: append carries epoch "
                f"{record.epoch} but the group is at {group.epoch}",
            )
        if executor != group.leader:
            self._flag(
                "RI1",
                f"group {group.keyspace}: shard {executor} appended "
                f"while shard {group.leader} leads",
            )

    def on_apply(self, group, record, member: int, catchup: bool) -> None:
        """RI2: watermark monotone and log-bounded, bytes match the log."""
        self.applies_seen += 1
        if member not in group.members:
            self._flag(
                "RI2",
                f"group {group.keyspace}: non-member shard {member} "
                f"applied {record.describe()}",
            )
            return
        mark = group.applied_watermark(member)
        key = (group.keyspace, member)
        if mark < self._watermarks.get(key, 0) or mark > len(group.log):
            self._flag(
                "RI2",
                f"group {group.keyspace}: shard {member} watermark "
                f"{mark} regressed or passed the log "
                f"(last {self._watermarks.get(key, 0)}, "
                f"log length {len(group.log)})",
            )
        self._watermarks[key] = max(self._watermarks.get(key, 0), mark)
        if self.replicator is None:
            return
        filesystem = self.replicator.server.filesystems[member]
        found = filesystem.read_sync(
            record.file_id, record.offset, record.size
        )
        if found != record.payload and not any(
            later.lsn > record.lsn
            and later.file_id == record.file_id
            and later.offset == record.offset
            for later in group.log
        ):
            self._flag(
                "RI2",
                f"group {group.keyspace}: shard {member} content "
                f"diverges from the log at {record.describe()}"
                + (" (during catch-up)" if catchup else ""),
            )

    def on_commit(self, group, record, commit) -> None:
        """RI3 (release side): the quorum held when the ack was freed."""
        self.commits_seen += 1
        if _below_quorum(commit):
            self._flag(
                "RI3",
                f"group {group.keyspace}: write {record.request_id} "
                f"committed with {len(commit.applied)} applied of "
                f"{len(commit.live)} live members",
            )

    def on_handoff(
        self, group, old_leader: int, new_leader: int, alive
    ) -> None:
        """RI4: primary-first deterministic choice, strict epoch bump."""
        self.handoffs_seen += 1
        if group.primary in alive:
            expected = group.primary
        elif group.backup in alive:
            expected = group.backup
        else:
            expected = old_leader
        if new_leader != expected:
            self._flag(
                "RI4",
                f"group {group.keyspace}: handoff chose shard "
                f"{new_leader}, deterministic choice is {expected} "
                f"(alive={list(alive)})",
            )
        last_epoch = self._epochs.get(group.keyspace, 0)
        if group.epoch <= last_epoch:
            self._flag(
                "RI4",
                f"group {group.keyspace}: epoch {group.epoch} did not "
                f"advance past {last_epoch} on handoff",
            )
        self._epochs[group.keyspace] = group.epoch

    def on_resize(
        self, group, old_backup, new_backup, synced: int
    ) -> None:
        """Elastic pairing change (sync-before-adopt, RI5's sibling).

        ``new_backup is None`` marks a retired keyspace's group being
        dropped; ``old_backup is None`` marks a fresh group for a newly
        added keyspace.  A backup *adoption* (both set) must only
        happen once the incoming member holds the entire log — the same
        no-dark-window rule RI5 enforces for rejoins.
        """
        self.resizes_seen += 1
        if new_backup is None or old_backup is None:
            self._epochs[group.keyspace] = max(
                self._epochs.get(group.keyspace, 0), group.epoch
            )
            return
        # The swap is completion-triggered, so by the time this
        # callback runs new appends may already be mid-mirror — judge
        # coverage by the evidence captured at the swap instant.
        adoption = group.last_adoption
        if adoption is None:
            self._flag(
                "RI5",
                f"group {group.keyspace}: resize reported backup "
                f"{new_backup} adopted but no swap was recorded",
            )
            return
        member, mark, log_len = adoption
        if member != new_backup or mark < log_len:
            self._flag(
                "RI5",
                f"group {group.keyspace}: backup {member} adopted at "
                f"watermark {mark} with {log_len} log entries",
            )
        # Adoption is a view change: fold the new epoch and watermark
        # into the RI2/RI4 baselines so the next handoff/apply is
        # judged against the post-resize state.
        key = (group.keyspace, new_backup)
        self._watermarks[key] = max(self._watermarks.get(key, 0), mark)
        self._epochs[group.keyspace] = max(
            self._epochs.get(group.keyspace, 0), group.epoch
        )

    def on_rejoin(self, group, member: int) -> None:
        """RI5: catch-up finished before the member rejoined."""
        self.rejoins_seen += 1
        mark = group.applied_watermark(member)
        if mark != len(group.log):
            self._flag(
                "RI5",
                f"group {group.keyspace}: shard {member} rejoined at "
                f"watermark {mark} with {len(group.log)} log entries",
            )

    # ------------------------------------------------------------------
    # client observer: RI3 on the ack itself
    # ------------------------------------------------------------------
    def on_ack(self, request: IoRequest, response: IoResponse) -> None:
        super().on_ack(request, response)
        if not response.ok or request.op is not OpCode.WRITE:
            return
        if self.replicator is None:
            return
        commit = self.replicator.commits.get(request.request_id)
        if commit is None:
            self._flag(
                "RI3",
                f"write {request.request_id} acked with no commit "
                "record (ack released before the quorum hop)",
            )
            return
        if _below_quorum(commit):
            self._flag(
                "RI3",
                f"write {request.request_id} acked with "
                f"{len(commit.applied)} applied of {len(commit.live)} "
                "live members",
            )

    # ------------------------------------------------------------------
    # post-run audit
    # ------------------------------------------------------------------
    def check(
        self, server, dedup: Optional[RequestDedup] = None
    ) -> DurabilityReport:
        report = super().check(server, dedup=dedup)
        report.invariant_violations = [
            violation.format() for violation in self.violations
        ]
        return report
