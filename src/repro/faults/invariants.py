"""One runtime invariant checker: Durability, RI1–RI5 and OL1–OL4.

:class:`InvariantChecker` judges a run with every invariant family that
applies to it.  It hears two streams: the client's (``observer=``, the
``on_issue`` / ``on_ack`` / ``on_give_up`` protocol) and the protocol
stream the replicator and the QoS gate emit on the environment
(:mod:`repro.topology.events`), which the checker subscribes to on
construction with one :meth:`InvariantChecker.observe`.  The rules
that need deployment state read it from the server given to
:meth:`InvariantChecker.attach` (``enable_replication(checker)`` calls
it; a QoS-only scenario calls it itself).  Following *Specification
and Runtime Checking of Derecho* (PAPERS.md), the protocol rules are
checked synchronously at each step, so a violation is stamped with the
simulated instant it happened, with the run still live.

**Durability** (post-run audit, :meth:`InvariantChecker.check`):

* *No acked write lost* — for every WRITE the client saw acknowledged,
  the bytes at (file, offset) on the owning shard's recovered
  filesystem must equal that write's payload.  When several acked
  writes hit the same offset, the latest acknowledgement wins; writes
  that were issued but never acknowledged are also admissible final
  contents (they may legitimately have been applied without their
  response surviving).  Chaos scenarios get the strict per-offset check
  by issuing unique offsets per request id, which is what
  ``benchmarks/test_chaos_recovery.py`` does.
* *No double-apply* — the deployment's :class:`~repro.core.dedup.
  RequestDedup` history must show zero second applications of the same
  write id.

**Replication** (the replicator's events):

* **RI1 append well-formedness** — log records are dense (lsn == index),
  carry the group's current epoch, and are appended by the acting
  leader.
* **RI2 log-prefix agreement** — each member's applied watermark is
  monotone and bounded by the log, and the bytes a member applied match
  the log record (unless a later record legitimately overwrote the
  range).
* **RI3 no-ack-before-quorum** — a write ack is only released once every
  live member of its group applied it (both members when both are
  alive; the survivor alone when one is dark).  Checked on the commit
  and again on the client-visible ack.
* **RI4 handoff determinism** — leadership changes go to the alive
  primary-first candidate and bump the epoch strictly monotonically.
* **RI5 catch-up before rejoin** — a recovering member's watermark
  equals the log length at the instant it rejoins.

**Overload** (the QoS gate's events, DESIGN §15):

* **OL1 goodput floor** — while a declared overload window is open,
  acked goodput sampled per interval must stay above the floor.
  Goodput collapsing under overload *is* metastability.
* **OL2 tenant SLO** — each compliant tenant's p99 latency, measured
  from first issue, stays within its declared SLO (flooders are
  measured but exempt).  Judged at audit time.
* **OL3 bounded queues** — every gate enqueue's depth is within the
  configured capacity.
* **OL4 no acked request shed** — a shed request whose id the dedup
  table has already completed would throttle an acked write.

Progress counters (``seen[Committed]``, ``seen[Shed]``, ... one per
event type, and ``acks_seen``) let a scenario prove the checker
witnessed the protocol and the overload: a run with zero violations and
zero sheds proves nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from ..core.dedup import RequestDedup
from ..core.messages import IoRequest, IoResponse, OpCode
from ..sim.stats import percentile
from ..topology.events import (
    Appended,
    Applied,
    Committed,
    Enqueued,
    LeaderHandoff,
    Rejoined,
    Resized,
    Shed,
)

__all__ = ["InvariantChecker", "InvariantReport", "InvariantViolation"]


@dataclass(frozen=True)
class InvariantViolation:
    """One invariant breach, stamped with sim time."""

    time: float
    rule: str  # "RI1" .. "RI5", "OL1" .. "OL4"
    detail: str

    def format(self) -> str:
        return f"[{self.time * 1e6:.2f}us] {self.rule}: {self.detail}"


@dataclass
class InvariantReport:
    """Audit outcome: no lost write, no double apply, no violation == pass."""

    verified_writes: int = 0
    acked_reads: int = 0
    double_applies: int = 0
    lost_writes: List[str] = field(default_factory=list)
    violations: List[InvariantViolation] = field(default_factory=list)
    acks_seen: int = 0
    #: Protocol events observed, by event type.
    seen: Counter = field(default_factory=Counter)
    goodput_samples: int = 0
    #: tenant -> measured p99 (seconds) over the run, SLO-audited
    #: tenants only.
    tenant_p99: Dict[str, float] = field(default_factory=dict)

    @property
    def invariant_violations(self) -> List[str]:
        return [violation.format() for violation in self.violations]

    @property
    def ok(self) -> bool:
        return (
            not self.lost_writes
            and self.double_applies == 0
            and not self.violations
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


def _below_quorum(commit) -> bool:
    """RI3's test: fewer members applied the write than its quorum —
    both when both were live, the lone survivor otherwise."""
    return len(commit.applied) < min(2, max(1, len(commit.live)))


class InvariantChecker:
    """Client observer, protocol-stream listener and post-run auditor.

    ``tenant_of`` maps a request to its tenant name for OL2 (default:
    the request tag, which the workload engine stamps with the tenant
    index).

    The ``on_ack`` contract: the client drivers (``RetryLoop``) call it
    once per request, for its first ok response; failures, throttles
    and late answers never reach it.  Direct callers may still deliver a
    duplicate: the first ack of a write wins (a duplicate carries no
    new ordering information, and restamping it would wrongly demand
    stale content at its offset) and is counted in ``duplicate_acks``.
    """

    #: OL1 goodput sample period (seconds).
    SAMPLE_INTERVAL = 1e-3

    def __init__(self, env, tenant_of=None) -> None:
        self.env = env
        self._tenant_of = tenant_of or (lambda request: str(request.tag))
        #: Set via :meth:`attach` (the ``enable_*`` calls do it).
        self.server = None
        self.violations: List[InvariantViolation] = []
        #: request_id -> (request, first-issue instant).
        self.issued: Dict[int, Tuple[IoRequest, float]] = {}
        #: request_id -> (request, ack order).  The stamp is a monotonic
        #: counter, deliberately not ``len(acked_writes)``: a duplicate
        #: delivery would reuse a stale length and could tie or exceed
        #: a later write's stamp, misordering latest-write-wins.
        self.acked_writes: Dict[int, Tuple[IoRequest, int]] = {}
        self._ack_seq = 0
        self.acked_reads = 0
        #: Write acks observed again for an already-recorded request id.
        self.duplicate_acks = 0
        # Progress counters: a clean verdict must also prove coverage.
        self.acks_seen = 0
        #: Protocol events observed, by event type.
        self.seen: Counter = Counter()
        self.goodput_samples = 0
        #: (keyspace, member) -> highest watermark observed (RI2).
        self._watermarks: Dict[Tuple[int, int], int] = {}
        #: keyspace -> highest epoch observed in a handoff (RI4).
        self._epochs: Dict[int, int] = {}
        #: tenant -> declared p99 SLO (seconds); flooders are exempt.
        self._slos: Dict[str, float] = {}
        self._exempt: Dict[str, bool] = {}
        self._latencies: Dict[str, List[float]] = {}
        self._acks_in_window = 0
        #: The open OL1 window (a fresh token per window), or ``None``.
        self._window: Optional[object] = None
        env.listeners.append(self.observe)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, server) -> None:
        """Give the rules that read deployment state their server: RI2
        its ``filesystems``, RI3 its ``replicator``'s commit records,
        OL4 its ``dedup`` table."""
        self.server = server

    def observe(self, event) -> None:
        """The protocol-stream listener: count ``event`` by type and
        judge it with its rule, synchronously at the step's instant."""
        kind = event.__class__
        self.seen[kind] += 1
        rule = self._RULES.get(kind)
        if rule is not None:
            rule(self, *event)

    def set_slo(
        self, tenant: str, p99: float, exempt: bool = False
    ) -> None:
        """Declare a tenant's p99 SLO; ``exempt`` marks a flooder
        (tracked but never held to the SLO)."""
        if p99 <= 0:
            raise ValueError("p99 SLO must be positive")
        self._slos[tenant] = p99
        self._exempt[tenant] = exempt

    def _flag(self, rule: str, detail: str) -> None:
        self.violations.append(
            InvariantViolation(self.env.now, rule, detail)
        )

    # ------------------------------------------------------------------
    # client observer protocol
    # ------------------------------------------------------------------
    def on_issue(self, request: IoRequest) -> None:
        if request.request_id not in self.issued:
            self.issued[request.request_id] = (request, self.env.now)

    def on_ack(self, request: IoRequest, response: IoResponse) -> None:
        self.acks_seen += 1
        if self._window is not None:
            self._acks_in_window += 1
        if self._slos:
            first = self.issued.get(request.request_id)
            tenant = self._tenant_of(request)
            if first is not None and tenant in self._slos:
                self._latencies.setdefault(tenant, []).append(
                    self.env.now - first[1]
                )
        if request.op is not OpCode.WRITE:
            self.acked_reads += 1
            return
        if request.request_id in self.acked_writes:
            self.duplicate_acks += 1
            return
        self.acked_writes[request.request_id] = (request, self._ack_seq)
        self._ack_seq += 1
        # RI3 on the client-visible ack itself.
        replicator = None if self.server is None else self.server.replicator
        if replicator is None:
            return
        commit = replicator.commits.get(request.request_id)
        if commit is None:
            self._flag(
                "RI3",
                f"write {request.request_id} acked with no commit "
                "record (ack released before the quorum hop)",
            )
        elif _below_quorum(commit):
            self._flag(
                "RI3",
                f"write {request.request_id} acked with "
                f"{len(commit.applied)} applied of {len(commit.live)} "
                "live members",
            )

    def on_give_up(self, request: IoRequest) -> None:
        """Nothing to record: a given-up write stays in ``issued``,
        because it may still have been applied."""

    # ------------------------------------------------------------------
    # the replicator's events
    # ------------------------------------------------------------------
    def _appended(self, group, record, executor: int) -> None:
        """RI1: dense lsn, current epoch, appended by the leader."""
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

    def _applied(self, group, record, member: int, catchup: bool) -> None:
        """RI2: watermark monotone and log-bounded, bytes match the log."""
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
        if self.server is None:
            return
        filesystem = self.server.filesystems[member]
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

    def _committed(self, group, record, commit) -> None:
        """RI3 (release side): the quorum held when the ack was freed."""
        if _below_quorum(commit):
            self._flag(
                "RI3",
                f"group {group.keyspace}: write {record.request_id} "
                f"committed with {len(commit.applied)} applied of "
                f"{len(commit.live)} live members",
            )

    def _handoff(
        self, group, old_leader: int, new_leader: int, alive
    ) -> None:
        """RI4: primary-first deterministic choice, strict epoch bump."""
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

    def _resized(
        self, group, old_backup, new_backup, synced: int
    ) -> None:
        """Elastic pairing change (sync-before-adopt, RI5's sibling).

        ``new_backup is None`` marks a retired keyspace's group being
        dropped; ``old_backup is None`` marks a fresh group for a newly
        added keyspace.  A backup *adoption* (both set) must only
        happen once the incoming member holds the entire log — the same
        no-dark-window rule RI5 enforces for rejoins.
        """
        if new_backup is None or old_backup is None:
            self._epochs[group.keyspace] = max(
                self._epochs.get(group.keyspace, 0), group.epoch
            )
            return
        # The swap is completion-triggered, so by the time this
        # event arrives new appends may already be mid-mirror — judge
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

    def _rejoined(self, group, member: int) -> None:
        """RI5: catch-up finished before the member rejoined."""
        mark = group.applied_watermark(member)
        if mark != len(group.log):
            self._flag(
                "RI5",
                f"group {group.keyspace}: shard {member} rejoined at "
                f"watermark {mark} with {len(group.log)} log entries",
            )

    # ------------------------------------------------------------------
    # the QoS gate's events (hot path; ``Dispatched`` is only counted)
    # ------------------------------------------------------------------
    def _enqueued(self, tenant: str, depth: int, capacity: int) -> None:
        """OL3: the bounded queue must actually be bounded."""
        if depth > capacity:
            self._flag(
                "OL3",
                f"tenant {tenant} queue depth {depth} exceeds "
                f"capacity {capacity}",
            )

    def _shed(
        self, request: IoRequest, tenant: str, reason: str
    ) -> None:
        """OL4: a shed of an id the dedup table already completed
        throttles a request the client is entitled to see acked (the
        gate must replay, not refuse)."""
        dedup = None if self.server is None else self.server.dedup
        if dedup is not None and dedup.cached(request.request_id) is not None:
            self._flag(
                "OL4",
                f"request {request.request_id} (tenant {tenant}) "
                f"shed ({reason}) after completion",
            )

    #: Event type -> its rule.
    _RULES = {
        Appended: _appended,
        Applied: _applied,
        Committed: _committed,
        LeaderHandoff: _handoff,
        Resized: _resized,
        Rejoined: _rejoined,
        Enqueued: _enqueued,
        Shed: _shed,
    }

    # ------------------------------------------------------------------
    # OL1: live goodput floor during a declared overload window
    # ------------------------------------------------------------------
    def begin_overload_window(self, min_goodput_iops: float) -> None:
        """Open an overload window: from now until
        :meth:`end_overload_window`, acked goodput per sample interval
        must stay >= ``min_goodput_iops``."""
        if min_goodput_iops <= 0:
            raise ValueError("min_goodput_iops must be positive")
        if self._window is not None:
            raise RuntimeError("an overload window is already open")
        self._window = window = object()
        self._acks_in_window = 0
        self.env.process(self._sample_goodput(window, min_goodput_iops))

    def end_overload_window(self) -> None:
        """Close the current overload window (stops OL1 sampling)."""
        self._window = None

    def _sample_goodput(self, window: object, floor: float) -> Generator:
        # The first interval is a grace period: the window typically
        # opens at the instant the flood starts, before any flood-era
        # ack could exist.  A sampler serves its own window only: one
        # reopened within an interval has a sampler of its own.
        while self._window is window:
            self._acks_in_window = 0
            yield self.env.now + self.SAMPLE_INTERVAL
            if self._window is not window:
                return
            self.goodput_samples += 1
            goodput = self._acks_in_window / self.SAMPLE_INTERVAL
            if goodput < floor:
                self._flag(
                    "OL1",
                    f"goodput {goodput:.0f} IOPS below floor "
                    f"{floor:.0f} IOPS during overload window",
                )

    # ------------------------------------------------------------------
    # post-run audit
    # ------------------------------------------------------------------
    def check(
        self, server=None, dedup: Optional[RequestDedup] = None
    ) -> InvariantReport:
        """Audit the drained run and return the one report.

        Audits final disk state against the acknowledgement history
        (``server`` lists its per-DPU ``filesystems``, a sharded one
        also the ``shard_map`` naming each file's owner; default: the
        attached server), reads ``dedup``'s double applies, and judges
        OL2 over the collected latencies.  The synchronous rules have
        already contributed their violations as they happened.
        """
        if server is None:
            server = self.server
        report = InvariantReport(
            acked_reads=self.acked_reads,
            violations=list(self.violations),
            acks_seen=self.acks_seen,
            seen=Counter(self.seen),
            goodput_samples=self.goodput_samples,
        )
        if dedup is not None:
            report.double_applies = dedup.double_applies
        self._audit_disk(server, report)
        for tenant in sorted(self._slos):
            slo = self._slos[tenant]
            latencies = sorted(self._latencies.get(tenant, []))
            p99 = percentile(latencies, 99)
            report.tenant_p99[tenant] = p99
            if latencies and p99 > slo and not self._exempt[tenant]:
                report.violations.append(
                    InvariantViolation(
                        self.env.now,
                        "OL2",
                        f"tenant {tenant} p99 {p99 * 1e6:.0f}us exceeds "
                        f"SLO {slo * 1e6:.0f}us",
                    )
                )
        return report

    def _audit_disk(self, server, report: InvariantReport) -> None:
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

    @staticmethod
    def _filesystem_for(server, file_id: int):
        shard_map = getattr(server, "shard_map", None)
        owner = 0 if shard_map is None else shard_map.owner(file_id)
        return server.filesystems[owner]
