"""Runtime overload invariants OL1–OL4 (DESIGN §15).

Following *Specification and Runtime Checking of Derecho* — the same
posture as RI1–RI5 in :mod:`repro.faults.durability` — overload safety
is expressed as invariants checked *while the system is overloaded*,
not asserted after the fact from aggregate counters:

* **OL1 — goodput floor.**  While a declared overload window is open
  (offered load ≥ 2× capacity, a flash crowd, a flood), acked goodput
  sampled per interval must stay above a floor derived from the
  measured peak (the acceptance bar: ≥ 80% of peak at 2× capacity).
  Goodput collapsing under overload *is* metastability; this invariant
  is the tripwire.
* **OL2 — tenant SLO.**  A flooding tenant must not push a compliant
  tenant's p99 latency past its declared SLO.  Checked over each
  compliant tenant's acks (flooders are exempt — they asked for it).
* **OL3 — bounded queues.**  Every QoS gate enqueue reports the
  tenant's queue depth; depth must never exceed the configured
  capacity.  Checked synchronously on the hot path.
* **OL4 — no acked request shed.**  A shed request whose id the dedup
  table has already *completed* would throttle an acked write — the
  client would believe an applied write was refused.  Checked
  synchronously at every shed.

The checker is both a **client observer** (``on_issue`` / ``on_ack`` /
``on_give_up``, the protocol every chaos client speaks) and the **QoS
gate observer** (``on_enqueue`` / ``on_shed`` / ``on_dispatch``).
Progress counters (``acks_seen``, ``sheds_seen``, ...) let a scenario
prove the checker actually witnessed overload — a run with zero
violations and zero sheds proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from ..core.client import percentile
from ..core.messages import IoRequest, IoResponse
from ..sim import Environment
from .durability import InvariantViolation

__all__ = ["OverloadReport", "OverloadInvariantChecker"]


@dataclass
class OverloadReport:
    """Outcome of an overload run: empty ``violations`` == pass."""

    violations: List[InvariantViolation] = field(default_factory=list)
    acks_seen: int = 0
    sheds_seen: int = 0
    enqueues_seen: int = 0
    dispatches_seen: int = 0
    goodput_samples: int = 0
    #: tenant -> measured p99 (seconds) over the run, SLO-audited
    #: tenants only.
    tenant_p99: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def assert_ok(self) -> None:
        if self.violations:
            lines = "\n".join(v.format() for v in self.violations[:20])
            raise AssertionError(
                f"{len(self.violations)} overload invariant "
                f"violation(s):\n{lines}"
            )


class OverloadInvariantChecker:
    """Live OL1–OL4 checking during overload and chaos runs.

    Wire it as the client observer *and* pass it to
    :meth:`~repro.topology.sharding.ShardedOffloadServer.enable_qos`;
    give it the deployment's dedup table via :meth:`attach_dedup` so
    OL4 has ground truth.  OL1 windows are opened around the overload
    phases of a scenario with :meth:`begin_overload_window` /
    :meth:`end_overload_window`.
    """

    def __init__(
        self,
        env: Environment,
        sample_interval: float = 1e-3,
        tenant_of=None,
    ) -> None:
        if sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        self.env = env
        self.sample_interval = sample_interval
        #: request -> tenant name; default derives from the request tag
        #: (the workload engine stamps each request with its tenant
        #: index via ``tag``).
        self._tenant_of = tenant_of or (lambda request: str(request.tag))
        self.violations: List[InvariantViolation] = []
        # progress counters — a clean report must also prove coverage
        self.acks_seen = 0
        self.sheds_seen = 0
        self.enqueues_seen = 0
        self.dispatches_seen = 0
        self.goodput_samples = 0
        self._dedup = None
        #: tenant -> declared p99 SLO (seconds); flooders are exempt.
        self._slos: Dict[str, float] = {}
        self._exempt: Dict[str, bool] = {}
        #: tenant -> first-issue time per request id (latency ground
        #: truth measured from *first* issue: what the user felt).
        self._first_issue: Dict[int, float] = {}
        self._issue_tenant: Dict[int, str] = {}
        self._latencies: Dict[str, List[float]] = {}
        self._acks_in_window = 0
        #: The open window (a fresh token per window), or ``None``.
        self._window: Optional[object] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_dedup(self, dedup) -> None:
        """Give OL4 the deployment's dedup table (ground truth for
        "was this id already acked server-side")."""
        self._dedup = dedup

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
        if request.request_id not in self._first_issue:
            self._first_issue[request.request_id] = self.env.now
            self._issue_tenant[request.request_id] = self._tenant_of(
                request
            )

    def on_ack(self, request: IoRequest, response: IoResponse) -> None:
        self.acks_seen += 1
        self._acks_in_window += 1
        issued = self._first_issue.pop(request.request_id, None)
        tenant = self._issue_tenant.pop(
            request.request_id, self._tenant_of(request)
        )
        if issued is not None:
            self._latencies.setdefault(tenant, []).append(
                self.env.now - issued
            )

    def on_give_up(self, request: IoRequest) -> None:
        self._first_issue.pop(request.request_id, None)
        self._issue_tenant.pop(request.request_id, None)

    # ------------------------------------------------------------------
    # QoS gate observer protocol (synchronous, hot path)
    # ------------------------------------------------------------------
    def on_enqueue(self, tenant: str, depth: int, capacity: int) -> None:
        self.enqueues_seen += 1
        if depth > capacity:
            # OL3: the bounded queue must actually be bounded.
            self._flag(
                "OL3",
                f"tenant {tenant} queue depth {depth} exceeds "
                f"capacity {capacity}",
            )

    def on_shed(
        self, request: IoRequest, tenant: str, reason: str
    ) -> None:
        self.sheds_seen += 1
        if self._dedup is not None:
            if self._dedup.cached(request.request_id) is not None:
                # OL4: this id already completed server-side — the shed
                # throttles a request the client is entitled to see
                # acked (the gate must replay, not refuse).
                self._flag(
                    "OL4",
                    f"request {request.request_id} (tenant {tenant}) "
                    f"shed ({reason}) after completion",
                )

    def on_dispatch(self, tenant: str, sojourn: float) -> None:
        self.dispatches_seen += 1

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
            yield self.env.timeout(self.sample_interval)
            if self._window is not window:
                return
            self.goodput_samples += 1
            goodput = self._acks_in_window / self.sample_interval
            if goodput < floor:
                # OL1: goodput under overload fell below the declared
                # floor — the metastability tripwire.
                self._flag(
                    "OL1",
                    f"goodput {goodput:.0f} IOPS below floor "
                    f"{floor:.0f} IOPS during overload window",
                )

    # ------------------------------------------------------------------
    # audit roll-up
    # ------------------------------------------------------------------
    def check(self) -> OverloadReport:
        """Fold OL2 over collected latencies and return the report.

        Call once the run is drained; the synchronous rules (OL1/OL3/
        OL4) have already contributed any violations as they happened.
        """
        report = OverloadReport(
            violations=list(self.violations),
            acks_seen=self.acks_seen,
            sheds_seen=self.sheds_seen,
            enqueues_seen=self.enqueues_seen,
            dispatches_seen=self.dispatches_seen,
            goodput_samples=self.goodput_samples,
        )
        for tenant in sorted(self._slos):
            slo = self._slos[tenant]
            latencies = sorted(self._latencies.get(tenant, []))
            p99 = percentile(latencies, 99)
            report.tenant_p99[tenant] = p99
            if self._exempt.get(tenant, False):
                continue
            if latencies and p99 > slo:
                report.violations.append(
                    InvariantViolation(
                        self.env.now,
                        "OL2",
                        f"tenant {tenant} p99 {p99 * 1e6:.0f}us exceeds "
                        f"SLO {slo * 1e6:.0f}us",
                    )
                )
        return report
