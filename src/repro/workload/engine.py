"""The open-loop traffic engine: multi-tenant load against a server.

One simulation process per tenant walks that tenant's arrival stream
(:mod:`repro.workload.arrivals`) and fires each request the moment its
arrival time comes up — *without* waiting for earlier requests to
complete.  That open loop is the defining property: a saturated server
does not slow the offered load down, it just grows queues, times out
clients, and (without defenses) breeds retry storms.  Closed-loop
clients physically cannot produce that regime, which is why every
pre-overload bench missed it.

Each tenant sends through its own :class:`~repro.core.retry.RetryLoop`,
the loop every :class:`~repro.core.client.WorkloadClient` sends
through too — per-attempt timeout, exponential backoff with seeded
jitter, harder backoff after an explicit THROTTLED shed — and an
optional shared
:class:`~repro.core.retry.RetryBudget` caps the aggregate retry volume
across the whole population.  The engine keeps only the arrival
processes and its latency stamp: from a request's first issue.

Determinism: every draw (arrival gaps, file popularity, offsets,
backoff jitter) comes from per-tenant streams spawned off one seed, so
a run is replayable bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Generator, List, Optional, Sequence

from ..core.messages import IoRequest, OpCode
from ..core.retry import RetryLoop
from ..hardware.cpu import CpuPool
from ..hardware.specs import HOST_CPU
from ..net.packet import FiveTuple
from ..sim import Environment, SeededRng, ZipfGenerator
from ..sim.stats import percentile, slices
from .arrivals import FlashCrowd, RateCurve
from .tenants import TenantSpec

__all__ = ["OpenLoopTrafficEngine", "TenantOutcome", "TrafficResult"]


@dataclass
class TenantOutcome:
    """One tenant's measured slice of a traffic run (``acked``,
    ``failed``, ``throttled`` and ``retries`` are its retry loop's
    counters)."""

    name: str
    offered: int = 0
    acked: int = 0
    failed: int = 0
    throttled: int = 0
    retries: int = 0
    latencies: List[float] = field(default_factory=list, repr=False)


@dataclass
class TrafficResult:
    """Aggregate outcome of one engine run."""

    elapsed: float
    offered: int = 0
    acked: int = 0
    failed: int = 0
    throttled_responses: int = 0
    retries: int = 0
    budget_denied: int = 0
    duplicates: int = 0
    errors: int = 0
    #: Acks that arrived after the client had already given up.
    late_acks: int = 0
    ack_times: List[float] = field(default_factory=list, repr=False)
    tenants: Dict[str, TenantOutcome] = field(default_factory=dict)

    @property
    def amplification(self) -> float:
        """Messages sent per demanded request (1.0 = no retries)."""
        if self.offered == 0:
            return 0.0
        return (self.offered + self.retries) / self.offered

    def goodput_curve(self, bucket: float = 1e-3) -> List[float]:
        """Acked IOPS per ``bucket``-second window since run start."""
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        if not self.ack_times:
            return []
        end = bucket * (int(self.elapsed / bucket) + 1)
        return [
            count / bucket for count in slices(self.ack_times, 0.0, end, bucket)
        ]

    def percentile(self, p: float) -> float:
        """Population-wide latency percentile."""
        outcomes = self.tenants.values()
        merged = sorted(x for outcome in outcomes for x in outcome.latencies)
        return percentile(merged, p)

    @property
    def p99(self) -> float:
        return self.percentile(99)


class _TenantState:
    """Per-tenant runtime: RNG streams, flow identity, popularity, and
    the tenant's retry loop (built when the engine starts)."""

    __slots__ = ("spec", "rng", "flow", "zipf", "curve", "outcome", "loop")

    def __init__(
        self,
        spec: TenantSpec,
        rng: SeededRng,
        flow: FiveTuple,
        zipf: Optional[ZipfGenerator],
        curve: RateCurve,
    ) -> None:
        self.spec = spec
        self.rng = rng
        self.flow = flow
        self.zipf = zipf
        self.curve = curve
        self.outcome = TenantOutcome(spec.name)
        self.loop: Optional[RetryLoop] = None


class OpenLoopTrafficEngine:
    """Drive a tenant population against a storage server, open loop.

    ``events`` modulate *every* tenant's base rate (the flash crowd
    hits the whole population, as real ones do).  With a
    ``retry_policy`` each request is retried like a chaos client's;
    without one it is sent once, and its first answer acks or fails it.
    ``retry_budget`` (shared across all tenants) bounds the storm.
    ``observer`` speaks the client-observer protocol
    (``on_issue``/``on_ack``/``on_give_up``) — wire the
    :class:`~repro.faults.invariants.InvariantChecker` here.
    """

    def __init__(
        self,
        env: Environment,
        server,
        tenants: Sequence[TenantSpec],
        file_ids: Sequence[int],
        horizon: float,
        io_size: int = 1024,
        file_bytes: int = 1 << 20,
        seed: int = 11,
        events: Sequence[FlashCrowd] = (),
        retry_policy=None,
        retry_budget=None,
        observer=None,
        drain: float = 5e-3,
    ) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if not tenants:
            raise ValueError("need at least one tenant")
        # The index picks a tenant's flow and tags its requests.
        for position, spec in enumerate(tenants):
            if spec.index != position:
                raise ValueError(
                    f"tenant {spec.name!r} has index {spec.index}; "
                    f"indices must be 0..{len(tenants) - 1} in order"
                )
        if not file_ids:
            raise ValueError("need at least one file id")
        self.env = env
        self.server = server
        self.horizon = horizon
        self.io_size = io_size
        self.file_bytes = file_bytes
        self.drain = drain
        self.retry_policy = retry_policy
        self.retry_budget = retry_budget
        self.observer = observer
        self.rng = SeededRng(seed)
        self.client_pool = CpuPool(
            env, HOST_CPU, name="traffic-engine", side="client"
        )
        self._file_ids = list(file_ids)
        self._slots = max(1, file_bytes // io_size)
        self._next_id = 1
        self._started = False
        self._start_time = 0.0
        self.ack_times: List[float] = []
        self._flow_tenants: Dict[object, str] = {}
        self._states = [self._build_state(spec, events) for spec in tenants]

    def _build_state(
        self, spec: TenantSpec, events: Sequence[FlashCrowd]
    ) -> _TenantState:
        rng = self.rng.spawn(spec.name)
        # One flow per tenant, unique endpoint: the QoS gate classifies
        # tenants by client endpoint, and RSS spreads them over shards.
        index = spec.index
        flow = FiveTuple(
            f"10.{(index >> 8) & 255}.{index & 255}.2",
            40_000 + (index % 20_000),
            "10.0.0.1",
            5000,
        )
        self._flow_tenants[(flow.client_ip, flow.client_port)] = spec.name
        zipf = None
        if spec.ZIPF_THETA > 0 and len(self._file_ids) > 1:
            zipf = ZipfGenerator(
                len(self._file_ids), theta=spec.ZIPF_THETA, rng=rng
            )
        curve = RateCurve(spec.rate, events=events)
        return _TenantState(spec, rng, flow, zipf, curve)

    # ------------------------------------------------------------------
    # tenant classification (for the QoS gate)
    # ------------------------------------------------------------------
    def tenant_for_flow(self, flow: FiveTuple) -> str:
        """Flow → tenant name; pass as ``QosConfig.tenant_of``."""
        return self._flow_tenants.get(
            (flow.client_ip, flow.client_port),
            f"{flow.client_ip}:{flow.client_port}",
        )

    # ------------------------------------------------------------------
    # request generation
    # ------------------------------------------------------------------
    def _make_request(self, state: _TenantState) -> IoRequest:
        spec = state.spec
        rng = state.rng
        if state.zipf is not None:
            # Per-tenant rotation: every tenant is Zipf-skewed, but
            # their hottest files differ, so population heat spreads.
            index = (state.zipf.draw() + spec.index) % len(self._file_ids)
        else:
            index = rng.randrange(len(self._file_ids))
        file_id = self._file_ids[index]
        offset = rng.randrange(self._slots) * self.io_size
        request_id = self._next_id
        self._next_id += 1
        if rng.random() < spec.READ_FRACTION:
            return IoRequest(
                OpCode.READ,
                request_id,
                file_id,
                offset,
                self.io_size,
                tag=spec.index,
            )
        return IoRequest(
            OpCode.WRITE,
            request_id,
            file_id,
            offset,
            self.io_size,
            bytes(self.io_size),
            tag=spec.index,
        )

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn all tenant processes (for callers that drive
        ``env.run`` themselves, e.g. to inject faults mid-run)."""
        if self._started:
            raise RuntimeError("engine already started")
        self._started = True
        self._start_time = self.env.now
        for state in self._states:
            state.loop = RetryLoop(
                self.env, self.server, self.client_pool, self.retry_policy,
                state.rng, partial(self._on_ack, state.outcome),
                self.retry_budget, self.observer,
            )
            self.env.process(self._tenant_loop(state))

    def run(self) -> TrafficResult:
        """Start, simulate through horizon + drain, and report."""
        self.start()
        self.env.run(
            until=self.env.timeout(self.horizon + self.drain)
        )
        return self.results()

    def results(self) -> TrafficResult:
        states = self._states

        def total(counter: str) -> int:
            return sum(getattr(state.loop, counter) for state in states)

        result = TrafficResult(
            elapsed=self.env.now - self._start_time,
            offered=sum(state.outcome.offered for state in states),
            acked=total("acked"),
            failed=total("failed"),
            throttled_responses=total("throttled"),
            retries=total("retries"),
            budget_denied=total("budget_denied"),
            duplicates=total("duplicates"),
            errors=total("errors"),
            late_acks=total("late_acks"),
            ack_times=list(self.ack_times),
        )
        for state in states:
            outcome, loop = state.outcome, state.loop
            outcome.acked = loop.acked
            outcome.failed = loop.failed
            outcome.throttled = loop.throttled
            outcome.retries = loop.retries
            result.tenants[state.spec.name] = outcome
        return result

    def _tenant_loop(self, state: _TenantState) -> Generator:
        start = self._start_time
        arrivals = state.spec.arrivals.arrivals(
            state.rng.spawn("arrivals"), state.curve, self.horizon
        )
        for t in arrivals:
            gap = start + t - self.env.now
            if gap > 0:
                yield self.env.now + gap
            request = self._make_request(state)
            state.outcome.offered += 1
            # Open loop: the arrival clock never waits for the delivery
            # (or its retries).
            state.loop.send(state.flow, [request])

    def _on_ack(
        self, outcome: TenantOutcome, issued: float, sent: float
    ) -> None:
        now = self.env.now
        # Latency from the first issue: what the tenant waited.
        outcome.latencies.append(now - issued)
        self.ack_times.append(now - self._start_time)
