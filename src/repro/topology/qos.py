"""Datapath QoS: per-tenant admission, bounded queues, and DRR dispatch.

The repo's one deficit-round-robin scheduler, on the real sharded
datapath (DESIGN §15).  The gate interposes between wire ingress and
shard steering as an opt-in topology stage (:meth:`~repro.topology.
sharding.ShardedOffloadServer.enable_qos` makes it the pipeline's
steering entry), and applies four overload defenses in order:

1. **Admission control** — a token bucket per tenant plus one global
   bucket.  A request that finds no token is shed *immediately* with an
   explicit THROTTLED response, before it costs a single director-core
   cycle.
2. **Bounded per-tenant queues** — an admitted message joins its
   tenant's queue; on overflow the *oldest* entry is dropped from the
   front (the newest request is the one most likely still inside its
   client's patience window).
3. **Deadline-aware shedding** — CoDel-style: a message whose queue
   sojourn exceeds ``sojourn_target`` at dispatch time is shed rather
   than served, so the server never burns capacity on work the client
   has already timed out on.
4. **Weighted fair dispatch** — deficit round robin over the tenant
   queues, byte-costed, feeding a bounded in-dispatch window so backlog
   accumulates *here* (where it is shed fairly) rather than invisibly
   inside the director cores.

Every shed is answered, never silent: clients see
:class:`~repro.core.messages.IoResponse` with ``throttled=True`` and
back off (retry-circuit cooperation).  A shed request whose id is
already completed in the dedup table is *replayed* instead — invariant
OL4 (no acked request is ever shed) holds by construction and is
double-checked live by the
:class:`~repro.faults.invariants.InvariantChecker`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    ClassVar,
    Deque,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.messages import IoRequest, IoResponse
from ..net.packet import FiveTuple
from ..sim import Environment, Event, Store
from .stages import Stage, StageKind

__all__ = ["TokenBucket", "QosConfig", "TenantQosGate"]


class TokenBucket:
    """Lazy-refill token bucket on the simulation clock.

    Refill is computed from elapsed sim time on access, so an idle
    bucket costs zero scheduled events.
    """

    def __init__(self, env: Environment, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.env = env
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = self.burst
        self._stamp = env.now

    def _refill(self) -> None:
        now = self.env.now
        if now > self._stamp:
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def try_take(self) -> bool:
        """Spend one token if available; never blocks."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


def flow_tenant(flow: FiveTuple) -> str:
    """Default tenant classifier: one tenant per client endpoint."""
    return f"{flow.client_ip}:{flow.client_port}"


@dataclass
class QosConfig:
    """Knobs for the tenant QoS gate."""

    #: DRR quantum added to a backlogged tenant's deficit each round.
    QUANTUM_BYTES = 8192.0
    #: Per-tenant bounded queue length (messages); overflow drops the
    #: oldest entry from the front.
    queue_capacity: int = 64
    #: Messages allowed in dispatch concurrently.  This window is what
    #: makes backlog visible to the gate: past it, arrivals queue here
    #: (and are shed fairly) instead of deep inside the director cores.
    max_inflight: int = 64
    #: Shed a message whose queue sojourn exceeds this at dispatch time
    #: (None disables deadline shedding).
    sojourn_target: Optional[float] = 2e-3
    #: Per-tenant admission rate (requests/sec; None = no tenant
    #: buckets), per-tenant overrides of it, and the bucket burst.
    TENANT_RATE: ClassVar[Optional[float]] = None
    TENANT_RATES: ClassVar[Dict[str, float]] = {}
    TENANT_BURST = 64.0
    #: Global admission rate across all tenants (requests/sec; None =
    #: no global bucket) and bucket burst.
    global_rate: Optional[float] = None
    global_burst: float = 256.0
    #: DRR weight per tenant name; absent tenants get DEFAULT_WEIGHT.
    weights: Dict[str, float] = field(default_factory=dict)
    DEFAULT_WEIGHT = 1.0
    #: Flow → tenant name classifier.
    tenant_of: Callable[[FiveTuple], str] = flow_tenant

    def __post_init__(self) -> None:
        if self.QUANTUM_BYTES <= 0:
            raise ValueError("QUANTUM_BYTES must be positive")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.sojourn_target is not None and self.sojourn_target <= 0:
            raise ValueError("sojourn_target must be positive")
        for tenant, weight in self.weights.items():
            if weight <= 0:
                raise ValueError(f"weight for {tenant!r} must be positive")
        # The token buckets are built lazily, on a tenant's first
        # message: check their settings here, not mid-run.
        rates = [self.TENANT_RATE, self.global_rate, *self.TENANT_RATES.values()]
        if any(rate is not None and rate <= 0 for rate in rates):
            raise ValueError(
                "TENANT_RATE, TENANT_RATES and global_rate must be positive"
            )
        if self.TENANT_BURST < 1 or self.global_burst < 1:
            raise ValueError("TENANT_BURST and global_burst must be >= 1")


@dataclass
class TenantQueueStats:
    """Per-tenant gate accounting (read by benches and invariants)."""

    submitted: int = 0
    admitted: int = 0
    dispatched: int = 0
    bytes_dispatched: int = 0
    shed_admission: int = 0
    shed_queue_full: int = 0
    shed_deadline: int = 0
    replayed: int = 0
    max_depth: int = 0

    @property
    def shed(self) -> int:
        return (
            self.shed_admission + self.shed_queue_full + self.shed_deadline
        )


class _TenantState:
    """One tenant's queue, deficit, and admission bucket."""

    __slots__ = ("name", "weight", "queue", "deficit", "bucket", "stats")

    def __init__(
        self,
        name: str,
        weight: float,
        bucket: Optional[TokenBucket],
    ) -> None:
        self.name = name
        self.weight = weight
        #: (flow, requests, respond, enqueue time)
        self.queue: Deque[Tuple[FiveTuple, List[IoRequest], Callable, float]]
        self.queue = deque()
        self.deficit = 0.0
        self.bucket = bucket
        self.stats = TenantQueueStats()


class TenantQosGate(Stage):
    """The admission → queue → shed → DRR-dispatch pipeline stage.

    ``service`` is the downstream steering entry point
    (:meth:`~repro.topology.sharding.ShardedSteering.steer`);
    ``dedup_source`` returns the deployment's live dedup table (or
    None) so sheds of already-completed retries replay instead of
    throttling; ``observer`` (an
    :class:`~repro.faults.invariants.InvariantChecker`) receives
    every enqueue, shed, and dispatch synchronously.
    """

    kind = StageKind.STEERING

    def __init__(
        self,
        env: Environment,
        config: QosConfig,
        service: Callable[
            [FiveTuple, Sequence[IoRequest], Callable], Generator
        ],
        dedup_source: Optional[Callable[[], object]] = None,
        observer=None,
    ) -> None:
        super().__init__("tenant-qos")
        self.env = env
        self.config = config
        self._service = service
        self._dedup_source = dedup_source
        self.observer = observer
        self._states: Dict[str, _TenantState] = {}
        #: Round-robin order: first-seen tenant order, stable per seed.
        self._order: List[str] = []
        self._global_bucket: Optional[TokenBucket] = None
        if config.global_rate is not None:
            self._global_bucket = TokenBucket(
                env, config.global_rate, config.global_burst
            )
        self._backlog = 0  # queued messages across tenants
        self._inflight = 0  # messages handed to steering, not done
        self._window_waiters: Deque[Event] = deque()
        # capacity=1: intake pokes the dispatcher, extra pokes coalesce.
        self._wakeup = Store(env, capacity=1)
        env.process(self._dispatch_loop())

    # ------------------------------------------------------------------
    # tenant state
    # ------------------------------------------------------------------
    def _state(self, tenant: str) -> _TenantState:
        state = self._states.get(tenant)
        if state is None:
            config = self.config
            bucket = None
            rate = config.TENANT_RATES.get(tenant, config.TENANT_RATE)
            if rate is not None:
                bucket = TokenBucket(self.env, rate, config.TENANT_BURST)
            state = _TenantState(
                tenant,
                config.weights.get(tenant, QosConfig.DEFAULT_WEIGHT),
                bucket,
            )
            self._states[tenant] = state
            self._order.append(tenant)
        return state

    @property
    def tenants(self) -> List[str]:
        """Tenants seen so far, in first-arrival order."""
        return list(self._order)

    @property
    def totals(self) -> TenantQueueStats:
        """Gate-wide accounting, summed over tenants."""
        total = TenantQueueStats()
        for tenant in self._order:
            stats = self._states[tenant].stats
            total.submitted += stats.submitted
            total.admitted += stats.admitted
            total.dispatched += stats.dispatched
            total.bytes_dispatched += stats.bytes_dispatched
            total.shed_admission += stats.shed_admission
            total.shed_queue_full += stats.shed_queue_full
            total.shed_deadline += stats.shed_deadline
            total.replayed += stats.replayed
            total.max_depth = max(total.max_depth, stats.max_depth)
        return total

    # ------------------------------------------------------------------
    # intake (synchronous: the pipeline's steering entry never blocks,
    # so ingress sees backpressure as responses, not queueing)
    # ------------------------------------------------------------------
    def steer(
        self,
        flow: FiveTuple,
        requests: Sequence[IoRequest],
        respond: Callable,
    ) -> Generator:
        self.intake(flow, requests, respond)
        yield from ()

    def intake(
        self,
        flow: FiveTuple,
        requests: Sequence[IoRequest],
        respond: Callable,
    ) -> None:
        """Admit, queue, or shed one client message.  Never blocks."""
        tenant = self.config.tenant_of(flow)
        state = self._state(tenant)
        stats = state.stats
        stats.submitted += len(requests)
        admitted: List[IoRequest] = []
        for request in requests:
            if state.bucket is not None and not state.bucket.try_take():
                self._shed_request(state, request, respond, "admission")
            elif (
                self._global_bucket is not None
                and not self._global_bucket.try_take()
            ):
                self._shed_request(state, request, respond, "admission")
            else:
                admitted.append(request)
        if not admitted:
            return
        stats.admitted += len(admitted)
        state.queue.append((flow, admitted, respond, self.env.now))
        self._backlog += 1
        if len(state.queue) > self.config.queue_capacity:
            # Drop-from-front: the oldest message is the one most
            # likely already outside its client's patience window.
            old_flow, old_requests, old_respond, _enq = (
                state.queue.popleft()
            )
            self._backlog -= 1
            for request in old_requests:
                self._shed_request(state, request, old_respond, "queue-full")
        stats.max_depth = max(stats.max_depth, len(state.queue))
        if self.observer is not None:
            self.observer.on_enqueue(
                tenant, len(state.queue), self.config.queue_capacity
            )
        self._wakeup.try_put(True)

    def _shed_request(
        self,
        state: _TenantState,
        request: IoRequest,
        respond: Callable,
        reason: str,
    ) -> None:
        """Refuse one request — replaying it if it already completed.

        The dedup check is what makes shedding safe under retries: a
        retransmit of an acked write must get its recorded response
        back (OL4), not a throttle that the client would misread as
        "never applied"."""
        dedup = (
            self._dedup_source() if self._dedup_source is not None else None
        )
        if dedup is not None:
            cached = dedup.cached(request.request_id)
            if cached is not None:
                state.stats.replayed += 1
                respond(cached)
                return
        if reason == "admission":
            state.stats.shed_admission += 1
        elif reason == "queue-full":
            state.stats.shed_queue_full += 1
        else:
            state.stats.shed_deadline += 1
        if self.observer is not None:
            self.observer.on_shed(request, state.name, reason)
        respond(IoResponse(request.request_id, ok=False, throttled=True))

    # ------------------------------------------------------------------
    # weighted fair dispatch (DRR over tenant queues)
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> Generator:
        while True:
            if self._backlog == 0:
                yield self._wakeup.get()
                continue
            yield from self._drr_round()
            # A round that dispatched or shed nothing means every
            # backlogged head still exceeds its deficit: loop again at
            # the same instant — deficits grow monotonically (weights
            # are positive), so dispatch is reached in bounded rounds.

    def _drr_round(self) -> Generator:
        for tenant in list(self._order):
            state = self._states[tenant]
            if not state.queue:
                # No banking while idle: an empty queue forfeits its
                # deficit, so a returning tenant cannot burst with
                # credit saved across idle rounds.
                state.deficit = 0.0
                continue
            state.deficit += self.config.QUANTUM_BYTES * state.weight
            yield from self._drain_tenant(state)

    def _drain_tenant(self, state: _TenantState) -> Generator:
        target = self.config.sojourn_target
        while state.queue:
            if self._inflight >= self.config.max_inflight:
                gate = self.env.event()
                self._window_waiters.append(gate)
                yield gate
                continue  # time passed: re-examine the head
            flow, requests, respond, enqueued = state.queue[0]
            sojourn = self.env.now - enqueued
            if target is not None and sojourn > target:
                # Deadline shed at dispatch time (CoDel's insight):
                # serving this message now would spend capacity on work
                # the client has already given up on.
                state.queue.popleft()
                self._backlog -= 1
                for request in requests:
                    self._shed_request(state, request, respond, "deadline")
                continue
            cost = sum(r.wire_size for r in requests)
            if cost > state.deficit:
                return
            state.queue.popleft()
            self._backlog -= 1
            state.deficit -= cost
            if not state.queue:
                state.deficit = 0.0
            state.stats.dispatched += len(requests)
            state.stats.bytes_dispatched += cost
            if self.observer is not None:
                self.observer.on_dispatch(state.name, sojourn)
            self._inflight += 1
            self.env.process(self._serve(flow, requests, respond))

    def _serve(
        self,
        flow: FiveTuple,
        requests: List[IoRequest],
        respond: Callable,
    ) -> Generator:
        try:
            yield from self._service(flow, requests, respond)
        finally:
            self._inflight -= 1
            if self._window_waiters:
                self._window_waiters.popleft().succeed()
