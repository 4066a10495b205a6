"""The disaggregated-storage workload client (§8.1).

A semi-open client: messages arrive at an offered rate (Poisson), each
batching a configurable number of random file I/O requests, with a cap
on outstanding messages (the paper's three load knobs: batch size,
outstanding messages, concurrent connections).  Per-request latency is
measured from message departure to that request's response arrival at
the client, and the client's own transport CPU (which Figure 16 counts)
is accounted against a client-side pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional

from ..hardware.cpu import CpuPool
from ..hardware.specs import HOST_CPU
from ..net.packet import FiveTuple
from ..sim import Environment, SeededRng
from ..sim.stats import percentile
from .messages import IoRequest, OpCode
from .retry import RetryLoop, RetryPolicy
from .server import PipelineServer

__all__ = [
    "ClientConfig",
    "ClientResult",
    "WorkloadClient",
    "DdsClient",
]


@dataclass
class ClientConfig:
    """Workload knobs for one run."""

    offered_iops: float = 100_000.0
    total_requests: int = 20_000
    io_size: int = 1024
    read_fraction: float = 1.0
    batch: int = 4
    connections: int = 4
    max_outstanding: int = 64  # outstanding messages across connections
    file_size: int = 256 << 20
    seed: int = 42

    def __post_init__(self) -> None:
        if self.offered_iops <= 0:
            raise ValueError("offered_iops must be positive")
        for name in ("total_requests", "io_size", "batch", "connections",
                     "max_outstanding"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.file_size < self.io_size:
            raise ValueError("file_size must hold at least one io_size request")


@dataclass
class ClientResult:
    """Measured outcome of one client run."""

    achieved_iops: float
    elapsed: float
    latencies: List[float] = field(repr=False, default_factory=list)
    client_cores: float = 0.0
    #: Retry-loop accounting (no retries or budget denials without a
    #: policy: each request's first answer settles it).
    retries: int = 0
    failed_requests: int = 0
    duplicate_responses: int = 0
    error_responses: int = 0
    #: Explicit server sheds seen (overload backpressure), and retries
    #: a :class:`~repro.core.retry.RetryBudget` refused (always 0: the
    #: closed-loop client retries without one).
    throttled_responses: int = 0
    budget_denied: int = 0
    #: Acks that arrived after the client had already given up.
    late_acks: int = 0

    def percentile(self, p: float) -> float:
        """Latency percentile, p in [0, 100]."""
        return percentile(sorted(self.latencies), p)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)


class WorkloadClient:
    """Issues random file I/O against one file on a storage server."""

    def __init__(
        self,
        env: Environment,
        server: PipelineServer,
        file_id: int,
        config: Optional[ClientConfig] = None,
        request_factory=None,
        retry_policy: Optional[RetryPolicy] = None,
        observer=None,
    ) -> None:
        self.env = env
        self.server = server
        self.file_id = file_id
        self.config = config or ClientConfig()
        # Optional override: (request_id, rng) -> IoRequest.  The KV and
        # page-server clients generate application requests this way.
        self.request_factory = request_factory
        #: With a policy, unanswered requests are re-sent with the same
        #: request id after per-attempt timeouts (exponential backoff +
        #: seeded jitter); without one each message is sent once — the
        #: loss-free client every benchmark uses.
        self.retry_policy = retry_policy
        #: Optional chaos observer: ``on_issue(request)``,
        #: ``on_ack(request, response)``, ``on_give_up(request)``.
        self.observer = observer
        self.rng = SeededRng(self.config.seed)
        self.client_pool = CpuPool(env, HOST_CPU, name="client", side="client")
        self._flows = [
            FiveTuple("10.0.0.2", 40_000 + i, "10.0.0.1", 5000)
            for i in range(self.config.connections)
        ]
        self._next_request_id = 1
        self._latencies: List[float] = []
        self._finished = None
        self._loop: Optional[RetryLoop] = None

    # ------------------------------------------------------------------
    # request generation
    # ------------------------------------------------------------------
    def _make_request(self) -> IoRequest:
        config = self.config
        request_id = self._next_request_id
        self._next_request_id += 1
        if self.request_factory is not None:
            return self.request_factory(request_id, self.rng)
        max_offset = max(1, config.file_size - config.io_size)
        # Align offsets to the I/O size, as a page-oriented client would.
        slots = max(1, max_offset // config.io_size)
        offset = self.rng.randrange(slots) * config.io_size
        if self.rng.random() < config.read_fraction:
            return IoRequest(
                OpCode.READ, request_id, self.file_id, offset, config.io_size
            )
        return IoRequest(
            OpCode.WRITE,
            request_id,
            self.file_id,
            offset,
            config.io_size,
            bytes(config.io_size),
        )

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def run(self) -> ClientResult:
        """Drive the workload to completion and return measurements.

        One arrival process and one send path whatever the policy:
        Poisson gaps, the outstanding-message window, one message per
        arrival, each handed to the :class:`~repro.core.retry.RetryLoop`
        (with no policy it is sent once and its answers settle it).
        """
        config = self.config
        self._finished = self.env.event()
        loop = self._loop = RetryLoop(
            self.env, self.server, self.client_pool, self.retry_policy,
            self.rng, self._on_ack, None, self.observer,
        )
        outstanding = [0]
        waiters: List = []

        def settled() -> None:
            self._check_finished()
            outstanding[0] -= 1
            if waiters:
                waiters.pop(0).succeed()

        def generator() -> Generator:
            issued = 0
            message_index = 0
            mean_gap = config.batch / config.offered_iops
            while issued < config.total_requests:
                yield self.env.now + self.rng.exponential(mean_gap)
                if outstanding[0] >= config.max_outstanding:
                    gate = self.env.event()
                    waiters.append(gate)
                    yield gate
                count = min(config.batch, config.total_requests - issued)
                requests = [self._make_request() for _ in range(count)]
                issued += count
                flow = self._flows[message_index % len(self._flows)]
                message_index += 1
                outstanding[0] += 1
                loop.send(flow, requests, settled)

        start = self.env.now
        self.env.process(generator())
        self.env.run(until=self._finished)
        elapsed = self.env.now - start
        achieved = loop.acked / elapsed if elapsed > 0 else 0.0
        return ClientResult(
            achieved_iops=achieved,
            elapsed=elapsed,
            latencies=self._latencies,
            client_cores=self.client_pool.cores_consumed(elapsed),
            retries=loop.retries,
            failed_requests=loop.failed,
            duplicate_responses=loop.duplicates,
            error_responses=loop.errors,
            throttled_responses=loop.throttled,
            budget_denied=loop.budget_denied,
            late_acks=loop.late_acks,
        )

    def _on_ack(self, issued: float, sent: float) -> None:
        # Latency from the attempt that was answered, not the first try.
        self._latencies.append(self.env.now - sent)
        self._check_finished()

    def _check_finished(self) -> None:
        settled = self._loop.acked + self._loop.failed
        if settled >= self.config.total_requests:
            if not self._finished.triggered:
                self._finished.succeed()


class DdsClient(WorkloadClient):
    """A :class:`WorkloadClient` with retries on by default.

    The paper's benchmark client assumes a loss-free fabric; this is the
    client a chaos scenario uses — per-message attempt timeouts,
    exponential backoff with seeded jitter, and client-side response
    dedup, so requests issued into a fault window eventually succeed
    (or fail loudly after ``max_attempts``).
    """

    def __init__(
        self,
        env: Environment,
        server: PipelineServer,
        file_id: int,
        config: Optional[ClientConfig] = None,
        request_factory=None,
        observer=None,
    ) -> None:
        super().__init__(
            env,
            server,
            file_id,
            config,
            request_factory,
            retry_policy=RetryPolicy(),
            observer=observer,
        )
