"""Experiment harness: build a cluster, drive a workload, measure.

One entry point, :func:`run_io_experiment`, serves every throughput /
latency / CPU figure (14, 15, 16, 23, 24): it assembles the simulated
cluster for a named solution, runs the §8.1 random-I/O client against
it, and reports achieved IOPS, latency percentiles, and cores consumed
on host, DPU, and client.

The §9 applications measure through the same step
(:func:`measure_app`, reporting an :class:`AppResult`) and start from
the same :func:`bring_up`.

Solution names live in :data:`repro.topology.registry.SOLUTIONS` — the
single source of truth: each name maps to a declarative
:class:`~repro.topology.spec.DeploymentSpec`, and the registry builds
the wired server from the spec.  :data:`SOLUTIONS` here is the ten
headline names charted in Figure 16, in chart order; the registry also
carries the ablations (``dds-files-copy``, ``dds-offload-copy``) and
the multi-DPU sharded deployments (``dds-offload-shard2`` / ``-shard4``).

The second half is the *scenario kit* every test, benchmark and example
shares (DESIGN.md §11): a cluster scenario is a frozen, picklable
:class:`Scenario` value (:data:`SCALEOUT`, :data:`SHARD_KILL`,
:data:`ELASTIC`, :data:`OVERLOAD`, :data:`HOST_PATH`,
:data:`REPLICATED`), varied with :func:`dataclasses.replace` and run by
:func:`run` into a :class:`ScenarioRun`.  Its parts stay public for
runs no value describes: :func:`build_cluster`, the one workload
:func:`drive_striped`, and :class:`AckTimeline`, :func:`drain_until`
and :func:`ack_buckets` to observe and settle a run.
:func:`run_tenant_isolation` is the QoS gate's dispatch order alone, on
a toy server.

:func:`differential` checks, seed by seed, that a reference (a list of
single-site patches) changes nothing a scenario sees.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import asdict, dataclass, field, replace
from itertools import zip_longest
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.client import ClientConfig, ClientResult, DdsClient, WorkloadClient
from ..core.messages import IoRequest, IoResponse, OpCode
from ..core.retry import RetryBudget, RetryPolicy
from ..core.server import PipelineServer
from ..digest import blake2b
from ..faults import FaultInjector, FaultPlan, InvariantChecker, ShardKill
from ..hardware.nic import NetworkLink
from ..hardware.specs import NVME_1TB, SsdSpec
from ..hardware.ssd import NvmeDevice
from ..net.packet import FiveTuple
from ..sim import Environment, Resource, SeededRng
from ..sim.stats import slices
from ..storage.disk import RamDisk, SpdkBdev
from ..storage.filesystem import DdsFileSystem
from ..topology.qos import QosConfig, TenantQosGate
from ..topology.registry import build_server, headline_solutions, resolve
from ..topology.sharding import ShardedOffloadServer
from ..topology.spec import DeploymentSpec
from ..workload import FlashCrowd, OpenLoopTrafficEngine, TenantSpec

__all__ = [
    "SOLUTIONS",
    "ExperimentResult",
    "AppResult",
    "Cluster",
    "bring_up",
    "build_cluster",
    "measure_app",
    "run_io_experiment",
    "find_peak",
    "IO_SIZE",
    "OVERLOAD_CAPACITY",
    "AckTimeline",
    "Scenario",
    "ScenarioRun",
    "run",
    "SCALEOUT",
    "SHARD_KILL",
    "ELASTIC",
    "OVERLOAD",
    "HOST_PATH",
    "REPLICATED",
    "ack_buckets",
    "drain_until",
    "drive_striped",
    "striped_rw_factory",
    "FairnessResult",
    "run_tenant_isolation",
    "Divergence",
    "DifferentialReport",
    "differential",
]

#: The ten Figure 16 solutions, chart order (from the registry).
SOLUTIONS = headline_solutions()

Solution = Union[str, DeploymentSpec]


@dataclass
class ExperimentResult:
    """Everything one experiment point reports."""

    kind: str
    offered_iops: float
    achieved_iops: float
    elapsed: float
    p50: float
    p99: float
    mean_latency: float
    host_cores: float
    dpu_cores: float
    client_cores: float
    latencies: List[float] = field(repr=False, default_factory=list)
    #: Engine occurrences scheduled during this experiment (summed
    #: into the ``events`` that :mod:`repro.bench.trajectory` pins).
    events: int = 0

    @property
    def total_cores(self) -> float:
        """Client + server host cores (Figure 16b's metric)."""
        return self.host_cores + self.client_cores


@dataclass
class AppResult:
    """One §9 application measurement point (Figures 2, 24, 25, 26)."""

    kind: str
    offered: float
    achieved: float
    elapsed: float
    p50: float
    p99: float
    host_cores: float
    dpu_cores: float
    offloaded_fraction: float
    #: Host cores by component (Figure 2), where a deployment splits them.
    breakdown: Dict[str, float] = field(default_factory=dict)


@dataclass
class Cluster:
    """A freshly-built simulated cluster ready for a workload."""

    env: Environment
    server: PipelineServer
    filesystem: DdsFileSystem
    #: The first (for single-file clusters: the only) file.
    file_id: int
    file_ids: List[int]
    file_bytes: int

    def files_on(self, shard: int) -> FrozenSet[int]:
        """The files ``shard`` owns under the current shard map."""
        return frozenset(
            file_id
            for file_id in self.file_ids
            if self.server.shard_map.owner(file_id) == shard
        )

    def state_digest(self) -> str:
        """Digest of every file's bytes on its owning shard's disk."""
        digest = blake2b(digest_size=16)
        for file_id in self.file_ids:
            owner = self.server.shard_map.owner(file_id)
            digest.update(
                self.server.filesystems[owner].read_sync(
                    file_id, 0, self.file_bytes
                )
            )
        return digest.hexdigest()


def bring_up(
    disk_bytes: int, ssd: SsdSpec = NVME_1TB
) -> Tuple[Environment, DdsFileSystem, NetworkLink]:
    """What every cluster starts from: an environment, an empty DDS
    filesystem on a RAM disk behind the SSD model, the client link."""
    env = Environment()
    bdev = SpdkBdev(env, RamDisk(disk_bytes), NvmeDevice(env, ssd))
    return env, DdsFileSystem(env, bdev), NetworkLink(env)


def build_cluster(
    kind: Optional[Solution] = None,
    db_bytes: int = 192 << 20,
    *,
    files: int = 1,
    file_bytes: Optional[int] = None,
    shards: Optional[int] = None,
) -> Cluster:
    """Assemble disk, filesystem, link, and server for one deployment.

    ``kind`` is a registered solution name or a
    :class:`~repro.topology.spec.DeploymentSpec` directly.  The benchmark
    database is ``db_bytes`` of preallocated file (the paper uses a
    128 GB database; we scale it down — random cold reads behave
    identically since nothing is cached anywhere).

    ``shards=N`` instead builds the
    :class:`~repro.topology.sharding.ShardedOffloadServer` on N DPUs
    over ``files`` preallocated files of ``file_bytes`` each.
    """
    if (kind is None) == (shards is None):
        raise ValueError("pass exactly one of a solution or shards=")
    spec = None if kind is None else resolve(kind)
    file_bytes = file_bytes or db_bytes
    env, fs, link = bring_up(files * file_bytes + (64 << 20))
    fs.create_directory("bench")
    file_ids = []
    for index in range(files):
        file_id = fs.create_file("bench", f"file-{index}")
        fs.preallocate(file_id, file_bytes)
        file_ids.append(file_id)
    if spec is not None:
        server = build_server(spec, env, link, fs)
    else:
        server = ShardedOffloadServer(env, link, fs, shard_count=shards)
    return Cluster(env, server, fs, file_ids[0], file_ids, file_bytes)


def _measure(
    env: Environment,
    server: PipelineServer,
    file_id: int,
    config: ClientConfig,
    request_factory: Optional[Callable] = None,
) -> Tuple[ClientResult, float, float]:
    """The one measuring step: run the §8.1 client to completion, then
    read the server's average host and DPU cores over the run."""
    result = WorkloadClient(
        env, server, file_id, config, request_factory=request_factory
    ).run()
    elapsed = result.elapsed
    return result, server.host_cores(elapsed), server.dpu_cores(elapsed)


def measure_app(
    kind: str,
    env: Environment,
    server: PipelineServer,
    file_id: int,
    config: ClientConfig,
    request_factory: Callable,
) -> AppResult:
    """Drive an application's own requests at ``config.offered_iops``."""
    result, host_cores, dpu_cores = _measure(
        env, server, file_id, config, request_factory
    )
    return AppResult(
        kind=kind,
        offered=config.offered_iops,
        achieved=result.achieved_iops,
        elapsed=result.elapsed,
        p50=result.p50,
        p99=result.p99,
        host_cores=host_cores,
        dpu_cores=dpu_cores,
        offloaded_fraction=server.offloaded_fraction(),
    )


def run_io_experiment(
    kind: Solution,
    offered_iops: float,
    total_requests: int = 15_000,
    io_size: int = 1024,
    read_fraction: float = 1.0,
    batch: int = 4,
    max_outstanding: int = 128,
    db_bytes: int = 192 << 20,
    seed: int = 42,
) -> ExperimentResult:
    """Run the §8.1 random-I/O workload against one solution."""
    cluster = build_cluster(kind, db_bytes=db_bytes)
    config = ClientConfig(
        offered_iops=offered_iops,
        total_requests=total_requests,
        io_size=io_size,
        read_fraction=read_fraction,
        batch=batch,
        max_outstanding=max_outstanding,
        file_size=db_bytes,
        seed=seed,
    )
    server = cluster.server
    result, host_cores, dpu_cores = _measure(
        cluster.env, server, cluster.file_id, config
    )
    return ExperimentResult(
        kind=resolve(kind).name,
        offered_iops=offered_iops,
        achieved_iops=result.achieved_iops,
        elapsed=result.elapsed,
        p50=result.p50,
        p99=result.p99,
        mean_latency=result.mean_latency,
        host_cores=host_cores,
        dpu_cores=dpu_cores,
        client_cores=cluster.env.account.cores("client", result.elapsed),
        latencies=result.latencies,
        events=cluster.env.scheduled_count,
    )


def find_peak(
    kind: Solution,
    start_iops: float = 200_000.0,
    on_result=None,
    **kwargs,
) -> ExperimentResult:
    """Grow offered load 1.6x a round (at most 8) until achieved
    throughput gains under 5 %.

    Returns the measurement at the peak (Figure 16 reports peak
    throughput and the CPU/latency observed there).  ``on_result`` (if
    given) observes every intermediate measurement — the trajectory
    harness uses it to total event counts across the whole search.
    """
    best: Optional[ExperimentResult] = None
    offered = start_iops
    for _ in range(8):
        result = run_io_experiment(kind, offered, **kwargs)
        if on_result is not None:
            on_result(result)
        if best is not None and result.achieved_iops < best.achieved_iops * (
            1 + 0.05
        ):
            if result.achieved_iops > best.achieved_iops:
                best = result
            break
        best = result
        offered *= 1.6
    return best


# ----------------------------------------------------------------------
# the scenario kit: one value, one runner
# ----------------------------------------------------------------------
#: Request size of the striped workload.
IO_SIZE = 1024

#: Measured saturation of one shard serving 64 KiB reads (the SSD/link
#: path), the unit :data:`OVERLOAD` rates are quoted in.
OVERLOAD_CAPACITY = 52_000.0


def striped_rw_factory(
    file_ids: Sequence[int], file_bytes: int, io_size: int, write_every: int
) -> Callable:
    """Uniform random reads; every ``write_every``-th request writes.

    Write locations are derived from the request id, striped across the
    files, so each (file, offset) pair is written once per pass over the
    namespace — which makes a durability audit's "latest acked write
    wins" rule exact.  ``write_every=0`` is a pure read workload.
    """
    files = len(file_ids)
    slots = file_bytes // io_size

    def factory(request_id, rng):
        if write_every and request_id % write_every == 0:
            ordinal = request_id // write_every
            file_id = file_ids[ordinal % files]
            offset = ((ordinal // files) % slots) * io_size
            payload = request_id.to_bytes(8, "little") * (io_size // 8)
            return IoRequest(
                OpCode.WRITE, request_id, file_id, offset, io_size, payload
            )
        file_id = file_ids[rng.randrange(files)]
        offset = rng.randrange(slots) * io_size
        return IoRequest(OpCode.READ, request_id, file_id, offset, io_size)

    return factory


def drive_striped(
    cluster: Cluster,
    *,
    offered_iops: float,
    total_requests: int,
    seed: int,
    write_every: int,
    connections: int = 16,
    max_outstanding: int = 512,
    retrying: bool = True,
    observer=None,
) -> ClientResult:
    """Run the striped workload over every file of ``cluster``.

    ``retrying`` picks the chaos-tier :class:`DdsClient` (timeouts,
    backoff, response dedup) over the loss-free :class:`WorkloadClient`.
    """
    config = ClientConfig(
        offered_iops=offered_iops,
        total_requests=total_requests,
        io_size=IO_SIZE,
        batch=4,
        connections=connections,
        max_outstanding=max_outstanding,
        file_size=cluster.file_bytes,
        seed=seed,
    )
    client = (DdsClient if retrying else WorkloadClient)(
        cluster.env,
        cluster.server,
        cluster.file_id,
        config,
        request_factory=striped_rw_factory(
            cluster.file_ids, cluster.file_bytes, IO_SIZE, write_every
        ),
        observer=observer,
    )
    return client.run()


class AckTimeline:
    """Client observer: forwards to ``checker`` and timestamps acks."""

    def __init__(self, env: Environment, checker=None) -> None:
        self.env = env
        self.checker = checker
        #: (sim time, file id) of every successful response.
        self.acks: List[Tuple[float, int]] = []
        #: (request id, sim time, ok) of every response; ok None: gave up.
        self.outcomes: List[Tuple[int, float, Optional[bool]]] = []

    def on_issue(self, request) -> None:
        if self.checker is not None:
            self.checker.on_issue(request)

    def on_ack(self, request, response) -> None:
        if self.checker is not None:
            self.checker.on_ack(request, response)
        self.outcomes.append((request.request_id, self.env.now, response.ok))
        if response.ok:
            self.acks.append((self.env.now, request.file_id))

    def on_give_up(self, request) -> None:
        if self.checker is not None:
            self.checker.on_give_up(request)
        self.outcomes.append((request.request_id, self.env.now, None))


def drain_until(
    env: Environment, predicate: Callable[[], bool], max_rounds: int
) -> None:
    """Advance 1 ms at a time until ``predicate()`` holds (bounded).

    A bare ``env.run()`` would not stop at the predicate: it runs
    every fault and recovery still scheduled.
    """
    for _ in range(max_rounds):
        if predicate():
            break
        env.run(until=env.timeout(1e-3))


def ack_buckets(
    acks: Sequence[Tuple[float, int]],
    files: Collection[int],
    start: float,
    end: float,
) -> List[int]:
    """Acks to ``files`` per half-millisecond slice of ``[start, end)``.

    A zero bucket is a dark window: that keyspace went silent."""
    watched = [stamp for stamp, file_id in acks if file_id in files]
    return slices(watched, start, end, 5e-4)


@dataclass(frozen=True)
class Scenario:
    """One cluster scenario as a value; :func:`run` runs it.

    ``files`` preallocated files of ``file_bytes`` on a ``shards``-DPU
    :class:`~repro.topology.sharding.ShardedOffloadServer`, its opt-ins,
    its driver, its faults and its seed.  Frozen and picklable: callers
    vary one of the module-level values below with
    :func:`dataclasses.replace`.
    """

    shards: int
    files: int
    file_bytes: int
    seed: int
    #: The striped client's offered rate, or the tenants' total rate.
    offered_iops: float
    #: The closed-loop striped workload (:func:`drive_striped`).
    total_requests: int = 0
    write_every: int = 4
    connections: int = 16
    max_outstanding: int = 512
    retrying: bool = True
    #: Set: the open-loop tenant population (:data:`OVERLOAD`) offers
    #: load for this long instead, with ``crowd``'s rate spikes.
    horizon: Optional[float] = None
    crowd: Tuple[FlashCrowd, ...] = ()
    #: Opt-ins: dedup and breakers; replicated shard groups; the
    #: overload defenses (``resilience`` plus a shared retry budget and
    #: the tenant QoS gate admitting 90% of capacity); a membership
    #: schedule of ``(delay, "add" | "drain")`` steps, a drain retiring
    #: the shard the schedule last added.
    resilience: bool = False
    replicated: bool = False
    defended: bool = False
    membership: Tuple[Tuple[float, str], ...] = ()
    #: Shard kills, armed on the sim clock (the plan's seed is ``seed``).
    faults: Tuple[ShardKill, ...] = ()
    #: One :class:`InvariantChecker` watches the run: it must hear every
    #: ack the driver counts, and it judges each tenant's declared SLO
    #: (OL2).  Afterwards the run settles (kills recovered, membership
    #: done) and is checked.
    audit: bool = False


@dataclass
class ScenarioRun(Cluster):
    """The cluster after a scenario ran, plus what the run measured."""

    result: Any = None
    acks: List[Tuple[float, int]] = field(repr=False, default_factory=list)
    #: (request id, sim time, ok) of every response; ok None: gave up.
    outcomes: List[Tuple[int, float, Optional[bool]]] = field(
        repr=False, default_factory=list
    )
    checker: Any = None
    #: ``checker.check(...)`` taken after the post-run settle.
    report: Any = None
    injector: Optional[FaultInjector] = None
    #: ``(step, shard index)`` per completed membership step.
    marks: List[Tuple[str, int]] = field(default_factory=list)
    #: File id -> owner before any membership change.
    owners_before: Dict[int, int] = field(default_factory=dict)


def run(scenario: Scenario) -> ScenarioRun:
    """Build, arm and drive ``scenario``; settle and audit if it says so."""
    s = scenario
    cluster = build_cluster(
        shards=s.shards, files=s.files, file_bytes=s.file_bytes
    )
    env, server = cluster.env, cluster.server
    dedup = server.enable_resilience() if s.resilience or s.defended else None
    tenants = [] if s.horizon is None else _tenants(s)
    checker = None
    if s.audit:
        # OL2 judges each declared SLO; a request's tag is its tenant's
        # index.
        checker = InvariantChecker(
            env, tenant_of=lambda request: tenants[request.tag].name
        )
        checker.attach(server)  # OL4 and the RI rules read its server
        for spec in tenants:
            if spec.slo_p99 is not None:
                checker.set_slo(spec.name, spec.slo_p99)
    if s.replicated:
        server.enable_replication(checker)
    injector = None
    if s.faults:
        plan = FaultPlan(seed=s.seed, events=s.faults)
        injector = FaultInjector(env, server, plan).arm()
    owners_before = {f: server.shard_map.owner(f) for f in cluster.file_ids}
    marks: List[Tuple[str, int]] = []
    if s.membership:
        server.enable_resharding()
        env.process(_reshape(env, server, s.membership, marks))
    timeline = AckTimeline(env, checker)
    if s.horizon is None:
        result = drive_striped(
            cluster, offered_iops=s.offered_iops,
            total_requests=s.total_requests, seed=s.seed,
            write_every=s.write_every, connections=s.connections,
            max_outstanding=s.max_outstanding, retrying=s.retrying,
            observer=timeline,
        )
    else:
        result = _drive_tenants(cluster, s, tenants, timeline)
    report = None
    if s.audit:
        acked = result.acked if tenants else len(result.latencies)
        if checker.acks_seen != acked:
            raise RuntimeError(
                f"the checker heard {checker.acks_seen} acks of the "
                f"{acked} its driver counted: the observer is not wired"
            )
        # Anti-entropy catch-up and the drain-side backfill are
        # device-timed and outlast the workload: the audit must read the
        # settled, caught-up filesystems.
        def settled() -> bool:
            recovered = injector is None or len(s.faults) == sum(
                r.kind == "shard-recover" for r in injector.fault_log
            )
            return (
                recovered
                and len(marks) == len(s.membership)
                and not (server.resharder and server.resharder.active)
            )

        drain_until(env, settled, 400)
        env.run(until=env.timeout(1e-3))  # replayed responses, recovery tail
        report = checker.check(server, dedup=dedup)
    return ScenarioRun(
        **vars(cluster), result=result, acks=timeline.acks,
        outcomes=timeline.outcomes, checker=checker, report=report,
        injector=injector, marks=marks, owners_before=owners_before,
    )


def _reshape(env, server, steps, marks):
    """Run the membership schedule, marking each completed step."""
    added = None
    for delay, step in steps:
        yield env.now + delay
        if step == "add":
            added = yield from server.add_shard()
        else:
            yield from server.drain_shard(added)
        marks.append((step, added))


def _tenants(s: Scenario) -> List[TenantSpec]:
    """Three interactive accounts (20% of the load, 4x DRR weight, a
    5 ms p99 SLO) and one batch whale."""
    specs = [
        TenantSpec(
            f"int-{i}", i, rate=s.offered_iops * 0.2 / 3, weight=4.0,
            slo_p99=5e-3,
        )
        for i in range(3)
    ]
    specs.append(TenantSpec("batch-0", 3, rate=s.offered_iops * 0.8, weight=1.0))
    return specs


def _drive_tenants(
    cluster: Cluster, s: Scenario, specs: List[TenantSpec], observer
):
    """The tenants offer 64 KiB reads open loop, retrying up to 8 times
    on a 2 ms timeout (DESIGN §15)."""
    engine = OpenLoopTrafficEngine(
        cluster.env, cluster.server, specs, cluster.file_ids,
        horizon=s.horizon, io_size=64 << 10, file_bytes=cluster.file_bytes,
        seed=s.seed, events=s.crowd,
        retry_policy=RetryPolicy(max_attempts=8, timeout=2e-3),
        retry_budget=(
            RetryBudget(capacity=32.0, refill_ratio=0.1) if s.defended else None
        ),
        observer=observer,
    )
    if s.defended:
        cluster.server.enable_qos(QosConfig(
            global_rate=0.9 * OVERLOAD_CAPACITY, global_burst=32.0,
            sojourn_target=2e-3,
            weights={f"int-{i}": 4.0 for i in range(3)},
            tenant_of=engine.tenant_for_flow,
        ))
    return engine.run()


#: Saturating directed reads over 32 x 4 MiB files: offered load far
#: beyond any shard count's capacity, so every point measures capacity.
SCALEOUT = Scenario(
    shards=4, files=32, file_bytes=4 << 20, seed=7, offered_iops=4e6,
    total_requests=12_000, write_every=0, max_outstanding=192,
    retrying=False,
)

#: Kill one of four shards mid-workload, recover it, audit.  400K
#: offered IOPS over 16 x 1 MiB files.  Unreplicated, the dead keyspace
#: goes dark until raw-disk recovery; ``replicated`` keeps it acking
#: through the outage with the checker judging RI1–RI5 live.
SHARD_KILL = Scenario(
    shards=4, files=16, file_bytes=1 << 20, seed=13, offered_iops=400e3,
    total_requests=2400, resilience=True, audit=True,
    faults=(ShardKill(at=2e-3, down_for=3e-3, shard=2),),
)

#: Grow a loaded, replicated 2-shard deployment to 3, then drain the
#: addition.  150K offered IOPS over 16 x 64 KiB files: a saturating
#: load would starve the copy plane until the workload ends.
ELASTIC = Scenario(
    shards=2, files=16, file_bytes=64 << 10, seed=17, offered_iops=150e3,
    total_requests=6000, resilience=True, replicated=True, audit=True,
    membership=((1e-3, "add"), (3e-4, "drain")),
)

#: Open-loop tenants against one shard of 64 KiB reads (DESIGN §15):
#: 80% of capacity, then a 5x flash crowd for 6 ms.  Undefended, this
#: is the stock, metastable configuration; ``run(...).server.qos`` is
#: the gate (None when undefended).
OVERLOAD = Scenario(
    shards=1, files=8, file_bytes=1 << 20, seed=31,
    offered_iops=0.8 * OVERLOAD_CAPACITY, horizon=30e-3,
    crowd=(FlashCrowd(start=8e-3, duration=6e-3, multiplier=5.0),),
)

#: :func:`differential`'s two scenarios.  One shard, every third request
#: a write: the DMA ring and the host file service carry traffic with
#: idle gaps in between.
HOST_PATH = Scenario(
    shards=1, files=4, file_bytes=1 << 20, seed=1, offered_iops=60e3,
    total_requests=240, write_every=3,
)

#: Four replicated shards: relays, mirrored writes and quorum acks make
#: several DMA threads wake each other's hosts.
REPLICATED = Scenario(
    shards=4, files=8, file_bytes=1 << 20, seed=1, offered_iops=150e3,
    total_requests=320, resilience=True, replicated=True,
)


class FairnessResult(NamedTuple):
    """The decisive number is the light tenant's *worst* latency: under
    FIFO it waits out the whole burst, under DRR one round."""

    light_max_latency: float
    light_mean_latency: float
    heavy_throughput: float


def run_tenant_isolation(scheduler: str) -> FairnessResult:
    """A light closed-loop trickle (5K/s) beside a 2000-message dump at
    t=0, on a server that takes 10 us per 4 KiB message, one at a time,
    for 50 ms: in arrival order (``"fifo"``, one Resource — what stock
    DDS effectively has) or behind the datapath's QoS gate (``"drr"``:
    no buckets, no shedding, only its fair dispatch)."""
    env, rng, duration, burst = Environment(), SeededRng(71), 0.05, 2000
    waits: Dict[str, List[float]] = {"light": [], "heavy": []}
    server = Resource(env, capacity=1)

    def serve(flow, requests, respond):
        yield server.book(10e-6)
        for request in requests:
            respond(IoResponse(request.request_id, ok=True))

    if scheduler == "drr":
        submit = TenantQosGate(
            env,
            QosConfig(queue_capacity=burst, max_inflight=1,
                      sojourn_target=None,
                      tenant_of=lambda flow: flow.client_ip),
            serve,
        ).intake
    else:
        def submit(flow, requests, respond):
            env.process(serve(flow, requests, respond))

    def send(tenant: str, request_id: int):
        done, sent = env.event(), env.now

        def respond(_response) -> None:
            waits[tenant].append(env.now - sent)
            done.succeed()

        write = IoRequest(OpCode.WRITE, request_id, 1, 0, 4096, bytes(4096))
        submit(FiveTuple(tenant, 40000, "10.0.0.1", 5000), [write], respond)
        return done

    def light():
        request_id = burst
        while env.now < duration:
            yield env.now + rng.exponential(1 / 5_000.0)
            request_id += 1
            yield send("light", request_id)

    for request_id in range(burst):
        send("heavy", request_id)
    env.process(light())
    env.run(until=duration)
    return FairnessResult(
        max(waits["light"]),
        sum(waits["light"]) / len(waits["light"]),
        len(waits["heavy"]) / duration,
    )


# ----------------------------------------------------------------------
# the differential harness: shipped vs a reference, seed by seed
# ----------------------------------------------------------------------
class Divergence(NamedTuple):
    """A reference run's first difference: the key, the position in a
    list value (``None``: scalar), both values, and the sites that alone
    reproduce it (when none does, those without which it goes away)."""

    key: str
    index: Optional[int]
    shipped: Any
    reference: Any
    sites: Tuple[str, ...] = ()


class DifferentialReport(NamedTuple):
    """One reference, by seed: the shipped observation (shared), both
    runs' ``scheduled_count``, and each diverging seed's divergence."""

    shipped: Dict[int, Any]
    events: Dict[int, Tuple[int, int]]
    divergences: Dict[int, Divergence]


def differential(
    scenario: Scenario,
    references: Dict[str, Sequence[Tuple[Any, str, Any]]],
    seeds: Sequence[int],
) -> Dict[str, DifferentialReport]:
    """Check that each reference changes nothing ``scenario`` observes.

    Each seed's run (``scenario`` with that seed) idles 1 ms and is then
    observed: every response, the DMA counters, the clock and the bytes
    on disk.  A reference is the list of sites ``(owner, attribute,
    replacement)`` that swap an older implementation in, applied for its
    runs only; one shipped run per seed serves every reference.
    """
    shipped: Dict[int, Any] = {}
    reports = {name: DifferentialReport(shipped, {}, {}) for name in references}
    for seed in seeds:
        seeded = replace(scenario, seed=seed)
        shipped[seed], env = _observe(seeded)
        for name, sites in references.items():
            observation, reference_env = _run(seeded, sites)
            report = reports[name]
            report.events[seed] = (env.scheduled_count,
                                   reference_env.scheduled_count)
            found = _first_divergence(shipped[seed], observation)
            if found is not None:
                report.divergences[seed] = found._replace(
                    sites=_bisect(seeded, shipped[seed], sites, found)
                )
    return reports


def _observe(scenario: Scenario) -> Tuple[Dict[str, Any], Environment]:
    """Run, idle 1 ms, return what two runs must agree on and the
    environment."""
    done = run(scenario)
    env = done.env
    env.run(until=env.now + 1e-3)
    backends = [shard.backend for shard in done.server.shards]
    for backend in backends:
        backend.file_service.settle_idle_polls()
    return {
        "acks": done.outcomes,
        "dma": [asdict(backend.dma.stats) for backend in backends],
        "fetched": [
            (channel.fetched_batches, channel.fetched_requests)
            for backend in backends for channel in backend.file_service.channels
        ],
        "now": env.now,
        "digest": done.state_digest(),
    }, env


def _run(scenario, sites):
    from unittest import mock  # loads asyncio: import on use only

    with ExitStack() as patches:
        for site in sites:
            patches.enter_context(mock.patch.object(*site))
        return _observe(scenario)


def _bisect(scenario, shipped, sites, found) -> Tuple[str, ...]:
    def reproduces(subset) -> bool:
        observation, _env = _run(scenario, subset)
        return _first_divergence(shipped, observation) == found

    names = [f"{owner.__name__}.{attribute}" for owner, attribute, _ in sites]
    alone = [name for name, site in zip(names, sites) if reproduces([site])]
    return tuple(alone or [
        name for index, name in enumerate(names)
        if not reproduces([*sites[:index], *sites[index + 1:]])
    ])


def _first_divergence(shipped, reference) -> Optional[Divergence]:
    for key, ours in shipped.items():
        theirs = reference[key]
        if ours == theirs:
            continue
        if not (isinstance(ours, list) and isinstance(theirs, list)):
            return Divergence(key, None, ours, theirs)
        # The first differing entry; past the end of a list reads None.
        for index, (mine, other) in enumerate(zip_longest(ours, theirs)):
            if mine != other:
                return Divergence(key, index, mine, other)
    return None
