"""The five benchmark workloads, each split into setup / run / audit.

Every workload builds its deployment through the public constructors of
``repro`` (the same calls the figure harness and the trajectory use),
drives it, and then checks what came back.  The runner times the three
methods from outside; nothing in ``src/`` knows it is being measured.

Why these five (the README has the long version):

``offload_read``
    The paper's Figure 14-16 path: 1 KiB reads served entirely by the
    DPU.  ``sim``, ``core``, ``hardware`` and ``net`` do the work.
``offload_mixed_rw``
    Same deployment, half writes: writes leave the fast path through
    the DMA ring and the host file service and move real bytes.
``sharded_repl_rw``
    Four shards, replication, a shard kill: the only workload with a
    heavy bring-up (``clone_into``), steering, quorum and an audit.
``overload_open_loop``
    Open loop at twice capacity behind the QoS gate: ``workload``,
    ``topology.qos`` and the retry/dedup code dominate.
``pushdown_scan``
    Nine verified scans: real bytes through the interpreter while the
    engine idles.  The control for every engine optimisation.

``scale`` shrinks the number of operations only (tests pass 0.05); the
deployments keep their size, because their bring-up is what ``setup_s``
measures.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.client import ClientConfig, ClientResult, DdsClient, WorkloadClient
from repro.core.messages import IoRequest, IoResponse, OpCode
from repro.core.retry import RetryBudget, RetryPolicy
from repro.faults import (
    FaultInjector,
    FaultPlan,
    ReplicationInvariantChecker,
    ShardKill,
)
from repro.hardware.nic import NetworkLink
from repro.pushdown.scan import (
    PIPELINES,
    PLACEMENTS,
    RECORDS_PER_PAGE,
    PipelineScanner,
    canonical_pipeline,
)
from repro.sim import Environment, SeededRng
from repro.storage.disk import RamDisk, SpdkBdev
from repro.storage.filesystem import DdsFileSystem
from repro.topology.qos import QosConfig
from repro.topology.registry import build_server
from repro.topology.sharding import ShardedOffloadServer
from repro.workload import OpenLoopTrafficEngine, TenantSpec
from repro.workload.arrivals import RateCurve

from tracing import Recorder

__all__ = ["WORKLOADS", "Workload", "percentile"]

IO_SIZE = 1024
#: Disk space beyond the files (metadata segment and allocator slack),
#: as every harness in ``repro.bench`` sizes it.
DISK_SLACK = 64 << 20


def percentile(ordered: Sequence[float], p: float) -> float:
    """The index rule of ``ClientResult.percentile`` on sorted input."""
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, int(round(p / 100 * len(ordered))) - 1))
    return ordered[index]


def meets_limit(
    latencies: Sequence[float], attempted: int, limit: float,
    achieved: float, offered: float,
) -> bool:
    """The rule behind ``sim_slo_iops``: p99 over *attempted* operations
    within the limit (a failed or refused one counts as over it) and no
    growing backlog (achieved at least 95% of offered)."""
    within = sum(1 for latency in latencies if latency <= limit)
    return within >= 0.99 * attempted and achieved >= 0.95 * offered


# ----------------------------------------------------------------------
# observation from outside: a response tap and a request factory
# ----------------------------------------------------------------------
class ResponseTap:
    """Stands where the server stands and counts what it answers.

    Clients only use ``client_spec`` and ``submit``; the tap forwards
    both and looks at each response on its way to the client.  It does
    the cheapest possible thing in the run phase (a set insert and an
    add) and keeps every 64th response whole for the audit phase.
    """

    SAMPLE_MASK = 63

    def __init__(self, server) -> None:
        self.server = server
        self.client_spec = server.client_spec
        self.ok_ids: set = set()
        self.not_ok = 0
        self.ok_bytes = 0
        self.sample: List[IoResponse] = []

    def submit(self, flow, requests, on_response=None):
        def tap(response: IoResponse) -> None:
            if response.ok:
                request_id = response.request_id
                if request_id not in self.ok_ids:
                    self.ok_ids.add(request_id)
                    if response.data:
                        self.ok_bytes += len(response.data)
                    if not request_id & self.SAMPLE_MASK:
                        self.sample.append(response)
            else:
                self.not_ok += 1
            on_response(response)

        return self.server.submit(flow, requests, tap)


class RequestFactory:
    """Random reads, and writes that each own a slot.

    A write's slot is a stride walk over all slots, so no two writes of
    a run overlap and the audit needs no ordering argument: the slot of
    every acknowledged write must hold exactly that write's payload.
    Payloads are a function of the request id and the seed and are
    regenerated in the audit, not stored.
    """

    STRIDE = 1_000_003  # prime, so the walk visits every slot once

    def __init__(
        self, file_ids: Sequence[int], file_bytes: int,
        write_fraction: float, seed: int,
    ) -> None:
        self.file_ids = list(file_ids)
        self.slots = file_bytes // IO_SIZE
        self.write_fraction = write_fraction
        self.seed = seed
        self._total = len(self.file_ids) * self.slots
        self._start = SeededRng(f"write-walk:{seed}").randrange(self._total)
        #: request id -> (file id, offset) of every write generated.
        self.writes: Dict[int, Tuple[int, int]] = {}

    def payload(self, request_id: int) -> bytes:
        word = (request_id * 0x9E3779B97F4A7C15 + self.seed) & ((1 << 64) - 1)
        return word.to_bytes(8, "little") * (IO_SIZE // 8)

    def __call__(self, request_id: int, rng: SeededRng) -> IoRequest:
        files = self.file_ids
        if rng.random() < self.write_fraction:
            slot = (self._start + len(self.writes) * self.STRIDE) % self._total
            file_id = files[slot % len(files)]
            offset = (slot // len(files)) * IO_SIZE
            self.writes[request_id] = (file_id, offset)
            return IoRequest(
                OpCode.WRITE, request_id, file_id, offset, IO_SIZE,
                self.payload(request_id),
            )
        file_id = files[rng.randrange(len(files))]
        offset = rng.randrange(self.slots) * IO_SIZE
        return IoRequest(OpCode.READ, request_id, file_id, offset, IO_SIZE)


# ----------------------------------------------------------------------
# reading a server's public counters
# ----------------------------------------------------------------------
def _units(server) -> List[Tuple[object, object]]:
    """(director, backend) per DPU, single-DPU and sharded alike."""
    shards = getattr(server, "shards", None)
    if shards is None:
        return [(server.director, server.backend)]
    return [(shard.director, shard.backend) for shard in shards]


def _filesystems(server) -> List[DdsFileSystem]:
    filesystems = getattr(server, "filesystems", None)
    return list(filesystems) if filesystems else [server.backend.filesystem]


def add_into(total: Dict[str, float], part: Dict[str, float]) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def server_counters(server) -> Dict[str, float]:
    """Raw (summable) counters of one deployment after its run."""
    out: Dict[str, float] = {}
    devices = [fs.bdev.device for fs in _filesystems(server)]
    out["hardware.ssd_ops"] = sum(device.stats.ops for device in devices)
    out["hardware.ssd_errors"] = sum(device.errors for device in devices)
    # cores(elapsed) is busy / elapsed, so one second gives busy seconds.
    out["hardware.dpu_core_busy_s"] = server.dpu_cores(1.0)
    out["hardware.host_core_busy_s"] = server.host_cores(1.0)
    out["hardware.link_bytes"] = sum(
        stats.bytes for stats in server.link.stats.values()
    )
    layers = [server.transport, server.app_net]
    out["net.messages"] = sum(layer.messages for layer in layers)
    out["net.bytes"] = sum(layer.bytes for layer in layers)
    out["net.core_seconds"] = sum(layer.core_seconds for layer in layers)
    units = _units(server)
    directors = [director for director, _ in units]
    out["core.requests_offloaded"] = sum(d.requests_offloaded for d in directors)
    out["core.requests_to_host"] = sum(d.requests_to_host for d in directors)
    out["core.requests_relayed"] = sum(d.requests_relayed for d in directors)
    out["core.breaker_opens"] = sum(
        d.breaker.times_opened for d in directors if d.breaker is not None
    )
    channels = [
        channel
        for _, backend in units
        for channel in backend.file_service.channels
    ]
    out["core.dma_fetched_batches"] = sum(c.fetched_batches for c in channels)
    out["_dma_fetched_requests"] = sum(c.fetched_requests for c in channels)
    out["core.file_service_requests"] = sum(
        backend.file_service.requests_executed for _, backend in units
    )
    out["core.dedup_hits"] = server.dedup.hits if server.dedup is not None else 0
    steering = getattr(server, "steering", None)
    if steering is not None:
        out["topology.messages_steered"] = steering.messages_steered
        out["_requests_steered"] = sum(steering.request_loads)
        out["topology.failovers"] = steering.failovers
        out["topology.dropped"] = steering.dropped
    replicator = getattr(server, "replicator", None)
    if replicator is not None:
        out["topology.mirrored_writes"] = replicator.mirrored_writes
        out["topology.solo_acks"] = replicator.solo_acks
        out["topology.handoffs"] = replicator.handoffs
        out["topology.catchup_replays"] = replicator.catchup_replays
    gate = getattr(server, "qos", None)
    if gate is not None:
        totals = gate.totals
        out["topology.qos_admitted"] = totals.admitted
        out["topology.qos_shed"] = totals.shed
        out["_qos_submitted"] = totals.submitted
        out["topology.qos_max_queue_depth"] = totals.max_depth
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive_ratios(layers: Dict[str, float], attempted: int) -> Dict[str, float]:
    """Turn summed counters into the declared metrics (ratios last)."""
    get = layers.get
    layers["core.offload_share"] = _ratio(
        get("core.requests_offloaded", 0),
        get("core.requests_offloaded", 0) + get("core.requests_to_host", 0),
    )
    layers["core.dma_requests_per_batch"] = _ratio(
        get("_dma_fetched_requests", 0), get("core.dma_fetched_batches", 0)
    )
    layers["topology.relay_share"] = _ratio(
        get("core.requests_relayed", 0), get("_requests_steered", 0)
    )
    layers["topology.qos_shed_share"] = _ratio(
        get("topology.qos_shed", 0), get("_qos_submitted", 0)
    )
    layers["sim.events_per_op"] = _ratio(get("sim.events", 0), attempted)
    return {k: v for k, v in layers.items() if not k.startswith("_")}


# ----------------------------------------------------------------------
# the workload protocol
# ----------------------------------------------------------------------
class Workload:
    """setup() -> run() -> audit(); the runner times each from outside.

    ``audit`` returns a dict: ``attempted``; ``failed`` (operations whose
    outcome was wrong or lost); ``refused`` (operations the server or
    the retry budget turned away by design — only the overload workload
    has any); ``problems`` (strings; any makes the run incorrect);
    ``e2e`` (the simulated end-to-end metrics) and ``layers`` (counters
    read from public attributes).
    """

    name = ""
    #: One line for BENCHMARK.json and the README table.
    why = ""

    def __init__(self, seed: int, scale: float, rec: Recorder) -> None:
        self.seed = seed
        self.scale = scale
        self.rec = rec
        self.problems: List[str] = []

    def ops(self, full: int) -> int:
        return max(200, int(full * self.scale))

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(f"{self.name}: {message}")

    def sustained(self, result: ClientResult, ops: int, offered: float) -> float:
        """``offered`` if this rung met the workload's limit, else 0."""
        met = meets_limit(
            result.latencies, ops, self.P99_LIMIT, result.achieved_iops, offered
        )
        return offered if met else 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def audit(self) -> dict:
        raise NotImplementedError

    # -- shared bring-up ------------------------------------------------
    def build_filesystem(
        self, env: Environment, files: int, file_bytes: int
    ) -> Tuple[DdsFileSystem, List[int]]:
        rec = self.rec
        with rec.span("storage.ramdisk"):
            disk = RamDisk(files * file_bytes + DISK_SLACK)
        with rec.span("storage.filesystem"):
            fs = DdsFileSystem(env, SpdkBdev(env, disk))
            fs.create_directory("bench")
        file_ids = []
        with rec.span("storage.preallocate"):
            for index in range(files):
                file_id = fs.create_file("bench", f"file-{index}")
                fs.preallocate(file_id, file_bytes)
                file_ids.append(file_id)
        return fs, file_ids

    def audit_responses(
        self, tap: ResponseTap, attempted: int, expected_failures: int,
        read_bytes: Optional[int], zero_reads: bool,
    ) -> int:
        """ok-response count == attempted - counted failures; sampled
        read payloads have the right length (and are zero where nothing
        ever wrote).  Returns the number of missing ok responses."""
        missing = attempted - expected_failures - len(tap.ok_ids)
        self.check(
            missing == 0,
            f"{len(tap.ok_ids)} ok responses for {attempted} attempted "
            f"with {expected_failures} counted failures",
        )
        if read_bytes is not None:
            self.check(
                tap.ok_bytes == read_bytes,
                f"read payload bytes {tap.ok_bytes} != {read_bytes}",
            )
        if zero_reads:
            for response in tap.sample:
                data = response.data
                self.check(
                    data is not None and data.count(0) == len(data),
                    f"read {response.request_id} of a never-written slot "
                    "returned non-zero bytes",
                )
        return max(0, missing)

    def audit_written_slots(
        self, factory: RequestFactory, acked: set,
        filesystem_of: Callable[[int], DdsFileSystem],
    ) -> int:
        """Every acknowledged write's slot holds that write's payload."""
        wrong = 0
        with self.rec.span("storage.readback"):
            for request_id, (file_id, offset) in factory.writes.items():
                if request_id not in acked:
                    continue
                found = filesystem_of(file_id).read_sync(file_id, offset, IO_SIZE)
                if found != factory.payload(request_id):
                    wrong += 1
        self.check(wrong == 0, f"{wrong} acknowledged writes not on disk")
        return wrong


def _client_e2e(server, result: ClientResult, completed: int) -> Dict[str, float]:
    """Latency and per-operation CPU cost of one client run.

    Cores are reported per operation (core-microseconds per successful
    operation) because ``cores = busy / elapsed`` inherits the Poisson
    noise of ``elapsed``; the ratio to throughput does not.
    """
    elapsed = result.elapsed
    host_busy = (server.host_cores(elapsed) + result.client_cores) * elapsed
    dpu_busy = server.dpu_cores(elapsed) * elapsed
    return {
        "sim_iops": result.achieved_iops,
        "sim_p50_us": result.p50 * 1e6,
        "sim_p99_us": result.p99 * 1e6,
        "sim_host_us_per_op": _ratio(host_busy, completed) * 1e6,
        "sim_dpu_us_per_op": _ratio(dpu_busy, completed) * 1e6,
        "sim_host_cores": server.host_cores(elapsed),
        "sim_dpu_cores": server.dpu_cores(elapsed),
    }


class _Cluster:
    """One single-DPU ``dds-offload`` deployment (what
    ``repro.bench.harness.build_cluster`` assembles, with spans)."""

    DB_BYTES = 192 << 20

    def __init__(self, workload: Workload) -> None:
        self.env = Environment()
        self.fs, (self.file_id,) = workload.build_filesystem(
            self.env, 1, self.DB_BYTES
        )
        with workload.rec.span("topology.server_init"):
            self.server = build_server(
                "dds-offload", self.env, NetworkLink(self.env), self.fs
            )
        self.tap = ResponseTap(self.server)

    def client_config(self, offered: float, ops: int, seed: int) -> ClientConfig:
        return ClientConfig(
            offered_iops=offered, total_requests=ops, io_size=IO_SIZE,
            batch=4, max_outstanding=160, file_size=self.DB_BYTES, seed=seed,
        )


# ----------------------------------------------------------------------
# 1. offload_read
# ----------------------------------------------------------------------
class OffloadRead(Workload):
    name = "offload_read"
    why = (
        "semi-open 1 KiB reads on dds-offload, four rungs 200K-800K x 10k "
        "ops: the Fig. 14-16 path, all sim/core/hardware/net, ~2 ms bring-up"
    )
    RUNGS = (200e3, 400e3, 600e3, 800e3)
    #: Latency and CPU cost are read at 400K (55% of peak: steady across
    #: seeds); throughput is the best rung (the saturated one: peak IOPS).
    LATENCY_RUNG = 400e3
    OPS_PER_RUNG = 10_000
    P99_LIMIT = 250e-6

    def setup(self) -> None:
        self.clusters = [_Cluster(self) for _ in self.RUNGS]
        self.results: List[ClientResult] = []

    def run(self) -> None:
        ops = self.ops(self.OPS_PER_RUNG)
        for rate, cluster in zip(self.RUNGS, self.clusters):
            client = WorkloadClient(
                cluster.env, cluster.tap, cluster.file_id,
                cluster.client_config(rate, ops, self.seed),
            )
            with self.rec.span("core.client_run"):
                self.results.append(client.run())

    def audit(self) -> dict:
        ops = self.ops(self.OPS_PER_RUNG)
        layers: Dict[str, float] = {}
        failed = 0
        slo_iops = 0.0
        for rate, cluster, result in zip(self.RUNGS, self.clusters, self.results):
            failed += self.audit_responses(
                cluster.tap, ops, 0, read_bytes=ops * IO_SIZE, zero_reads=True
            )
            add_into(layers, server_counters(cluster.server))
            add_into(layers, {"sim.events": cluster.env.scheduled_count})
            slo_iops = max(slo_iops, self.sustained(result, ops, rate))
        at = self.RUNGS.index(self.LATENCY_RUNG)
        e2e = _client_e2e(self.clusters[at].server, self.results[at], ops)
        e2e["sim_iops"] = max(result.achieved_iops for result in self.results)
        e2e["sim_slo_iops"] = slo_iops
        return {
            "attempted": ops * len(self.RUNGS), "failed": failed, "refused": 0,
            "e2e": e2e, "layers": layers,
        }


# ----------------------------------------------------------------------
# 2. offload_mixed_rw
# ----------------------------------------------------------------------
class OffloadMixedRw(Workload):
    name = "offload_mixed_rw"
    why = (
        "semi-open 250K offered, 20k ops, 60% writes on dds-offload: writes "
        "leave the fast path (DMA ring, host file service, real bytes), "
        "catching a read-path gain paid for by the write path"
    )
    OFFERED = 250e3
    OPS = 20_000
    #: Reads answer in ~100 us and writes in ~340 us, nothing in between:
    #: at an even mix the median flips between the two modes from seed to
    #: seed (136 vs 309 us).  At 60% writes both p50 and p99 sit in the
    #: write mode, which is the path this workload is here to watch.
    WRITE_FRACTION = 0.6
    P99_LIMIT = 1e-3

    def setup(self) -> None:
        self.cluster = _Cluster(self)
        self.factory = RequestFactory(
            [self.cluster.file_id], _Cluster.DB_BYTES, self.WRITE_FRACTION,
            self.seed,
        )

    def run(self) -> None:
        cluster = self.cluster
        client = WorkloadClient(
            cluster.env, cluster.tap, cluster.file_id,
            cluster.client_config(self.OFFERED, self.ops(self.OPS), self.seed),
            request_factory=self.factory,
        )
        with self.rec.span("core.client_run"):
            self.result = client.run()

    def audit(self) -> dict:
        ops = self.ops(self.OPS)
        cluster, result = self.cluster, self.result
        reads = ops - len(self.factory.writes)
        failed = self.audit_responses(
            cluster.tap, ops, 0, read_bytes=reads * IO_SIZE, zero_reads=False
        )
        failed += self.audit_written_slots(
            self.factory, cluster.tap.ok_ids, lambda _file_id: cluster.fs
        )
        layers = server_counters(cluster.server)
        layers["sim.events"] = cluster.env.scheduled_count
        self.check(
            layers["core.requests_to_host"] > 0,
            "no request reached the host: the write path was not exercised",
        )
        e2e = _client_e2e(cluster.server, result, ops)
        e2e["sim_slo_iops"] = self.sustained(result, ops, self.OFFERED)
        return {
            "attempted": ops, "failed": failed, "refused": 0,
            "e2e": e2e, "layers": layers,
        }


# ----------------------------------------------------------------------
# 3. sharded_repl_rw
# ----------------------------------------------------------------------
class _AckTimeline:
    """Client observer: feeds the invariant checker and stamps each ok
    acknowledgement, for the dark-window count."""

    def __init__(self, env: Environment, checker) -> None:
        self.env = env
        self.checker = checker
        self.acks: List[Tuple[float, int]] = []

    def on_issue(self, request: IoRequest) -> None:
        self.checker.on_issue(request)

    def on_ack(self, request: IoRequest, response: IoResponse) -> None:
        self.checker.on_ack(request, response)
        if response.ok:
            self.acks.append((self.env.now, request.file_id))

    def on_give_up(self, request: IoRequest) -> None:
        self.checker.on_give_up(request)


class ShardedReplRw(Workload):
    name = "sharded_repl_rw"
    why = (
        "semi-open + retries, 400K offered, 10k ops, 25% writes over 32x4 MiB "
        "files on 4 replicated shards, one killed mid-run: the heavy bring-up "
        "(clone_into), steering, quorum, catch-up, the one real audit"
    )
    OFFERED = 400e3
    OPS = 10_000
    FILES = 32
    FILE_BYTES = 4 << 20
    SHARDS = 4
    KILLED = 2
    P99_LIMIT = 2e-3
    DARK_BUCKET = 5e-4
    #: Simulated milliseconds the drain may take to see the rejoin.
    DRAIN_LIMIT_MS = 600

    def setup(self) -> None:
        rec = self.rec
        self.env = env = Environment()
        self.fs, self.file_ids = self.build_filesystem(
            env, self.FILES, self.FILE_BYTES
        )
        with rec.span("topology.server_init"):
            self.server = server = ShardedOffloadServer(
                env, NetworkLink(env), self.fs, shard_count=self.SHARDS
            )
        with rec.span("topology.enable_resilience"):
            self.dedup = server.enable_resilience()
        with rec.span("topology.enable_replication"):
            self.checker = ReplicationInvariantChecker(env)
            server.enable_replication(self.checker)
        # The outage sits inside the offered traffic whatever the scale:
        # dark from 60% to 80% of the time the arrivals take.
        duration = self.ops(self.OPS) / self.OFFERED
        self.kill_at, self.down_for = 0.6 * duration, 0.2 * duration
        with rec.span("faults.arm"):
            plan = FaultPlan(
                seed=self.seed,
                events=(ShardKill(
                    at=self.kill_at, down_for=self.down_for, shard=self.KILLED
                ),),
            )
            self.injector = FaultInjector(env, server, plan).arm()
        self.factory = RequestFactory(
            self.file_ids, self.FILE_BYTES, 0.25, self.seed
        )
        self.tap = ResponseTap(server)
        self.timeline = _AckTimeline(env, self.checker)

    def _rejoined(self) -> bool:
        return any(r.kind == "shard-recover" for r in self.injector.fault_log)

    def run(self) -> None:
        env = self.env
        config = ClientConfig(
            offered_iops=self.OFFERED, total_requests=self.ops(self.OPS),
            io_size=IO_SIZE, batch=4, connections=16, max_outstanding=512,
            file_size=self.FILE_BYTES, seed=self.seed,
        )
        client = DdsClient(
            env, self.tap, self.file_ids[0], config,
            request_factory=self.factory, observer=self.timeline,
        )
        with self.rec.span("core.client_run"):
            self.result = client.run()
        # Bounded drain to the rejoin: anti-entropy catch-up outlasts the
        # traffic, and the resilience layer keeps the event queue busy
        # forever, so a bare env.run() would never return.
        with self.rec.span("sim.drain"):
            for _ in range(self.DRAIN_LIMIT_MS):
                if self._rejoined():
                    break
                env.run(until=env.timeout(1e-3))
            env.run(until=env.timeout(1e-3))

    def audit(self) -> dict:
        ops = self.ops(self.OPS)
        server, result = self.server, self.result
        kinds = [record.kind for record in self.injector.fault_log]
        self.check("shard-kill" in kinds, "the shard kill was not logged")
        self.check("shard-recover" in kinds, "the shard never rejoined")
        failed = result.failed_requests
        self.check(failed == 0, f"{failed} requests given up after retries")
        failed += self.audit_responses(
            self.tap, ops, result.failed_requests, read_bytes=None,
            zero_reads=False,
        )
        with self.rec.span("faults.check"):
            report = self.checker.check(server, dedup=self.dedup)
        self.check(report.ok, "replication/durability audit failed: " + "; ".join(
            (report.lost_writes + report.invariant_violations)[:3]
        ))
        failed += len(report.lost_writes)
        failed += self.audit_written_slots(
            self.factory, self.tap.ok_ids,
            lambda file_id: server.filesystems[server.shard_map.owner(file_id)],
        )
        dead_files = {
            file_id for file_id in self.file_ids
            if server.shard_map.owner(file_id) == self.KILLED
        }
        buckets = [0] * max(1, int(round(self.down_for / self.DARK_BUCKET)))
        for stamp, file_id in self.timeline.acks:
            since = stamp - self.kill_at
            if file_id in dead_files and 0 <= since < self.down_for:
                buckets[min(len(buckets) - 1, int(since / self.DARK_BUCKET))] += 1
        layers = server_counters(server)
        layers["sim.events"] = self.env.scheduled_count
        layers["core.retries"] = result.retries
        layers["core.budget_denied"] = result.budget_denied
        layers["faults.injected"] = kinds.count("shard-kill")
        layers["faults.violations"] = len(self.checker.violations)
        layers["faults.dark_buckets"] = sum(1 for count in buckets if count == 0)
        e2e = _client_e2e(server, result, ops - result.failed_requests)
        e2e["sim_slo_iops"] = self.sustained(result, ops, self.OFFERED)
        return {
            "attempted": ops, "failed": failed, "refused": 0,
            "e2e": e2e, "layers": layers,
        }


# ----------------------------------------------------------------------
# 4. overload_open_loop
# ----------------------------------------------------------------------
class _IssueClock:
    """Engine observer: when, in simulated time, each tenant issued."""

    def __init__(self, env: Environment, tenants: int) -> None:
        self.env = env
        self.issued: List[List[float]] = [[] for _ in range(tenants)]

    def on_issue(self, request: IoRequest) -> None:
        self.issued[request.tag].append(self.env.now)

    def on_ack(self, request: IoRequest, response: IoResponse) -> None:
        pass

    def on_give_up(self, request: IoRequest) -> None:
        pass


class OverloadOpenLoop(Workload):
    name = "overload_open_loop"
    why = (
        "open loop at 2x the 52K-IOPS capacity, 125 ms, 3 interactive + 1 "
        "batch tenant, 64 KiB reads behind the QoS gate and a retry budget: "
        "workload, topology.qos, core.retry/dedup dominate; sheds by design"
    )
    CAPACITY = 52_000.0  # measured single-shard 64 KiB-read saturation
    MULTIPLIER = 2.0
    HORIZON = 125e-3
    #: Long enough for every retry chain to settle, so that each offered
    #: operation ends acknowledged or refused and none is left open.
    DRAIN = 30e-3
    READ_BYTES = 64 << 10
    FILES = 8
    FILE_BYTES = 1 << 20
    P99_LIMIT = 5e-3

    def tenant_specs(self) -> List[TenantSpec]:
        total = self.MULTIPLIER * self.CAPACITY
        specs = [
            TenantSpec(
                f"int-{i}", i, rate=total * 0.2 / 3, weight=4.0, slo_p99=5e-3
            )
            for i in range(3)
        ]
        specs.append(TenantSpec("batch-0", 3, rate=total * 0.8, weight=1.0))
        return specs

    def setup(self) -> None:
        rec = self.rec
        self.env = env = Environment()
        self.fs, self.file_ids = self.build_filesystem(
            env, self.FILES, self.FILE_BYTES
        )
        with rec.span("topology.server_init"):
            self.server = server = ShardedOffloadServer(
                env, NetworkLink(env), self.fs, shard_count=1
            )
        self.horizon = max(2e-3, self.HORIZON * self.scale)
        self.specs = self.tenant_specs()
        self.clock = _IssueClock(env, len(self.specs))
        self.tap = ResponseTap(server)
        with rec.span("workload.engine_init"):
            self.engine = engine = OpenLoopTrafficEngine(
                env, self.tap, self.specs, self.file_ids,
                horizon=self.horizon, io_size=self.READ_BYTES,
                file_bytes=self.FILE_BYTES, seed=self.seed,
                retry_policy=RetryPolicy(max_attempts=8, timeout=2e-3),
                retry_budget=RetryBudget(capacity=32.0, refill_ratio=0.1),
                observer=self.clock, drain=self.DRAIN,
            )
        with rec.span("topology.enable_resilience"):
            server.enable_resilience()
        with rec.span("topology.enable_qos"):
            server.enable_qos(QosConfig(
                global_rate=0.9 * self.CAPACITY, global_burst=32.0,
                sojourn_target=2e-3,
                weights={f"int-{i}": 4.0 for i in range(3)},
                tenant_of=engine.tenant_for_flow,
            ))

    def run(self) -> None:
        with self.rec.span("workload.engine_run"):
            self.result = self.engine.run()

    def _max_send_lag(self) -> float:
        """Latest issue after its due arrival, in seconds (-1 when the
        arrival streams could not be regenerated).

        The engine derives each tenant's arrival stream from the seed
        alone, so the due times can be drawn again here with no server.
        """
        root = SeededRng(self.seed)
        lag = 0.0
        for spec, issued in zip(self.specs, self.clock.issued):
            stream = root.spawn(spec.name).spawn("arrivals")
            due = list(
                spec.arrivals.arrivals(stream, RateCurve(spec.rate), self.horizon)
            )
            if len(due) != len(issued):
                return -1.0
            lag = max([lag] + [at - want for at, want in zip(issued, due)])
        return lag

    def audit(self) -> dict:
        result, server = self.result, self.server
        offered = result.offered
        unsettled = offered - result.acked - result.failed
        self.check(unsettled == 0, f"{unsettled} operations never settled")
        failed = max(0, unsettled)
        # Late and duplicate acknowledgements reach the tap but not the
        # engine's count of first, in-time acknowledgements.
        missing = result.acked + result.late_acks - len(self.tap.ok_ids)
        self.check(missing == 0, f"{missing} acknowledged reads left no response")
        self.check(
            self.tap.ok_bytes == len(self.tap.ok_ids) * self.READ_BYTES,
            "an acknowledged read returned a short payload",
        )
        for response in self.tap.sample:
            self.check(
                response.data.count(0) == self.READ_BYTES,
                f"read {response.request_id} returned non-zero bytes",
            )
        failed += max(0, missing)
        layers = server_counters(server)
        layers["sim.events"] = self.env.scheduled_count
        layers["core.retries"] = result.retries
        layers["core.budget_denied"] = result.budget_denied
        layers["workload.offered"] = offered
        layers["workload.acked"] = result.acked
        layers["workload.failed"] = result.failed
        layers["workload.late_acks"] = result.late_acks
        layers["workload.amplification"] = result.amplification
        layers["workload.max_send_lag_us"] = self._max_send_lag() * 1e6
        self.check(
            layers["topology.qos_shed"] > 0,
            "the QoS gate shed nothing: the server was not overloaded",
        )
        latencies = sorted(
            latency
            for outcome in result.tenants.values()
            for latency in outcome.latencies
        )
        elapsed = result.elapsed
        host_busy = server.host_cores(1.0) + self.engine.client_pool.busy_time
        e2e = {
            "sim_iops": result.acked / self.horizon,
            "sim_p50_us": percentile(latencies, 50) * 1e6,
            "sim_p99_us": percentile(latencies, 99) * 1e6,
            "sim_host_us_per_op": _ratio(host_busy, result.acked) * 1e6,
            "sim_dpu_us_per_op": _ratio(server.dpu_cores(1.0), result.acked) * 1e6,
            "sim_host_cores": server.host_cores(elapsed),
            "sim_dpu_cores": server.dpu_cores(elapsed),
            # Offered twice what it can serve: by the rule (refusals count
            # as over the limit) no rate is sustainable, so this is 0.
            "sim_slo_iops": 0.0,
        }
        return {
            "attempted": offered, "failed": failed, "refused": result.failed,
            "e2e": e2e, "layers": layers,
        }


# ----------------------------------------------------------------------
# 5. pushdown_scan
# ----------------------------------------------------------------------
class PushdownScan(Workload):
    name = "pushdown_scan"
    why = (
        "closed loop, one verified scan at a time: 3 pipelines x 3 placements "
        "x 128 pages, selectivity 0.05; table build and interpreter crunch "
        "bytes while sim idles (~2e4 events): the engine-change control"
    )
    PAGES = 128
    SELECTIVITY = 0.05

    def setup(self) -> None:
        # The scanner's constructor is admission plus table load, and a
        # user pays it per scan, so it belongs to the run phase.
        self.pages = max(8, int(self.PAGES * self.scale))
        self.cells: List[Tuple[str, str, Environment, PipelineScanner, list]] = []
        self.page_latencies: List[float] = []

    def _timed_pages(self, env: Environment, scanner: PipelineScanner) -> None:
        """Stamp each page scan in simulated time (adds no event)."""
        scan_page = scanner.scan_page
        latencies = self.page_latencies

        def timed(page_id: int):
            start = env.now
            selected = yield from scan_page(page_id)
            latencies.append(env.now - start)
            return selected

        scanner.scan_page = timed

    def run(self) -> None:
        rec = self.rec
        for pipeline in PIPELINES:
            for placement in PLACEMENTS:
                env = Environment()
                with rec.span("pushdown.scanner_init"):
                    scanner = PipelineScanner(
                        env, canonical_pipeline(pipeline), pages=self.pages,
                        selectivity=self.SELECTIVITY, placement=placement,
                        seed=self.seed,
                    )
                self._timed_pages(env, scanner)
                with rec.span("pushdown.scan_table"):
                    scan = env.process(scanner.scan_table())
                    env.run(until=scan)
                self.cells.append((pipeline, placement, env, scanner, scan.value))

    def audit(self) -> dict:
        records_per_cell = self.pages * RECORDS_PER_PAGE
        layers: Dict[str, float] = {}
        wire: Dict[Tuple[str, str], int] = {}
        wrong_cells = 0
        scan_seconds = host_busy = dpu_busy = 0.0
        for pipeline, placement, env, scanner, selected in self.cells:
            good = len(selected) == scanner.expected_hits and all(
                record.startswith(b"needle-") for _slot, record in selected
            )
            if scanner.has_aggregate:
                good = good and scanner.acc[:3] == (
                    scanner.expected_sum, scanner.expected_hits,
                    scanner.expected_max_weight,
                )
            self.check(good, f"{pipeline}/{placement} missed the ground truth")
            wrong_cells += not good
            wire[(pipeline, placement)] = scanner.wire_bytes
            scan_seconds += env.now
            host_busy += scanner.client_core.busy_time
            dpu_busy += scanner.dpu_core.busy_time + scanner.spdk_core.busy_time
            add_into(layers, {
                "sim.events": env.scheduled_count,
                "hardware.ssd_ops": scanner.fs.bdev.device.stats.ops,
                "hardware.ssd_errors": scanner.fs.bdev.device.errors,
                "hardware.link_bytes": sum(
                    stats.bytes for stats in scanner.link.stats.values()
                ),
                "pushdown.wire_bytes": scanner.wire_bytes,
                "pushdown.dpu_core_ms": scanner.dpu_core.busy_time * 1e3,
                "pushdown.client_core_ms": scanner.client_core.busy_time * 1e3,
            })
        layers["hardware.dpu_core_busy_s"] = dpu_busy
        layers["hardware.host_core_busy_s"] = host_busy
        layers["pushdown.wire_reduction"] = _ratio(
            wire[("filter-project-agg", "ship-all")],
            wire[("filter-project-agg", "dpu-accel")],
        )
        records = records_per_cell * len(self.cells)
        latencies = sorted(self.page_latencies)
        e2e = {
            "sim_iops": _ratio(records, scan_seconds),
            "sim_p50_us": percentile(latencies, 50) * 1e6,
            "sim_p99_us": percentile(latencies, 99) * 1e6,
            "sim_host_us_per_op": _ratio(host_busy, records) * 1e6,
            "sim_dpu_us_per_op": _ratio(dpu_busy, records) * 1e6,
            "sim_host_cores": _ratio(host_busy, scan_seconds),
            "sim_dpu_cores": _ratio(dpu_busy, scan_seconds),
            "sim_slo_iops": 0.0,  # not a request server: no rate ladder
        }
        return {
            "attempted": records, "failed": wrong_cells * records_per_cell,
            "refused": 0, "e2e": e2e, "layers": layers,
        }


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (
        OffloadRead, OffloadMixedRw, ShardedReplRw, OverloadOpenLoop,
        PushdownScan,
    )
}
