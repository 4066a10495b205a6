"""One DPU, built once: the offload server is a list of OffloadShard,
and the paper's DDS is its one-shard case."""

import ast
import pathlib
import tracemalloc

import pytest

import repro.core
from repro.bench.harness import build_cluster
from repro.core.messages import IoRequest, OpCode
from repro.core.traffic_director import TrafficDirector
from repro.faults.injector import FaultInjector
from repro.faults.plan import EngineCrash, FaultPlan, SsdErrorBurst
from repro.hardware import NetworkLink
from repro.hardware.specs import DPU_CPU
from repro.net.packet import FiveTuple
from repro.sim import Environment
from repro.storage import DdsFileSystem, RamDisk, SpdkBdev
from repro.topology.registry import build_server
from repro.topology.sharding import ShardedOffloadServer
from repro.topology.stages import OffloadShard

FLOW = FiveTuple("10.0.0.2", 40_000, "10.0.0.1", 5000)


def test_both_server_kinds_are_made_of_the_same_unit():
    """The paper's DDS is the one-shard case of the one offload server."""
    single = build_cluster("dds-offload", db_bytes=4 << 20).server
    sharded = build_cluster("dds-offload-shard2", db_bytes=4 << 20).server
    assert type(single) is type(sharded) is ShardedOffloadServer
    assert [type(s) for s in single.shards + sharded.shards] == [OffloadShard] * 3
    unit = single.shards[0]
    assert single.directors == [unit.director]
    assert single.filesystems == [unit.backend.filesystem]
    assert single.shard_map.members == (0,)
    assert unit.director.owner_of == single.owner_of
    # Every director reads the ring size off its deployment's map, so a
    # membership change moves the lookup charge with it.
    assert unit.director.ring_size() == 1
    assert [d.ring_size() for d in sharded.directors] == [2, 2]
    sharded.shard_map.add_shard()
    assert [d.ring_size() for d in sharded.directors] == [3, 3]


def _receive_only(cluster, requests):
    """One message into shard 0's director, dispatch stubbed out so the
    director cores keep only the receive rule's bookings.  Returns the
    ingress core, the core times booked on it and the events taken."""
    env, server = cluster.env, cluster.server
    env.run()
    for director in server.directors:
        director._dispatch = lambda core, flow, batch, respond: iter(())
    director = server.directors[0]
    core = director.core_for(FLOW)
    booked = []
    execute = core.execute

    def recording(core_time):
        booked.append(core_time)
        return execute(core_time)

    core.execute = recording
    before = env.scheduled_count
    env.process(director.receive_message(FLOW, requests, lambda r: None))
    env.run()
    return core, booked, env.scheduled_count - before


def _reads(file_ids):
    return [
        IoRequest(OpCode.READ, index, file_id, 0, 512)
        for index, file_id in enumerate(file_ids)
    ]


def test_one_shard_books_one_receive_hold_without_the_lookup():
    """RX·p + OFFPRED·n in one hold: a one-member ring needs no walk."""
    cluster = build_cluster(shards=1, files=8, file_bytes=1 << 20)
    requests = _reads(cluster.file_ids[:3])
    core, booked, events = _receive_only(cluster, requests)
    link = cluster.server.link
    packets = link.packets_for(sum(r.wire_size for r in requests))
    receive = (
        TrafficDirector.RX_COST_PER_PACKET * packets
        + TrafficDirector.OFFPRED_COST * len(requests)
    )
    assert booked == [receive]
    assert core.busy_time == receive / DPU_CPU.speed
    assert events == 2  # the receive process, its one hold


def test_two_shards_book_one_receive_hold_then_one_forward():
    """RX·p + LOOKUP·n + OFFPRED·local, then one forward per relayed
    batch; the relayed batch pays its own receive where it lands."""
    cluster = build_cluster(shards=2, files=8, file_bytes=1 << 20)
    local, remote = sorted(cluster.files_on(0)), sorted(cluster.files_on(1))
    requests = _reads([local[0], remote[0], local[1], remote[1], local[2]])
    core, booked, events = _receive_only(cluster, requests)
    link = cluster.server.link
    packets = link.packets_for(sum(r.wire_size for r in requests))
    relayed = [r for r in requests if r.file_id in remote]
    receive = (
        TrafficDirector.RX_COST_PER_PACKET * packets
        + TrafficDirector.SHARD_LOOKUP_COST * len(requests)
        + TrafficDirector.OFFPRED_COST * 3
    )
    forward = TrafficDirector.FORWARD_COST_PER_PACKET * link.packets_for(
        sum(r.wire_size for r in relayed)
    )
    assert booked == [receive, forward]
    speed = DPU_CPU.speed
    assert core.busy_time == receive / speed + forward / speed
    peer = cluster.server.directors[1]
    assert peer.relayed_messages == 1
    assert cluster.server.directors[0].requests_relayed == 2
    # The receive process and its two holds; the relay hop's process,
    # wire timeout, and wait on the peer's receive process, which takes
    # one hold.
    assert events == 8


def test_single_dpu_arms_the_same_breaker_thresholds_as_a_shard(monkeypatch):
    monkeypatch.setattr(ShardedOffloadServer, "BREAKER_THRESHOLD", 7)
    monkeypatch.setattr(ShardedOffloadServer, "BREAKER_RECOVERY", 123e-6)
    monkeypatch.setattr(ShardedOffloadServer, "BREAKER_SATURATION", 9)
    server = build_cluster("dds-offload", db_bytes=4 << 20).server
    server.enable_resilience()
    director = server.shards[0].director
    breaker = director.breaker
    assert director.dedup is server.dedup is not None
    assert breaker.failure_threshold == 7 and breaker.recovery_time == 123e-6
    assert breaker.saturation_threshold == 9


@pytest.mark.parametrize("kind", ["dds-offload", "dds-offload-shard2"])
def test_resilience_enables_once(kind):
    """A second dedup table would let a retried write re-execute."""
    server = build_cluster(kind, db_bytes=4 << 20).server
    dedup = server.enable_resilience()
    with pytest.raises(RuntimeError, match="resilience is already enabled"):
        server.enable_resilience()
    assert server.dedup is dedup


@pytest.mark.parametrize("replicated", [True, False])
def test_every_live_director_routes_to_the_acting_leader(replicated):
    cluster = build_cluster(shards=3, files=12, file_bytes=1 << 20)
    server = cluster.server
    if replicated:
        server.enable_replication()
    server.kill_shard(1)
    for file_id in cluster.file_ids:
        owner = server.shard_map.owner(file_id)
        if replicated:
            owner = server.replicator.groups[owner].leader
            assert server.shards[owner].alive
        for live in (0, 2):
            assert server.shards[live].director.owner_of(file_id) == owner


@pytest.mark.parametrize("kind", ["dds-offload", "dds-files"])
def test_fault_plan_reaches_device_and_engine_on_one_dpu(kind):
    cluster = build_cluster(kind, db_bytes=4 << 20)
    env, server = cluster.env, cluster.server
    events = [SsdErrorBurst(at=10e-6, count=1)]
    if kind == "dds-offload":
        events.append(EngineCrash(at=10e-6, down_for=500e-6))
    FaultInjector(env, server, FaultPlan(1, tuple(events))).arm()
    env.run(until=20e-6)
    assert kind != "dds-offload" or server.shards[0].engine.crashed
    for request_id, ok in ((1, False), (2, True)):
        read = IoRequest(OpCode.READ, request_id, cluster.file_id, 4096, 512)
        responses = []
        env.run(until=server.submit(FLOW, [read], responses.append))
        assert responses[0].ok is ok
    assert server.filesystems[0].bdev.device.errors == 1
    env.run(until=600e-6)
    assert kind != "dds-offload" or not server.shards[0].engine.crashed


def test_core_imports_topology_only_from_server():
    """Topology builds on core; only ``core/server.py`` looks back."""
    for path in pathlib.Path(repro.core.__file__).parent.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.add(getattr(node, "module", None) or "")
                names.update(alias.name for alias in node.names)
        imports_topology = any("topology" in name.split(".") for name in names)
        assert path.name == "server.py" or not imports_topology, path.name


def _class_bases(path):
    """{class name: [base names]} of every class a source file defines."""
    return {
        node.name: [
            getattr(base, "id", None) or getattr(base, "attr", None)
            for base in node.bases
        ]
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }


def test_a_solution_without_an_offload_engine_is_not_a_class():
    """``build_server`` composes it from the spec; only the offload
    server, which has behaviour of its own, subclasses the pipeline."""
    package = pathlib.Path(repro.core.__file__).parent.parent
    subclasses = [
        name
        for path in package.rglob("*.py")
        for name, bases in _class_bases(path).items()
        if "PipelineServer" in bases
    ]
    assert subclasses == ["ShardedOffloadServer"]


def test_baselines_define_stages_only():
    for path in (
        pathlib.Path(repro.core.__file__).parent.parent / "baselines"
    ).glob("*.py"):
        for name, bases in _class_bases(path).items():
            assert set(bases) <= {"Stage", "TransportStage"}, name


def test_dpu_bring_up_commits_memory_by_use_not_capacity():
    """Bringing up one DPU allocates under 1 MiB: the declared cache
    capacity (``OffloadShard.CACHE_ITEMS``) and the DMA pool's budget
    are reservations, and nothing has been cached or leased yet."""
    env = Environment()
    fs = DdsFileSystem(env, SpdkBdev(env, RamDisk(8 << 20)))
    fs.create_directory("bench")
    fs.preallocate(fs.create_file("bench", "database"), 4 << 20)
    link = NetworkLink(env)
    tracemalloc.start()
    try:
        server = build_server("dds-offload", env, link, fs)
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert server.shards[0].cache_table.max_items == OffloadShard.CACHE_ITEMS
    assert allocated < 1 << 20
