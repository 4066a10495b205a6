"""One DPU, built once: both offload servers are lists of OffloadShard."""

import ast
import pathlib

import pytest

import repro.core
from repro.bench.harness import build_cluster
from repro.core.messages import IoRequest, OpCode
from repro.faults.injector import FaultInjector
from repro.faults.plan import EngineCrash, FaultPlan, SsdErrorBurst
from repro.net.packet import FiveTuple
from repro.topology.stages import OffloadShard

FLOW = FiveTuple("10.0.0.2", 40_000, "10.0.0.1", 5000)


def test_both_server_kinds_are_made_of_the_same_unit():
    single = build_cluster("dds-offload", db_bytes=4 << 20).server
    sharded = build_cluster("dds-offload-shard2", db_bytes=4 << 20).server
    assert [type(s) for s in single.shards + sharded.shards] == [OffloadShard] * 3
    unit = single.shards[0]
    assert unit.engine is single.engine and unit.director is single.director
    assert single.filesystems == [single.backend.filesystem]
    assert single.director.owner_of is None


def test_single_dpu_arms_the_same_breaker_thresholds_as_a_shard():
    server = build_cluster("dds-offload", db_bytes=4 << 20).server
    server.enable_resilience(breaker_threshold=7, breaker_recovery=123e-6, breaker_saturation=9)
    breaker = server.director.breaker
    assert server.director.dedup is server.dedup is not None
    assert breaker.failure_threshold == 7 and breaker.recovery_time == 123e-6
    assert breaker.saturation_threshold == 9


@pytest.mark.parametrize("kind", ["dds-offload", "baseline", "dds-offload-shard2"])
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
    assert kind != "dds-offload" or server.engine.crashed
    for request_id, ok in ((1, False), (2, True)):
        read = IoRequest(OpCode.READ, request_id, cluster.file_id, 4096, 512)
        responses = []
        env.run(until=server.submit(FLOW, [read], responses.append))
        assert responses[0].ok is ok
    assert server.filesystems[0].bdev.device.errors == 1
    env.run(until=600e-6)
    assert kind != "dds-offload" or not server.engine.crashed


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
    deployments, which have behaviour of their own, subclass the
    pipeline."""
    package = pathlib.Path(repro.core.__file__).parent.parent
    subclasses = [
        name
        for path in package.rglob("*.py")
        for name, bases in _class_bases(path).items()
        if "PipelineServer" in bases
    ]
    assert subclasses == ["OffloadServerBase"]


def test_baselines_define_stages_only():
    for path in (
        pathlib.Path(repro.core.__file__).parent.parent / "baselines"
    ).glob("*.py"):
        for name, bases in _class_bases(path).items():
            assert set(bases) <= {"Stage", "TransportStage"}, name
