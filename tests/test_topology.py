"""The topology layer: specs, registry, stages, and sharding."""

import pytest

from repro.bench import harness
from repro.bench.harness import SOLUTIONS, build_cluster
from repro.core.messages import IoRequest, OpCode
from repro.net.packet import FiveTuple
from repro.sim import Environment
from repro.storage.disk import RamDisk, SpdkBdev
from repro.storage.filesystem import DdsFileSystem
from repro.topology.registry import (
    SOLUTIONS as REGISTRY,
    headline_solutions,
    resolve,
)
from repro.topology.sharding import (
    ConsistentHashShardMap,
    flow_shard,
    mirror_filesystem,
)
from repro.topology.spec import DeploymentSpec, FilesystemKind, TransportKind
from repro.topology.stages import Stage, StageKind

FLOW = FiveTuple("10.0.0.2", 40_000, "10.0.0.1", 5000)


class TestRegistry:
    """The registry is the single source of truth for solution names."""

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_every_registered_solution_builds_and_serves(self, name):
        cluster = build_cluster(name, db_bytes=4 << 20)
        payload = bytes(range(256)) * 2
        for request in (
            IoRequest(OpCode.WRITE, 1, cluster.file_id, 4096, 512, payload),
            IoRequest(OpCode.READ, 2, cluster.file_id, 4096, 512),
        ):
            responses = []
            done = cluster.server.submit(FLOW, [request], responses.append)
            cluster.env.run(until=done)
            assert len(responses) == 1
            assert responses[0].ok
        assert responses[0].data == payload

    def test_headline_solutions_are_figure16s_ten(self):
        assert SOLUTIONS == headline_solutions()
        assert SOLUTIONS == (
            "local-os", "local-dds", "smb", "smb-direct", "baseline",
            "dds-files", "redy-os", "redy-dds", "dds-offload",
            "dds-offload-rdma",
        )

    def test_ablations_and_shards_registered(self):
        # dds-files-copy used to be buildable but undocumented; now the
        # registry carries every name.
        for name in ("dds-files-copy", "dds-offload-copy",
                     "dds-offload-shard2", "dds-offload-shard4"):
            assert name in REGISTRY
            assert not REGISTRY[name].headline

    def test_unknown_solution_rejected(self):
        with pytest.raises(ValueError, match="unknown solution"):
            build_cluster("nope", db_bytes=4 << 20)

    def test_no_string_dispatch_ladder_remains(self):
        assert not hasattr(harness, "_make_server")

    def test_resolve_passes_specs_through(self):
        spec = REGISTRY["baseline"]
        assert resolve(spec) is spec
        assert resolve("baseline") is spec


class TestDeploymentSpecValidation:
    def test_os_filesystem_rejects_dpus(self):
        with pytest.raises(ValueError, match="dpu_count must be 0"):
            DeploymentSpec("x", "", TransportKind.TCP, FilesystemKind.OS,
                           dpu_count=1)

    def test_dds_filesystem_needs_a_dpu(self):
        with pytest.raises(ValueError, match="dpu_count must be >= 1"):
            DeploymentSpec("x", "", TransportKind.TCP, FilesystemKind.DDS)

    def test_copy_mode_is_dds_only(self):
        with pytest.raises(ValueError, match="copy_mode"):
            DeploymentSpec("x", "", TransportKind.TCP, FilesystemKind.OS,
                           copy_mode=True)

    def test_sharding_requires_offload(self):
        with pytest.raises(ValueError, match="sharding"):
            DeploymentSpec("x", "", TransportKind.TCP, FilesystemKind.DDS,
                           dpu_count=2)

    def test_smb_mounts_os_files_only(self):
        with pytest.raises(ValueError, match="OS file path"):
            DeploymentSpec("x", "", TransportKind.SMB, FilesystemKind.DDS,
                           dpu_count=1)

    def test_offload_needs_tcp_or_rdma(self):
        with pytest.raises(ValueError, match="TCP or RDMA"):
            DeploymentSpec("x", "", TransportKind.REDY, FilesystemKind.DDS,
                           offload=True, dpu_count=1)


class TestStageProtocol:
    def test_unused_hooks_raise(self):
        stage = Stage("bare")
        with pytest.raises(NotImplementedError):
            next(stage.inbound(FLOW, 1024))
        with pytest.raises(NotImplementedError):
            next(stage.serve(IoRequest(OpCode.READ, 1, 1, 0, 64)))

    def test_default_accounting_is_zero(self):
        stage = Stage("bare")
        assert stage.host_cores(1.0) == 0.0
        assert stage.dpu_cores(1.0) == 0.0
        assert stage.client_cores() == 0.0

    def test_pipeline_needs_execution_xor_steering(self):
        cluster = build_cluster("baseline", db_bytes=4 << 20)
        with pytest.raises(ValueError, match="exactly one"):
            cluster.server.set_pipeline([])

    def test_stage_kinds_cover_the_datapath(self):
        assert {k.value for k in StageKind} == {
            "ingest", "transport", "steering", "execution", "completion"
        }

    @pytest.mark.parametrize("name", ["baseline", "dds-files", "redy-os"])
    def test_accounting_is_a_stage_rollup(self, name):
        cluster = build_cluster(name, db_bytes=4 << 20)
        read = IoRequest(OpCode.READ, 1, cluster.file_id, 0, 1024)
        done = cluster.server.submit(FLOW, [read])
        cluster.env.run(until=done)
        server = cluster.server
        elapsed = cluster.env.now
        expected = server.host_pool.cores_consumed(elapsed)
        for stage in server.stages:
            expected += stage.host_cores(elapsed)
        assert server.host_cores(elapsed) == expected


class TestConsistentHashShardMap:
    def test_owner_in_range_and_deterministic(self):
        shard_map = ConsistentHashShardMap(4)
        owners = [shard_map.owner(i) for i in range(1, 2001)]
        assert all(0 <= o < 4 for o in owners)
        assert owners == [shard_map.owner(i) for i in range(1, 2001)]
        assert [ConsistentHashShardMap(4).owner(i) for i in range(1, 2001)] \
            == owners

    def test_every_shard_owns_a_fair_share(self):
        shard_map = ConsistentHashShardMap(4)
        counts = [0, 0, 0, 0]
        for file_id in range(1, 4001):
            counts[shard_map.owner(file_id)] += 1
        assert min(counts) > 4000 / 4 * 0.5

    def test_single_shard_owns_everything(self):
        shard_map = ConsistentHashShardMap(1)
        assert {shard_map.owner(i) for i in range(1, 100)} == {0}

    def test_growing_the_ring_moves_a_minority_of_keys(self):
        before = ConsistentHashShardMap(3)
        after = ConsistentHashShardMap(4)
        moved = sum(
            1 for i in range(1, 3001) if before.owner(i) != after.owner(i)
        )
        assert moved < 3000 * 0.5  # ~1/4 expected; far below a reshuffle

    def test_flow_shard_is_symmetric(self):
        for shards in (2, 4):
            assert flow_shard(FLOW, shards) == \
                flow_shard(FLOW.reversed(), shards)

    def test_flow_shard_matches_rss_hash(self):
        # One keying for ingress RSS and shard steering: flow_shard is
        # rss_hash with the shard count as the bucket count.
        for port in range(41_000, 41_040):
            flow = FiveTuple("10.0.0.2", port, "10.0.0.1", 5000)
            for shards in (2, 3, 4):
                assert flow_shard(flow, shards) == flow.rss_hash(shards)


class TestShardedSteeringStats:
    def test_per_shard_loads_track_steering_decisions(self):
        cluster = build_cluster("dds-offload-shard2", db_bytes=4 << 20)
        steering = cluster.server._steering
        assert steering.messages_steered == 0
        flows = [
            FiveTuple("10.0.0.2", port, "10.0.0.1", 5000)
            for port in range(42_000, 42_012)
        ]
        expected = [0, 0]
        for request_id, flow in enumerate(flows, start=1):
            read = IoRequest(
                OpCode.READ, request_id, cluster.file_id, 4096, 128
            )
            responses = []
            done = cluster.server.submit(flow, [read], responses.append)
            cluster.env.run(until=done)
            assert responses and responses[0].ok
            expected[flow_shard(flow, 2)] += 1
        assert steering.shard_loads == expected
        assert steering.messages_steered == len(flows)


class TestMirrorFilesystem:
    def test_namespace_ids_and_content_preserved(self):
        env = Environment()
        fs = DdsFileSystem(env, SpdkBdev(env, RamDisk(16 << 20)))
        fs.create_directory("d")
        first = fs.create_file("d", "a")
        second = fs.create_file("d", "b")
        fs.write_sync(first, 0, b"alpha" * 1000)
        fs.write_sync(second, 4096, b"beta" * 500)
        mirror = mirror_filesystem(env, fs)
        assert mirror.bdev.disk is not fs.bdev.disk
        for file_id in (first, second):
            assert mirror.file_size(file_id) == fs.file_size(file_id)
            size = fs.file_size(file_id)
            assert mirror.read_sync(file_id, 0, size) == \
                fs.read_sync(file_id, 0, size)
        third = mirror.create_file("d", "c")
        assert third == fs._next_file_id  # id sequences stay aligned

    def test_clone_requires_empty_target(self):
        env = Environment()
        fs = DdsFileSystem(env, SpdkBdev(env, RamDisk(8 << 20)))
        fs.create_directory("d")
        other = DdsFileSystem(env, SpdkBdev(env, RamDisk(8 << 20)))
        other.create_directory("occupied")
        from repro.storage.filesystem import FileSystemError

        with pytest.raises(FileSystemError, match="empty"):
            fs.clone_into(other)
