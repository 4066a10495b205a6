"""Cross-module property tests: persistence, RSS scaling, determinism."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import build_cluster
from repro.core import IoRequest, OpCode
from repro.hardware import NetworkLink
from repro.net import FiveTuple
from repro.sim import Environment
from repro.storage import DdsFileSystem, RamDisk, SpdkBdev
from repro.topology.sharding import ShardedOffloadServer

from .conftest import run

SEGMENT = 1 << 16


class TestRecoveryProperty:
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),   # file index
                st.integers(min_value=0, max_value=2 * SEGMENT),
                st.binary(min_size=1, max_size=300),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_flush_recover_preserves_everything(self, ops):
        """Any write history survives a metadata flush + recovery."""
        env = Environment()
        disk = RamDisk(24 << 20)
        fs = DdsFileSystem(env, SpdkBdev(env, disk), segment_size=SEGMENT)
        fs.create_directory("d")
        file_ids = [fs.create_file("d", f"f{i}") for i in range(4)]
        reference = {fid: bytearray() for fid in file_ids}
        for index, offset, data in ops:
            fid = file_ids[index]
            run(env, fs.write(fid, offset, data))
            ref = reference[fid]
            if len(ref) < offset + len(data):
                ref.extend(bytes(offset + len(data) - len(ref)))
            ref[offset : offset + len(data)] = data
        run(env, fs.flush_metadata())

        env2 = Environment()
        recovered = DdsFileSystem.recover(
            env2, SpdkBdev(env2, disk), segment_size=SEGMENT
        )
        for fid, ref in reference.items():
            assert recovered.file_size(fid) == len(ref)
            if ref:
                proc = env2.process(recovered.read(fid, 0, len(ref)))
                env2.run(until=proc)
                assert proc.value == bytes(ref)


class TestMultiCoreDirector:
    FLOWS = [
        FiveTuple("10.0.0.2", 40_000 + i, "10.0.0.1", 5000)
        for i in range(16)
    ]

    def make_server(self, monkeypatch, cores):
        monkeypatch.setattr(ShardedOffloadServer, "DIRECTOR_CORES", cores)
        env = Environment()
        fs = DdsFileSystem(env, SpdkBdev(env, RamDisk(32 << 20)))
        fs.create_directory("d")
        fid = fs.create_file("d", "f")
        fs.preallocate(fid, 16 << 20)
        server = ShardedOffloadServer(env, NetworkLink(env), fs, 1)
        return env, server, fid

    def test_rss_spreads_work_across_cores(self, monkeypatch):
        env, server, fid = self.make_server(monkeypatch, cores=4)
        request_id = 1
        for _round in range(6):
            for flow in self.FLOWS:
                responses = []
                done = server.submit(
                    flow,
                    [IoRequest(OpCode.READ, request_id, fid, 0, 1024)],
                    responses.append,
                )
                request_id += 1
                env.run(until=done)
        busy = [core.busy_time for core in server.shards[0].cores]
        assert sum(1 for b in busy if b > 0) >= 2  # multiple cores used
        assert server.shards[0].director.requests_offloaded == 96

    def test_each_flow_sticks_to_one_core(self, monkeypatch):
        env, server, fid = self.make_server(monkeypatch, cores=4)
        director = server.shards[0].director
        for flow in self.FLOWS:
            core_first = director.core_for(flow)
            assert director.core_for(flow) is core_first
            assert director.core_for(flow.reversed()) is core_first


class TestDeterminism:
    def test_identical_runs_produce_identical_states(self):
        def fingerprint():
            cluster = build_cluster("dds-offload", db_bytes=8 << 20)
            flow = FiveTuple("10.0.0.2", 40_000, "10.0.0.1", 5000)
            for i in range(1, 40):
                responses = []
                done = cluster.server.submit(
                    flow,
                    [
                        IoRequest(
                            OpCode.READ, i, cluster.file_id,
                            (i * 1024) % (4 << 20), 1024,
                        )
                    ],
                    responses.append,
                )
                cluster.env.run(until=done)
            return (
                cluster.env.now,
                cluster.server.dpu_cores(cluster.env.now),
                cluster.server.shards[0].director.requests_offloaded,
            )

        assert fingerprint() == fingerprint()


class TestNotificationGroupMultiplexing:
    def test_files_in_different_groups_complete_independently(self):
        cluster = build_cluster("dds-files", db_bytes=8 << 20)
        fs = cluster.filesystem
        library = cluster.server.execution.library
        env = cluster.env
        fid_a = fs.create_file("bench", "a")
        fid_b = fs.create_file("bench", "b")
        group_a, group_b = library.create_poll(), library.create_poll()
        library.poll_add(group_a, fid_a)
        library.poll_add(group_b, fid_b)

        def main():
            yield from library.write_file(fid_a, 0, b"from-a")
            yield from library.write_file(fid_b, 0, b"from-b")
            ra = yield from library.poll_wait(group_a)
            rb = yield from library.poll_wait(group_b)
            assert ra[1] and rb[1]
            yield from library.read_file(fid_a, 0, 6)
            got = yield from library.poll_wait(group_a)
            return got[2]

        assert run(env, main()) == b"from-a"
