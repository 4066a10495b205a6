"""Failure-injection tests: device errors propagate cleanly end to end."""

import pytest

from repro.bench import build_cluster
from repro.core import IoRequest, OpCode
from repro.hardware import DeviceError, NvmeDevice
from repro.net import FiveTuple
from repro.sim import Environment
from repro.storage import DdsFileSystem, FileSystemError, RamDisk, SpdkBdev

FLOW = FiveTuple("10.0.0.2", 40_000, "10.0.0.1", 5000)


class TestDeviceFaults:
    def test_injected_error_fails_the_op(self):
        env = Environment()
        device = NvmeDevice(env)
        device.inject_errors(1)
        proc = env.process(device.read(1024))
        with pytest.raises(DeviceError):
            env.run(until=proc)
        assert device.errors == 1

    def test_error_rate_produces_failures(self):
        env = Environment()
        device = NvmeDevice(env)
        device.error_rate = 0.5
        failures = 0
        for _ in range(100):
            proc = env.process(device.read(512))
            try:
                env.run(until=proc)
            except DeviceError:
                failures += 1
        assert 20 < failures < 80

    def test_device_recovers_after_forced_errors(self):
        env = Environment()
        device = NvmeDevice(env)
        device.inject_errors(2)
        for _ in range(2):
            proc = env.process(device.read(512))
            with pytest.raises(DeviceError):
                env.run(until=proc)
        ok = env.process(device.read(512))
        env.run(until=ok)  # no exception
        assert device.stats.reads == 1


class TestFilesystemFaults:
    def make_fs(self):
        env = Environment()
        device = NvmeDevice(env)
        bdev = SpdkBdev(env, RamDisk(8 << 20), device=device)
        fs = DdsFileSystem(env, bdev, segment_size=1 << 16)
        fs.create_directory("d")
        fid = fs.create_file("d", "f")
        fs.write_sync(fid, 0, bytes(4096))
        return env, fs, device, fid

    def test_read_error_becomes_filesystem_error(self):
        env, fs, device, fid = self.make_fs()
        device.inject_errors(1)
        proc = env.process(fs.read(fid, 0, 1024))
        with pytest.raises(FileSystemError, match="device read failed"):
            env.run(until=proc)

    def test_write_error_becomes_filesystem_error(self):
        env, fs, device, fid = self.make_fs()
        device.inject_errors(1)
        proc = env.process(fs.write(fid, 0, bytes(512)))
        with pytest.raises(FileSystemError, match="device write failed"):
            env.run(until=proc)

    def test_filesystem_usable_after_error(self):
        env, fs, device, fid = self.make_fs()
        device.inject_errors(1)
        bad = env.process(fs.read(fid, 0, 512))
        with pytest.raises(FileSystemError):
            env.run(until=bad)
        good = env.process(fs.read(fid, 0, 512))
        env.run(until=good)
        assert good.value == bytes(512)


class TestServerFaults:
    def _one(self, cluster, request):
        responses = []
        done = cluster.server.submit(FLOW, [request], responses.append)
        cluster.env.run(until=done)
        return responses[0]

    def test_baseline_returns_error_response(self):
        cluster = build_cluster("baseline", db_bytes=4 << 20)
        cluster.filesystem.bdev.device.inject_errors(1)
        response = self._one(
            cluster,
            IoRequest(OpCode.READ, 1, cluster.file_id, 0, 1024),
        )
        assert not response.ok and response.data is None
        # The next request succeeds: the failure was isolated.
        response = self._one(
            cluster,
            IoRequest(OpCode.READ, 2, cluster.file_id, 0, 1024),
        )
        assert response.ok

    def test_dds_library_path_returns_error_response(self):
        cluster = build_cluster("dds-files", db_bytes=4 << 20)
        cluster.filesystem.bdev.device.inject_errors(1)
        response = self._one(
            cluster,
            IoRequest(OpCode.READ, 1, cluster.file_id, 0, 1024),
        )
        assert not response.ok

    def test_offloaded_read_returns_error_response(self):
        cluster = build_cluster("dds-offload", db_bytes=4 << 20)
        cluster.filesystem.bdev.device.inject_errors(1)
        response = self._one(
            cluster,
            IoRequest(OpCode.READ, 1, cluster.file_id, 0, 1024),
        )
        assert not response.ok
        # Served (and failed) on the DPU, not bounced to the host.
        assert cluster.server.shards[0].director.requests_offloaded == 1

    def test_mixed_errors_under_load(self):
        cluster = build_cluster("dds-offload", db_bytes=8 << 20)
        cluster.filesystem.bdev.device.error_rate = 0.05
        responses = []
        requests = [
            IoRequest(OpCode.READ, i, cluster.file_id, i * 1024, 1024)
            for i in range(1, 101)
        ]
        for chunk_start in range(0, 100, 10):
            done = cluster.server.submit(
                FLOW,
                requests[chunk_start : chunk_start + 10],
                responses.append,
            )
            cluster.env.run(until=done)
        assert len(responses) == 100
        failed = sum(1 for r in responses if not r.ok)
        assert 0 < failed < 40
        succeeded = [r for r in responses if r.ok]
        assert all(r.data == bytes(1024) for r in succeeded)
