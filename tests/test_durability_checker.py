"""Duplicate-ack handling in the durability audit (chaos bug burn-down).

``DurabilityChecker.on_ack`` used to stamp every write acknowledgement
with ``len(self.acked_writes)``.  A *duplicated* delivery of an ack the
checker had already recorded (a NIC duplication window, or a dedup
replay racing the original response) re-entered the WRITE branch and
overwrote the request's stamp with the current table length — which can
tie with, or exceed, the stamp of a write acked *later*.  The
latest-write-wins audit then demanded the stale payload at that offset
and reported a false lost write.  The fix stamps from a monotonic
counter and makes the first ack win; duplicates are counted in
``duplicate_acks`` and carry no ordering information.
"""

import types

from repro.core.messages import IoRequest, IoResponse, OpCode
from repro.bench import build_cluster
from repro.faults import DurabilityChecker, FaultInjector, FaultPlan, NicFault
from repro.net import FiveTuple
from repro.sim import Environment
from repro.storage import DdsFileSystem, RamDisk, SpdkBdev

FLOW = FiveTuple("10.0.0.2", 40_000, "10.0.0.1", 5000)


def _fs_server():
    env = Environment()
    fs = DdsFileSystem(
        env, SpdkBdev(env, RamDisk(4 << 20)), segment_size=1 << 16
    )
    fs.create_directory("d")
    fid = fs.create_file("d", "f")
    fs.preallocate(fid, 1 << 16)
    server = types.SimpleNamespace(filesystems=[fs])
    return fs, server, fid


class TestDuplicateAckStamps:
    def test_duplicate_ack_keeps_the_first_stamp(self):
        """Regression: dup ack of W1 after W2's ack must not outrank W2.

        With the old ``len(acked_writes)`` stamping, the duplicate W1
        delivery restamped W1 to 2 (> W2's 1), the audit expected W1's
        payload at the shared offset, and the run failed with a false
        "acked write not found on disk".
        """
        fs, server, fid = _fs_server()
        checker = DurabilityChecker()
        w1 = IoRequest(OpCode.WRITE, 1, fid, 0, 4, b"aaaa")
        w2 = IoRequest(OpCode.WRITE, 2, fid, 0, 4, b"bbbb")
        checker.on_issue(w1)
        checker.on_issue(w2)
        checker.on_ack(w1, IoResponse(1, True))
        checker.on_ack(w2, IoResponse(2, True))
        checker.on_ack(w1, IoResponse(1, True))  # duplicated delivery
        fs.write_sync(fid, 0, b"bbbb")  # disk holds the later ack
        report = checker.check(server)
        assert checker.duplicate_acks == 1
        assert report.ok and report.verified_writes == 1
        report.assert_ok()

    def test_stamps_stay_dense_and_monotonic_under_duplicates(self):
        fs, server, fid = _fs_server()
        checker = DurabilityChecker()
        for rid in (1, 2, 3):
            request = IoRequest(
                OpCode.WRITE, rid, fid, (rid - 1) * 512, 4, b"wxyz"
            )
            checker.on_issue(request)
            checker.on_ack(request, IoResponse(rid, True))
            checker.on_ack(request, IoResponse(rid, True))
        stamps = [seq for _, seq in checker.acked_writes.values()]
        assert stamps == [0, 1, 2]
        assert checker.duplicate_acks == 3

    def test_duplicate_read_acks_are_not_write_duplicates(self):
        _fs, _server, fid = _fs_server()
        checker = DurabilityChecker()
        read = IoRequest(OpCode.READ, 9, fid, 0, 4)
        checker.on_issue(read)
        checker.on_ack(read, IoResponse(9, True, b"aaaa"))
        checker.on_ack(read, IoResponse(9, True, b"aaaa"))
        assert checker.duplicate_acks == 0
        assert checker.acked_reads == 2


class TestDuplicatedAckChaosPlan:
    """End-to-end: a NIC duplication window feeds the checker dup acks."""

    def test_nic_duplicate_window_audits_clean(self):
        cluster = build_cluster("dds-offload", db_bytes=4 << 20)
        env, server, fid = cluster.env, cluster.server, cluster.file_id
        plan = FaultPlan(
            seed=11,
            events=(
                NicFault(at=100e-6, duration=600e-6, duplicate=1.0),
            ),
        )
        FaultInjector(env, server, plan).arm()
        checker = DurabilityChecker()
        requests = {
            1: IoRequest(OpCode.WRITE, 1, fid, 0, 1024, b"a" * 1024),
            2: IoRequest(OpCode.WRITE, 2, fid, 0, 1024, b"b" * 1024),
        }

        def ack(response):
            checker.on_ack(requests[response.request_id], response)

        env.run(until=env.timeout(150e-6))  # inside the dup window
        checker.on_issue(requests[1])
        done = server.submit(FLOW, [requests[1]], ack)
        env.run(until=done)
        # Drain the duplicated deliveries, then leave the window: the
        # ingress copy and the response duplication each double W1's
        # ack, so the checker sees it several times.
        env.run(until=env.timeout(2e-3))
        assert server.network_chaos is None
        checker.on_issue(requests[2])
        done = server.submit(FLOW, [requests[2]], ack)
        env.run(until=done)
        env.run(until=env.timeout(200e-6))
        assert checker.duplicate_acks >= 1
        # The disk holds W2 (the last single-delivery ack); the dup
        # acks of W1 must not outrank it.
        report = checker.check(server)
        report.assert_ok()
        assert report.verified_writes == 1
