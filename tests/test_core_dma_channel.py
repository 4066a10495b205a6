"""Tests for the DMA ring channel and the file-service cache hooks."""

from repro.core import (
    DmaRingChannel,
    DpuFileService,
    IoRequest,
    IoResponse,
    OpCode,
)
from repro.core.api import OffloadCallbacks, ReadOp, WriteOp
from repro.hardware import DPU_CPU, CpuPool, DmaEngine
from repro.sim import Environment
from repro.storage import DdsFileSystem, RamDisk, SpdkBdev
from repro.structures import CuckooCacheTable


class TestDmaRingChannel:
    def make(self):
        env = Environment()
        return env, DmaRingChannel(env, DmaEngine(env), ring_capacity=1 << 12)

    def test_fetch_empty_costs_one_pointer_read(self):
        env, channel = self.make()

        def main():
            batch = yield from channel.fetch_batch()
            return batch

        proc = env.process(main())
        env.run(until=proc)
        assert proc.value == []
        # One pointer-area DMA read, nothing else (Figure 7's layout
        # makes the empty check a single op).
        assert channel.dma.stats.reads == 1
        assert channel.dma.stats.writes == 0

    def test_fetch_batch_moves_all_inserted(self):
        env, channel = self.make()
        for i in range(5):
            assert channel.try_insert(f"req-{i}".encode())

        def main():
            return (yield from channel.fetch_batch())

        proc = env.process(main())
        env.run(until=proc)
        assert proc.value == [f"req-{i}".encode() for i in range(5)]
        # Pointer read + data read, plus one head write-back.
        assert channel.dma.stats.reads == 2
        assert channel.dma.stats.writes == 1
        assert channel.fetched_requests == 5

    def test_deliver_responses_one_dma_write(self):
        env, channel = self.make()

        def main():
            yield from channel.deliver_responses([b"r1", b"r2", b"r3"])

        proc = env.process(main())
        env.run(until=proc)
        assert channel.dma.stats.writes == 1
        assert channel.delivered_responses == 3
        assert channel.try_poll_response() == b"r1"

    def test_insert_backpressure_when_full(self, monkeypatch):
        monkeypatch.setattr(DmaRingChannel, "MAX_PROGRESS", 32)
        env = Environment()
        channel = DmaRingChannel(env, DmaEngine(env), ring_capacity=64)
        assert channel.try_insert(b"x" * 20)
        assert not channel.try_insert(b"y" * 20)  # over max_progress


class TestFileServiceHooks:
    def make_service(self):
        env = Environment()
        fs = DdsFileSystem(
            env, SpdkBdev(env, RamDisk(16 << 20)), segment_size=1 << 16
        )
        fs.create_directory("d")
        fid = fs.create_file("d", "f")
        fs.write_sync(fid, 0, bytes(4096))
        service = DpuFileService(
            env,
            fs,
            CpuPool(env, speed=DPU_CPU.speed),
            CpuPool(env, speed=DPU_CPU.speed),
        )
        return env, service, fid

    def make_hooks(self):
        events = []

        def cache(write_op: WriteOp):
            events.append(("cache", write_op.offset))
            return [(("blk", write_op.offset), write_op.size)]

        def invalidate(read_op: ReadOp):
            events.append(("invalidate", read_op.offset))
            return [("blk", read_op.offset)]

        callbacks = OffloadCallbacks(
            off_pred=lambda reqs, t: (list(reqs), []),
            off_func=lambda req, t: None,
            cache=cache,
            invalidate=invalidate,
        )
        return callbacks, events

    def _execute(self, env, service, request):
        from repro.structures import ResponseBuffer

        buffer = ResponseBuffer(1 << 16)
        response = buffer.allocate(request.request_id, request.size)
        done = env.process(service._execute(request, response))
        env.run(until=done)
        return response

    def test_cache_on_write_populates_table(self):
        env, service, fid = self.make_service()
        callbacks, events = self.make_hooks()
        table = CuckooCacheTable(64)
        service.set_offload_hooks(callbacks, table)
        request = IoRequest(OpCode.WRITE, 1, fid, 128, 16, bytes(16))
        self._execute(env, service, request)
        assert events == [("cache", 128)]
        assert table.lookup(("blk", 128)) == 16

    def test_invalidate_on_read_removes_entries(self):
        env, service, fid = self.make_service()
        callbacks, events = self.make_hooks()
        table = CuckooCacheTable(64)
        table.insert(("blk", 256), 99)
        service.set_offload_hooks(callbacks, table)
        request = IoRequest(OpCode.READ, 2, fid, 256, 16)
        self._execute(env, service, request)
        assert events == [("invalidate", 256)]
        assert ("blk", 256) not in table

    def test_no_hooks_means_no_side_effects(self):
        env, service, fid = self.make_service()
        request = IoRequest(OpCode.READ, 3, fid, 0, 16)
        response = self._execute(env, service, request)
        assert response.payload == bytes(16)

    def test_offloaded_reads_do_not_invalidate(self):
        """Only *host* reads invalidate; DPU-served reads must not."""
        env, service, fid = self.make_service()
        callbacks, events = self.make_hooks()
        table = CuckooCacheTable(64)
        table.insert(("blk", 0), 1)
        service.set_offload_hooks(callbacks, table)
        got = []

        def on_complete(status, data):
            got.append((status, data))

        done = env.process(
            service.execute_offloaded(ReadOp(fid, 0, 16), on_complete)
        )
        env.run(until=done)
        assert got and got[0][1] == bytes(16)
        assert events == []
        assert ("blk", 0) in table

    def test_response_too_large_for_the_buffer_fails_alone(self):
        """A read whose response can never fit the ResponseBuffer is
        answered header-only, in order and as an error; the SPDK worker
        keeps serving the requests behind it."""
        env, service, fid = self.make_service()
        channel = DmaRingChannel(env, DmaEngine(env), ring_capacity=1 << 12)
        service.register_channel(channel)
        service.start()
        oversized = service.RESPONSE_BUFFER_BYTES + (1 << 20)
        assert channel.try_insert(
            IoRequest(OpCode.READ, 1, fid, 0, oversized).encode()
        )
        assert channel.try_insert(IoRequest(OpCode.READ, 2, fid, 0, 16).encode())
        env.run(until=1e-3)
        responses = []
        while (encoded := channel.try_poll_response()) is not None:
            responses.append(IoResponse.decode(encoded))
        assert [(r.request_id, r.ok) for r in responses] == [
            (1, False),
            (2, True),
        ]
        assert responses[0].data is None
        assert responses[1].data == bytes(16)
