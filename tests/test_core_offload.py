"""Tests for the offload engine (Figure 13) and traffic director (§5)."""

from repro.core import (
    DpuFileService,
    IoRequest,
    IoResponse,
    OffloadEngine,
    OpCode,
    TrafficDirector,
    passthrough_callbacks,
)
from repro.hardware import DPU_CPU, CpuPool, NetworkLink
from repro.net import AppSignature, FiveTuple
from repro.sim import Environment
from repro.storage import DdsFileSystem, RamDisk, SpdkBdev
from repro.structures import BufferPool, CuckooCacheTable


def make_engine(context_slots=512, pool=None, callbacks=None):
    env = Environment()
    fs = DdsFileSystem(
        env, SpdkBdev(env, RamDisk(16 << 20)), segment_size=1 << 16
    )
    fs.create_directory("d")
    fid = fs.create_file("d", "f")
    fs.write_sync(fid, 0, bytes(range(256)) * 64)  # 16 KiB of data
    service = DpuFileService(
        env,
        fs,
        CpuPool(env, speed=DPU_CPU.speed),
        CpuPool(env, speed=DPU_CPU.speed),
    )
    core = CpuPool(env, speed=DPU_CPU.speed)
    engine = OffloadEngine(
        env,
        core,
        service,
        callbacks or passthrough_callbacks(),
        CuckooCacheTable(1024),
        pool=pool,
        context_slots=context_slots,
    )
    return env, engine, fid


def submit(env, engine, requests, bounces=None):
    """Feed requests through engine.handle, collecting responses (and
    each bounce's reason into ``bounces`` when given)."""
    responses = []
    accepted = []
    on_bounce = None if bounces is None else bounces.append

    def main():
        for request in requests:
            ok = yield from engine.handle(
                request, responses.append, on_bounce=on_bounce
            )
            accepted.append(ok)

    proc = env.process(main())
    env.run()
    return accepted, responses


class TestOffloadEngine:
    def test_offloaded_read_returns_file_data(self):
        env, engine, fid = make_engine()
        request = IoRequest(OpCode.READ, 1, fid, 256, 16)
        accepted, responses = submit(env, engine, [request])
        assert accepted == [True]
        assert len(responses) == 1
        assert responses[0].ok
        assert responses[0].data == bytes(range(16))

    def test_responses_preserve_request_order(self):
        env, engine, fid = make_engine()
        requests = [
            IoRequest(OpCode.READ, i, fid, i * 64, 64) for i in range(20)
        ]
        accepted, responses = submit(env, engine, requests)
        assert all(accepted)
        assert [r.request_id for r in responses] == list(range(20))

    def test_write_bounced_to_host(self):
        env, engine, fid = make_engine()
        request = IoRequest(OpCode.WRITE, 1, fid, 0, 4, b"abcd")
        bounces = []
        accepted, responses = submit(env, engine, [request], bounces)
        assert accepted == [False]
        assert responses == []
        assert bounces == ["off-func"]

    def test_full_context_ring_bounces(self):
        env, engine, fid = make_engine(context_slots=4)
        requests = [
            IoRequest(OpCode.READ, i, fid, 0, 64) for i in range(12)
        ]
        bounces = []
        accepted, responses = submit(env, engine, requests, bounces)
        assert not all(accepted)  # some bounced: Figure 13 lines 5-7
        assert bounces == ["ring-full"] * accepted.count(False)
        assert len(responses) == sum(accepted)

    def test_exhausted_buffer_pool_bounces(self):
        env0, _eng, _f = make_engine()  # build fs layout once for ids
        pool = BufferPool(1024)
        env, engine, fid = make_engine(pool=pool)
        requests = [
            IoRequest(OpCode.READ, i, fid, 0, 512) for i in range(6)
        ]
        bounces = []
        accepted, _responses = submit(env, engine, requests, bounces)
        assert bounces == ["no-buffer"] * accepted.count(False)

    def test_buffers_released_after_completion(self):
        pool = BufferPool(1 << 20)
        env, engine, fid = make_engine(pool=pool)
        requests = [
            IoRequest(OpCode.READ, i, fid, 0, 256) for i in range(30)
        ]
        accepted, responses = submit(env, engine, requests)
        assert all(accepted) and len(responses) == 30
        assert pool.stats.bytes_in_use == 0

    def test_read_above_largest_buffer_class_bounces_to_host(self):
        # No size class can hold it: like an exhausted pool, the request
        # goes to the host (Figure 13 lines 5-7) instead of raising.
        env, engine, fid = make_engine()
        request = IoRequest(OpCode.READ, 1, fid, 0, 2 * engine.pool.MAX_CLASS)
        bounces, accepted = [], []

        def main():
            accepted.append(
                (
                    yield from engine.handle(
                        request, lambda _r: None, on_bounce=bounces.append
                    )
                )
            )

        env.process(main())
        env.run()
        assert accepted == [False]
        assert bounces == ["no-buffer"]
        assert engine.pool.stats.bytes_in_use == 0

    def test_failed_read_produces_error_response(self):
        env, engine, fid = make_engine()
        request = IoRequest(OpCode.READ, 1, fid, 1 << 30, 64)  # beyond EOF
        accepted, responses = submit(env, engine, [request])
        assert accepted == [True]
        assert len(responses) == 1 and not responses[0].ok

    def test_in_flight_drains_to_zero(self):
        env, engine, fid = make_engine()
        requests = [
            IoRequest(OpCode.READ, i, fid, 0, 64) for i in range(8)
        ]
        accepted, responses = submit(env, engine, requests)
        assert all(accepted) and len(responses) == 8
        assert engine.in_flight == 0


class TestTrafficDirector:
    def make_director(self, director_cores=1, engine=True, rdma=False):
        env, eng, fid = make_engine()
        link = NetworkLink(env)
        cores = [
            CpuPool(env, speed=DPU_CPU.speed) for _ in range(director_cores)
        ]
        host_served = []

        def host_handler(requests, respond):
            for request in requests:
                host_served.append(request)
                respond(IoResponse(request.request_id, True, b"host"))
            yield env.timeout(0)

        director = TrafficDirector(
            env,
            link,
            cores,
            AppSignature(server_port=5000),
            passthrough_callbacks(),
            CuckooCacheTable(64),
            eng if engine else None,
            host_handler,
            lambda file_id: 0,  # one DPU: every file is its own
            rdma=rdma,
        )
        return env, director, fid, host_served

    FLOW = FiveTuple("1.2.3.4", 999, "10.0.0.1", 5000)
    OTHER_FLOW = FiveTuple("1.2.3.4", 999, "10.0.0.1", 80)

    def test_reads_offloaded_writes_forwarded(self):
        env, director, fid, host_served = self.make_director()
        responses = []
        requests = [
            IoRequest(OpCode.READ, 1, fid, 0, 64),
            IoRequest(OpCode.WRITE, 2, fid, 0, 4, b"abcd"),
        ]
        env.process(
            director.receive_message(self.FLOW, requests, responses.append)
        )
        env.run()
        assert director.requests_offloaded == 1
        assert director.requests_to_host == 1
        assert [r.request_id for r in host_served] == [2]
        assert {r.request_id for r in responses} == {1, 2}

    def test_unmatched_flow_bypasses_dpu_cores(self):
        env, director, fid, host_served = self.make_director()
        responses = []
        requests = [IoRequest(OpCode.READ, 1, fid, 0, 64)]
        env.process(
            director.receive_message(
                self.OTHER_FLOW, requests, responses.append
            )
        )
        env.run()
        assert director.unmatched_messages == 1
        assert director.messages_seen == 0
        assert all(core.busy_time == 0 for core in director.cores)
        assert len(host_served) == 1 and len(responses) == 1

    def test_rss_assigns_flow_direction_symmetrically(self):
        env, director, fid, _hs = self.make_director(director_cores=4)
        flow = self.FLOW
        assert director.core_for(flow) is director.core_for(flow.reversed())

    def test_engineless_director_sends_everything_to_host(self):
        env, director, fid, host_served = self.make_director(engine=False)
        responses = []
        requests = [IoRequest(OpCode.READ, 1, fid, 0, 64)]
        env.process(
            director.receive_message(self.FLOW, requests, responses.append)
        )
        env.run()
        assert director.requests_offloaded == 0
        assert len(host_served) == 1

    def test_rdma_transport_charges_less_cpu(self):
        def core_time(rdma):
            env, director, fid, _hs = self.make_director(rdma=rdma)
            responses = []
            requests = [IoRequest(OpCode.READ, 1, fid, 0, 1024)]
            env.process(
                director.receive_message(
                    self.FLOW, requests, responses.append
                )
            )
            env.run()
            return sum(core.busy_time for core in director.cores)

        assert core_time(rdma=True) < core_time(rdma=False)
