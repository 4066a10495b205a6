"""Unit tests for the hardware models: CPUs, SSD, DMA."""

import pytest

from repro.hardware import (
    DPU_CPU,
    HOST_CPU,
    NVME_1TB,
    CpuPool,
    DmaEngine,
    NvmeDevice,
)
from repro.sim import Environment


class TestCpuCore:
    def test_execute_takes_scaled_time(self):
        env = Environment()
        core = CpuPool(env, speed=0.5)

        def main():
            yield from core.execute(10e-6)
            return env.now

        proc = env.process(main())
        env.run(until=proc)
        assert proc.value == pytest.approx(20e-6)  # half speed = 2x time
        assert core.busy_time == pytest.approx(20e-6)

    def test_single_core_serializes_work(self):
        env = Environment()
        core = CpuPool(env)
        finish = []

        def job():
            yield from core.execute(5e-6)
            finish.append(env.now)

        env.process(job())
        env.process(job())
        env.run()
        assert finish == [pytest.approx(5e-6), pytest.approx(10e-6)]

    def test_utilization(self):
        env = Environment()
        core = CpuPool(env)

        def main():
            yield from core.execute(3e-6)

        proc = env.process(main())
        env.run(until=proc)
        assert core.cores_consumed(6e-6) == pytest.approx(0.5)
        assert core.cores_consumed(0) == 0.0

    def test_invalid_parameters(self):
        env = Environment()
        with pytest.raises(ValueError):
            CpuPool(env, speed=0)
        core = CpuPool(env)
        with pytest.raises(ValueError):
            list(core.execute(-1))


class TestCpuPool:
    def test_pool_runs_jobs_in_parallel(self):
        env = Environment()
        pool = CpuPool(env, cores=4, speed=1.0)
        finish = []

        def job():
            yield from pool.execute(5e-6)
            finish.append(env.now)

        for _ in range(4):
            env.process(job())
        env.run()
        assert all(t == pytest.approx(5e-6) for t in finish)

    def test_pool_queues_beyond_capacity(self):
        env = Environment()
        pool = CpuPool(env, cores=2, speed=1.0)
        finish = []

        def job():
            yield from pool.execute(5e-6)
            finish.append(env.now)

        for _ in range(4):
            env.process(job())
        env.run()
        assert finish[:2] == [pytest.approx(5e-6)] * 2
        assert finish[2:] == [pytest.approx(10e-6)] * 2

    def test_cores_consumed_metric(self):
        env = Environment()
        pool = CpuPool(env, cores=8, speed=1.0)

        def job():
            yield from pool.execute(10e-6)

        procs = [env.process(job()) for _ in range(4)]
        env.run(until=env.all_of(procs))
        # 4 jobs of 10us over a 10us window = 4 cores consumed.
        assert pool.cores_consumed(env.now) == pytest.approx(4.0)

    def test_charge_accrues_without_time(self):
        env = Environment()
        pool = CpuPool(env, HOST_CPU)
        pool.charge(5e-6)
        assert env.now == 0.0
        assert pool.busy_time == pytest.approx(5e-6)

    def test_spec_construction(self):
        env = Environment()
        pool = CpuPool(env, DPU_CPU)
        assert pool.cores == 8 and pool.speed == 0.35

    def test_invalid_construction(self):
        env = Environment()
        with pytest.raises(ValueError):
            CpuPool(env, cores=0)
        with pytest.raises(ValueError):
            CpuPool(env, cores=2, speed=-1)


class TestNvmeDevice:
    def test_read_latency_at_least_base(self):
        env = Environment()
        device = NvmeDevice(env)
        proc = env.process(device.read(1024))
        env.run(until=proc)
        assert env.now >= NVME_1TB.read_latency

    def test_writes_slower_than_reads(self):
        def one(op):
            env = Environment()
            device = NvmeDevice(env)
            proc = env.process(getattr(device, op)(1024))
            env.run(until=proc)
            return env.now

        assert one("write") > one("read")

    def test_parallel_slots_overlap(self):
        env = Environment()
        device = NvmeDevice(env)
        procs = [env.process(device.read(1024)) for _ in range(16)]
        env.run(until=env.all_of(procs))
        # 16 concurrent reads finish in ~one service time, not 16.
        assert env.now < 3 * NVME_1TB.read_latency

    def test_queueing_beyond_parallelism(self):
        env = Environment()
        device = NvmeDevice(env)
        count = NVME_1TB.parallelism * 3
        procs = [env.process(device.read(1024)) for _ in range(count)]
        env.run(until=env.all_of(procs))
        assert env.now > 2.5 * NVME_1TB.read_latency

    def test_aggregate_bandwidth_capped(self):
        env = Environment()
        device = NvmeDevice(env)
        size = 1 << 20
        count = 32
        procs = [env.process(device.read(size)) for _ in range(count)]
        env.run(until=env.all_of(procs))
        achieved = count * size / env.now
        assert achieved <= NVME_1TB.read_bandwidth * 1.05

    def test_stats_track_ops_and_bytes(self):
        env = Environment()
        device = NvmeDevice(env)
        env.run(until=env.process(device.read(1000)))
        env.run(until=env.process(device.write(2000)))
        assert device.stats.reads == 1 and device.stats.writes == 1
        assert device.stats.read_bytes == 1000
        assert device.stats.write_bytes == 2000
        assert device.stats.ops == 2

    def test_zero_size_rejected(self):
        env = Environment()
        device = NvmeDevice(env)
        with pytest.raises(ValueError):
            list(device.read(0))


class TestDmaEngine:
    def test_transfer_time_formula(self):
        env = Environment()
        dma = DmaEngine(env)
        small = dma.transfer_time(64)
        large = dma.transfer_time(1 << 20)
        assert small >= dma.spec.op_latency
        assert large > small

    def test_channels_limit_concurrency(self):
        env = Environment()
        dma = DmaEngine(env)
        count = dma.spec.channels * 2

        def op():
            yield from dma.dma_read(64)

        procs = [env.process(op()) for _ in range(count)]
        env.run(until=env.all_of(procs))
        assert env.now == pytest.approx(2 * dma.transfer_time(64))

    def test_stats(self):
        env = Environment()
        dma = DmaEngine(env)

        def main():
            yield from dma.dma_read(100)
            yield from dma.dma_write(200)

        env.run(until=env.process(main()))
        assert dma.stats.reads == 1 and dma.stats.writes == 1
        assert dma.stats.bytes_read == 100
        assert dma.stats.bytes_written == 200
        assert dma.stats.ops == 2

    def test_negative_size_rejected(self):
        env = Environment()
        dma = DmaEngine(env)
        with pytest.raises(ValueError):
            list(dma.dma_read(-1))
