"""Tests for the FASTER-like KV store and YCSB generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import FasterKv, YcsbWorkload, WORKLOAD_MIXES
from repro.apps.faster import RECORD
from repro.hardware import HOST_CPU, CpuPool
from repro.sim import Environment
from repro.storage import DdsFileSystem, OsFileSystem, RamDisk, SpdkBdev
from repro.topology.stages import OsFileDevice

from .conftest import run


def make_kv(memory_budget=1 << 20, with_device=True):
    env = Environment()
    cpu = CpuPool(env, HOST_CPU)
    device = None
    if with_device:
        fs = DdsFileSystem(
            env, SpdkBdev(env, RamDisk(32 << 20)), segment_size=1 << 16
        )
        fs.create_directory("kv")
        fid = fs.create_file("kv", "log")
        osfs = OsFileSystem(env, fs, cpu)
        device = OsFileDevice(osfs, fid)

        # Persist flushed pages so on-disk reads return real records.
        def on_flush(offset, page):
            fs.write_sync(fid, offset, page)

        kv = FasterKv(env, cpu, memory_budget, device=device)
        kv.on_flush = on_flush
        return env, kv
    return env, FasterKv(env, cpu, memory_budget)


class TestInMemoryOps:
    def test_upsert_then_read(self):
        env, kv = make_kv(with_device=False)

        def main():
            yield from kv.upsert(5, 500)
            value = yield from kv.read(5)
            return value

        assert run(env, main()) == 500

    def test_read_missing_returns_none(self):
        env, kv = make_kv(with_device=False)

        def main():
            return (yield from kv.read(404))

        assert run(env, main()) is None

    def test_rmw_increments(self):
        env, kv = make_kv(with_device=False)

        def main():
            yield from kv.upsert(1, 10)
            yield from kv.rmw(1)
            yield from kv.rmw(1, lambda v: v * 2)
            return (yield from kv.read(1))

        assert run(env, main()) == 22

    def test_rmw_on_missing_key_initializes(self):
        env, kv = make_kv(with_device=False)

        def main():
            yield from kv.rmw(9)
            return (yield from kv.read(9))

        assert run(env, main()) == 1

    def test_hot_keys_update_in_place(self):
        env, kv = make_kv(with_device=False)

        def main():
            yield from kv.upsert(1, 0)
            tail_before = kv.tail_address
            for _ in range(10):
                yield from kv.rmw(1)
            return tail_before

        tail_before = run(env, main())
        # The record stayed on the mutable tail: no new appends.
        assert kv.tail_address == tail_before
        assert kv.index[1] == tail_before - RECORD.size

    def test_operations_consume_cpu_time(self):
        env, kv = make_kv(with_device=False)

        def main():
            for key in range(100):
                yield from kv.upsert(key, key)

        run(env, main())
        assert kv.cpu.busy_time > 0


class TestHybridLog:
    def test_flush_moves_head_and_keeps_data_readable(self):
        env, kv = make_kv(memory_budget=1 << 16)

        def main():
            for key in range(8000):  # 128 KB of records >> 64 KB budget
                yield from kv.upsert(key, key * 3)
            assert kv.flushes > 0
            assert kv.head_address > 0
            # Old keys now live on disk; values must survive the trip.
            for key in (0, 1, 17, 100):
                value = yield from kv.read(key)
                assert value == key * 3, key
            return kv.reads_from_disk

        disk_reads = run(env, main())
        assert disk_reads == 4

    def test_memory_stays_within_budget(self):
        env, kv = make_kv(memory_budget=1 << 16)

        def main():
            for key in range(10_000):
                yield from kv.upsert(key, key)

        run(env, main())
        assert kv.bytes_in_memory <= (1 << 16) + FasterKv.PAGE_BYTES

    def test_load_fast_path_matches_runtime_path(self):
        env, kv = make_kv(memory_budget=1 << 16)
        flushed = []
        kv.on_flush = lambda off, page: flushed.append((off, page))
        for key in range(8000):
            kv.load(key, key + 7)
        assert kv.flushes == len(flushed) > 0

        def main():
            return (yield from kv.read(7999))

        assert run(env, main()) == 8006

    def test_disk_read_without_device_raises(self):
        env, kv = make_kv(with_device=False, memory_budget=1 << 16)
        for key in range(8000):
            kv.load(key, key)

        def main():
            yield from kv.read(0)

        with pytest.raises(RuntimeError, match="IDevice"):
            run(env, main())

    def test_memory_budget_validation(self):
        env = Environment()
        cpu = CpuPool(env, HOST_CPU)
        with pytest.raises(ValueError):
            FasterKv(env, cpu, memory_budget=100)

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["upsert", "rmw", "read"]),
                st.integers(min_value=0, max_value=50),
            ),
            min_size=1,
            max_size=120,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_matches_dict_model(self, ops):
        env, kv = make_kv(memory_budget=1 << 16)
        model = {}

        def main():
            for op, key in ops:
                if op == "upsert":
                    yield from kv.upsert(key, key * 7)
                    model[key] = key * 7
                elif op == "rmw":
                    yield from kv.rmw(key)
                    model[key] = model.get(key, 0) + 1
                else:
                    value = yield from kv.read(key)
                    assert value == model.get(key)

        run(env, main())


class TestYcsb:
    def test_mix_fractions_respected(self):
        workload = YcsbWorkload(1000, mix="B", seed=3)
        ops = [workload.draw_op() for _ in range(10_000)]
        reads = sum(1 for op in ops if op.kind == "read")
        assert 0.93 < reads / len(ops) < 0.97

    def test_rmw_mix_is_pure_rmw(self):
        workload = YcsbWorkload(100, mix="RMW", seed=3)
        assert all(
            op.kind == "rmw" for op in workload.ops(500)
        )

    def test_keys_within_space(self):
        workload = YcsbWorkload(50, seed=1)
        assert all(0 <= op.key < 50 for op in workload.ops(1000))

    def test_load_keys_covers_space(self):
        workload = YcsbWorkload(20, seed=1)
        loaded = dict(workload.load_keys())
        assert sorted(loaded) == list(range(20))
        assert all(len(v) == 8 for v in loaded.values())

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            YcsbWorkload(0)
        with pytest.raises(ValueError):
            YcsbWorkload(10, mix="Z")

    def test_all_documented_mixes_sum_to_one(self):
        for name, mix in WORKLOAD_MIXES.items():
            assert sum(mix.values()) == pytest.approx(1.0), name
