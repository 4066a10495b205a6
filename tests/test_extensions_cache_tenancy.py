"""Tests for the DPU read cache and multi-tenant DRR isolation."""

import pytest

from repro.apps.dpu_cache import DpuReadCache, run_dpu_cache_experiment
from repro.core.api import ReadOp
from repro.hardware import CpuPool
from repro.sim import Environment

from .conftest import run
from .test_drr_edge_cases import Tenants


class TestDpuReadCache:
    def make(self, capacity=1 << 16):
        env = Environment()
        core = CpuPool(env, speed=0.35)
        return env, DpuReadCache(env, core, capacity)

    def test_miss_then_hit(self):
        env, cache = self.make()
        op = ReadOp(1, 0, 4096)
        assert run(env, cache.lookup(op)) is None
        cache.fill(op, b"x" * 4096)
        assert run(env, cache.lookup(op)) == b"x" * 4096
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_capacity_enforced_with_lru_eviction(self):
        env, cache = self.make(capacity=8192)
        a, b, c = (ReadOp(1, i * 4096, 4096) for i in range(3))
        cache.fill(a, b"a" * 4096)
        cache.fill(b, b"b" * 4096)
        run(env, cache.lookup(a))  # a is now most-recently used
        cache.fill(c, b"c" * 4096)  # evicts b (LRU)
        assert cache.evictions == 1
        assert run(env, cache.lookup(b)) is None
        assert run(env, cache.lookup(a)) is not None
        assert run(env, cache.lookup(c)) is not None

    def test_oversized_extent_never_cached(self):
        env, cache = self.make(capacity=1024)
        op = ReadOp(1, 0, 4096)
        cache.fill(op, b"x" * 4096)
        assert run(env, cache.lookup(op)) is None

    def test_invalid_capacity(self):
        env = Environment()
        with pytest.raises(ValueError):
            DpuReadCache(env, CpuPool(env), 0)

    def test_experiment_shapes(self):
        stock = run_dpu_cache_experiment(0, reads=1440)
        cached = run_dpu_cache_experiment(1 << 20, reads=1440)
        # The cache absorbs most of the skewed traffic: fewer SSD reads,
        # more throughput, lower latency.
        assert cached.hit_rate > 0.5
        assert cached.ssd_reads < 0.6 * stock.ssd_reads
        assert cached.throughput > 1.5 * stock.throughput
        assert cached.mean_latency < stock.mean_latency


class TestDrrScheduler:
    """Dispatch order of the QoS gate's DRR (one message in service)."""

    def test_fifo_is_arrival_ordered(self):
        """Within one tenant dispatch is arrival-ordered, however the
        rounds interleave it with a neighbour."""
        env = Environment()
        drr = Tenants(env, quantum=100)
        for cost in (100, 101, 102, 103):
            drr.submit("a", cost)
            drr.submit("b", 100)
        env.run(until=1e-3)
        assert [cost for tenant, cost in drr.served if tenant == "a"] == [
            100, 101, 102, 103
        ]

    def test_drr_interleaves_under_backlog(self):
        env = Environment()
        drr = Tenants(env, quantum=100)
        for _ in range(10):
            drr.submit("a", 100)
        for _ in range(10):
            drr.submit("b", 100)
        env.run(until=1e-3)
        order = [tenant for tenant, _cost in drr.served]
        # Equal quanta and equal costs: strict alternation per round.
        assert order[:6] == ["a", "b", "a", "b", "a", "b"]

    def test_weights_shift_the_share(self):
        env = Environment()
        drr = Tenants(env, quantum=100, weights={"a": 3.0})
        for _ in range(30):
            drr.submit("a", 100)
            drr.submit("b", 100)
        env.run(until=1e-3)
        first_12 = [tenant for tenant, _cost in drr.served[:12]]
        assert first_12.count("a") == 3 * first_12.count("b")

    def test_byte_costs_bound_each_round(self):
        env = Environment()
        drr = Tenants(env, quantum=1000)
        for _ in range(4):
            drr.submit("big", 1000)
        for _ in range(8):
            drr.submit("small", 500)
        env.run(until=1e-3)
        # Per round: one big (1000B) vs two small (2x500B) — byte-fair.
        assert drr.served[:3] == [
            ("big", 1000), ("small", 500), ("small", 500)
        ]
