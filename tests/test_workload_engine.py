"""The open-loop traffic engine: arrivals, tenant specs, determinism.

Statistical checks use wide tolerances on purpose — every stream is
seeded, so the numbers are reproducible, but the assertions should
state distributional *properties* (mean rate, flash-crowd density),
not memorize draws.
"""

import pytest

from repro.bench.harness import build_cluster
from repro.core.retry import RetryBudget, RetryPolicy
from repro.sim import SeededRng
from repro.workload import (
    FlashCrowd,
    OpenLoopTrafficEngine,
    PoissonArrivals,
    RateCurve,
    TenantSpec,
)


def collect(process, rate, horizon, seed=5, **curve_kw):
    curve = RateCurve(rate, **curve_kw)
    return list(process.arrivals(SeededRng(seed), curve, horizon))


# ----------------------------------------------------------------------
# rate curves
# ----------------------------------------------------------------------
class TestRateCurves:
    def test_flash_crowd_plateau_edges(self):
        """The plateau is ``[start, start + duration)``: the start is
        in the crowd, the end is not."""
        crowd = FlashCrowd(start=1.0, duration=1.0, multiplier=8.0)
        assert crowd.multiplier_at(0.999) == 1.0
        assert crowd.multiplier_at(1.0) == 8.0
        assert crowd.multiplier_at(1.5) == 8.0
        assert crowd.multiplier_at(1.999) == 8.0
        assert crowd.multiplier_at(2.0) == 1.0

    def test_curve_composes_base_and_events(self):
        curve = RateCurve(
            1000.0,
            events=(
                FlashCrowd(start=0.2, duration=0.1, multiplier=4.0),
                FlashCrowd(start=0.25, duration=0.1, multiplier=2.0),
            ),
        )
        assert curve.peak_rate() == pytest.approx(1000.0 * 4.0 * 2.0)
        assert curve.rate(0.1) == 1000.0
        assert curve.rate(0.22) == 4000.0
        assert curve.rate(0.27) == 8000.0  # overlapping crowds multiply
        assert curve.rate(0.32) == 2000.0

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            RateCurve(-1.0)
        with pytest.raises(ValueError):
            FlashCrowd(start=0, duration=1.0, multiplier=0.5)
        with pytest.raises(ValueError):
            FlashCrowd(start=0, duration=0.0)


# ----------------------------------------------------------------------
# arrival processes
# ----------------------------------------------------------------------
class TestArrivals:
    def test_poisson_mean_rate(self):
        times = collect(PoissonArrivals(), 50_000.0, 40e-3)
        assert len(times) == pytest.approx(2000, rel=0.15)
        assert times == sorted(times)
        assert all(0 <= t < 40e-3 for t in times)

    def test_poisson_thinning_tracks_flash_crowd(self):
        times = collect(
            PoissonArrivals(),
            50_000.0,
            30e-3,
            events=(FlashCrowd(start=10e-3, duration=10e-3, multiplier=5.0),),
        )
        inside = sum(1 for t in times if 10e-3 <= t < 20e-3)
        outside = len(times) - inside
        # The crowd window should hold ~5x the density of a plain window.
        assert inside / max(outside / 2, 1) == pytest.approx(5.0, rel=0.3)

    def test_arrivals_deterministic_per_seed(self):
        a = collect(PoissonArrivals(), 20_000.0, 20e-3, seed=9)
        b = collect(PoissonArrivals(), 20_000.0, 20e-3, seed=9)
        c = collect(PoissonArrivals(), 20_000.0, 20e-3, seed=10)
        assert a == b
        assert a != c


# ----------------------------------------------------------------------
# tenant specs
# ----------------------------------------------------------------------
class TestPopulation:
    def test_spec_validation(self, monkeypatch):
        with pytest.raises(ValueError):
            TenantSpec("t", 0, rate=-1.0)
        with pytest.raises(ValueError):
            TenantSpec("t", 0, rate=1.0, weight=0.0)
        with monkeypatch.context() as patch, pytest.raises(ValueError):
            patch.setattr(TenantSpec, "READ_FRACTION", 1.5)
            TenantSpec("t", 0, rate=1.0)
        with monkeypatch.context() as patch, pytest.raises(ValueError):
            patch.setattr(TenantSpec, "ZIPF_THETA", -0.5)
            TenantSpec("t", 0, rate=1.0)
        with pytest.raises(ValueError):
            TenantSpec("t", 0, rate=1.0, slo_p99=0.0)
        with pytest.raises(ValueError):
            TenantSpec("t", 0, rate=1.0, slo_p99=-1e-3)


# ----------------------------------------------------------------------
# the engine against a real sharded server
# ----------------------------------------------------------------------
def build_server():
    cluster = build_cluster(shards=2, files=8, file_bytes=1 << 20)
    return cluster.env, cluster.server, cluster.file_ids


def tenants(count, total_rate):
    """``count`` tenants of unequal rates (1:2:…:count) summing to
    ``total_rate``."""
    scale = total_rate / (count * (count + 1) / 2)
    return [
        TenantSpec(f"tenant-{i:04d}", i, rate=(i + 1) * scale)
        for i in range(count)
    ]


def run_engine(seed=9, **engine_kw):
    env, server, file_ids = build_server()
    engine = OpenLoopTrafficEngine(
        env, server, tenants(40, 60_000.0), file_ids, horizon=15e-3,
        seed=seed, **engine_kw
    )
    return engine, engine.run()


class TestEngine:
    def test_moderate_load_all_acked(self):
        _engine, result = run_engine()
        assert result.offered > 500
        assert result.acked == result.offered
        assert result.failed == 0
        assert result.amplification == 1.0
        assert result.p99 > 0
        # Per-tenant outcomes tile the aggregate.
        assert sum(o.offered for o in result.tenants.values()) == (
            result.offered
        )
        assert sum(o.acked for o in result.tenants.values()) == result.acked

    def test_goodput_curve_sums_to_acks(self):
        _engine, result = run_engine()
        curve = result.goodput_curve(bucket=1e-3)
        assert sum(c * 1e-3 for c in curve) == pytest.approx(result.acked)

    def test_replay_is_deterministic(self):
        _e1, first = run_engine(
            retry_policy=RetryPolicy(max_attempts=3, timeout=2e-3),
            retry_budget=RetryBudget(),
        )
        _e2, second = run_engine(
            retry_policy=RetryPolicy(max_attempts=3, timeout=2e-3),
            retry_budget=RetryBudget(),
        )
        assert first.offered == second.offered
        assert first.acked == second.acked
        assert first.ack_times == second.ack_times

    def test_flash_crowd_raises_offered_load(self):
        _calm, calm = run_engine()
        _spike, spiked = run_engine(
            events=(FlashCrowd(start=5e-3, duration=5e-3, multiplier=4.0),)
        )
        assert spiked.offered > calm.offered * 1.5

    def test_tenant_classifiers_round_trip(self):
        env, server, file_ids = build_server()
        engine = OpenLoopTrafficEngine(
            env, server, tenants(8, 10_000.0), file_ids, horizon=1e-3
        )
        for state in engine._states:
            assert engine.tenant_for_flow(state.flow) == state.spec.name
            request = engine._make_request(state)
            assert engine.tenant_for_request(request) == state.spec.name

    def test_engine_validation(self):
        env, server, file_ids = build_server()
        specs = [TenantSpec("t", 0, rate=100.0)]
        with pytest.raises(ValueError):
            OpenLoopTrafficEngine(env, server, specs, file_ids, horizon=0)
        with pytest.raises(ValueError):
            OpenLoopTrafficEngine(env, server, [], file_ids, horizon=1e-3)
        with pytest.raises(ValueError):
            OpenLoopTrafficEngine(env, server, specs, [], horizon=1e-3)
        engine = OpenLoopTrafficEngine(
            env, server, specs, file_ids, horizon=1e-3
        )
        engine.start()
        with pytest.raises(RuntimeError):
            engine.start()

    @pytest.mark.parametrize("indices", [(0, 1, 1), (7,), (1, 0)])
    def test_tenant_indices_must_be_their_positions(self, indices):
        """The index names the tenant's flow and request tag: a repeat
        would give two tenants one flow, a gap a tag naming nobody."""
        env, server, file_ids = build_server()
        specs = [
            TenantSpec(f"t{n}", index, rate=100.0)
            for n, index in enumerate(indices)
        ]
        with pytest.raises(ValueError, match="indices must be"):
            OpenLoopTrafficEngine(env, server, specs, file_ids, horizon=1e-3)
