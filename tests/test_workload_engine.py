"""The open-loop traffic engine: arrivals, populations, determinism.

Statistical checks use wide tolerances on purpose — every stream is
seeded, so the numbers are reproducible, but the assertions should
state distributional *properties* (burstier-than-Poisson, flash-crowd
density, heavy-tailed shares), not memorize draws.
"""

import pytest

from repro.bench.harness import build_cluster
from repro.core.retry import RetryBudget, RetryPolicy
from repro.sim import SeededRng
from repro.workload import (
    BModelArrivals,
    DiurnalCurve,
    FlashCrowd,
    OnOffArrivals,
    OpenLoopTrafficEngine,
    PoissonArrivals,
    RateCurve,
    TenantSpec,
    heavy_tailed_population,
    population_users,
)


def collect(process, rate, horizon, seed=5, **curve_kw):
    curve = RateCurve(rate, **curve_kw)
    return list(process.arrivals(SeededRng(seed), curve, horizon))


def dispersion(times, horizon, bins):
    """Index of dispersion (var/mean) of per-bin arrival counts."""
    counts = [0] * bins
    width = horizon / bins
    for t in times:
        counts[min(bins - 1, int(t / width))] += 1
    mean = sum(counts) / bins
    if mean == 0:
        return 0.0
    var = sum((c - mean) ** 2 for c in counts) / bins
    return var / mean


# ----------------------------------------------------------------------
# rate curves
# ----------------------------------------------------------------------
class TestRateCurves:
    def test_diurnal_swings_around_mean(self):
        curve = DiurnalCurve(amplitude=0.4, period=1.0)
        values = [curve.multiplier(t / 100) for t in range(100)]
        assert max(values) == pytest.approx(1.4, abs=0.01)
        assert min(values) == pytest.approx(0.6, abs=0.01)
        assert curve.peak_multiplier == pytest.approx(1.4)

    def test_flash_crowd_plateau_and_ramps(self):
        crowd = FlashCrowd(start=1.0, duration=1.0, multiplier=8.0, ramp=0.25)
        assert crowd.multiplier_at(0.5) == 1.0
        assert crowd.multiplier_at(1.5) == 8.0  # plateau
        assert 1.0 < crowd.multiplier_at(1.1) < 8.0  # rising edge
        assert 1.0 < crowd.multiplier_at(1.9) < 8.0  # falling edge
        assert crowd.multiplier_at(2.5) == 1.0

    def test_curve_composes_base_diurnal_events(self):
        curve = RateCurve(
            1000.0,
            diurnal=DiurnalCurve(amplitude=0.5, period=1.0),
            events=(FlashCrowd(start=0.2, duration=0.1, multiplier=4.0),),
        )
        assert curve.peak_rate() == pytest.approx(1000.0 * 1.5 * 4.0)
        assert curve.rate(0.25) > curve.rate(0.9)
        assert curve.mean_rate(1.0) > 1000.0  # the crowd adds mass

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            RateCurve(-1.0)
        with pytest.raises(ValueError):
            DiurnalCurve(amplitude=1.5)
        with pytest.raises(ValueError):
            FlashCrowd(start=0, duration=1.0, multiplier=0.5)
        with pytest.raises(ValueError):
            FlashCrowd(start=0, duration=1.0, ramp=0.8)


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

    def test_onoff_burstier_than_poisson(self):
        horizon, rate = 80e-3, 50_000.0
        poisson = collect(PoissonArrivals(), rate, horizon, seed=11)
        onoff = collect(OnOffArrivals(), rate, horizon, seed=11)
        bins = 80
        assert dispersion(onoff, horizon, bins) > 2 * dispersion(
            poisson, horizon, bins
        )
        # Long-run mean still tracks the curve.
        assert len(onoff) == pytest.approx(len(poisson), rel=0.45)

    def test_bmodel_burstier_than_poisson_exact_count(self):
        horizon, rate = 40e-3, 50_000.0
        times = collect(BModelArrivals(bias=0.8), rate, horizon, seed=3)
        poisson = collect(PoissonArrivals(), rate, horizon, seed=3)
        assert len(times) == round(rate * horizon)  # budget is exact
        assert times == sorted(times)
        assert dispersion(times, horizon, 64) > 3 * dispersion(
            poisson, horizon, 64
        )

    def test_arrivals_deterministic_per_seed(self):
        for process in (
            PoissonArrivals(),
            OnOffArrivals(),
            BModelArrivals(),
        ):
            a = collect(process, 20_000.0, 20e-3, seed=9)
            b = collect(process, 20_000.0, 20e-3, seed=9)
            c = collect(process, 20_000.0, 20e-3, seed=10)
            assert a == b
            assert a != c

    def test_arrival_validation(self):
        with pytest.raises(ValueError):
            OnOffArrivals(alpha=2.5)
        with pytest.raises(ValueError):
            OnOffArrivals(mean_on=0)
        with pytest.raises(ValueError):
            BModelArrivals(bias=0.4)
        with pytest.raises(ValueError):
            BModelArrivals(levels=0)


# ----------------------------------------------------------------------
# tenant populations
# ----------------------------------------------------------------------
class TestPopulation:
    def test_rates_normalize_and_tail_is_heavy(self):
        specs = heavy_tailed_population(
            count=400, total_rate=150_000.0, rng=SeededRng(7)
        )
        assert len(specs) == 400
        assert sum(s.rate for s in specs) == pytest.approx(150_000.0)
        shares = sorted((s.rate for s in specs), reverse=True)
        top_decile = sum(shares[:40]) / 150_000.0
        assert top_decile > 0.25  # whales dominate
        assert all(s.users >= 1 for s in specs)

    def test_population_models_a_million_users(self):
        specs = heavy_tailed_population(
            count=2000, total_rate=150_000.0, rng=SeededRng(1)
        )
        # 150K IOPS at 0.15 req/user/s stands for ~a million users.
        assert population_users(specs) == pytest.approx(1_000_000, rel=0.01)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TenantSpec("t", 0, rate=-1.0)
        with pytest.raises(ValueError):
            TenantSpec("t", 0, rate=1.0, weight=0.0)
        with pytest.raises(ValueError):
            TenantSpec("t", 0, rate=1.0, read_fraction=1.5)
        with pytest.raises(ValueError):
            heavy_tailed_population(0, 1.0, SeededRng(1))
        with pytest.raises(ValueError):
            heavy_tailed_population(2, 1.0, SeededRng(1), alpha=1.0)


# ----------------------------------------------------------------------
# the engine against a real sharded server
# ----------------------------------------------------------------------
def build_server():
    cluster = build_cluster(shards=2, files=8, file_bytes=1 << 20)
    return cluster.env, cluster.server, cluster.file_ids


def run_engine(seed=9, **engine_kw):
    env, server, file_ids = build_server()
    tenants = heavy_tailed_population(
        count=40, total_rate=60_000.0, rng=SeededRng(seed)
    )
    engine = OpenLoopTrafficEngine(
        env, server, tenants, file_ids, horizon=15e-3, seed=seed, **engine_kw
    )
    return engine, engine.run()


class TestEngine:
    def test_moderate_load_all_acked(self):
        engine, result = run_engine()
        assert result.offered > 500
        assert result.acked == result.offered
        assert result.failed == 0
        assert result.amplification == 1.0
        assert result.p99 > 0
        assert result.users == population_users(
            [s.spec for s in engine._states]
        )
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
        specs = heavy_tailed_population(
            count=8, total_rate=10_000.0, rng=SeededRng(2)
        )
        engine = OpenLoopTrafficEngine(
            env, server, specs, file_ids, horizon=1e-3
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
