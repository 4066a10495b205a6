"""Mixed YCSB workloads over the disaggregated KV service."""

import pytest

from repro.apps import kv_service, run_kv_experiment


class TestMixedWorkloads:
    def test_ycsb_b_mostly_offloaded(self, monkeypatch):
        """95% reads: writes trickle to the host, reads stay on the DPU."""
        monkeypatch.setattr(kv_service, "READ_FRACTION", 0.95)
        result = run_kv_experiment("dds", 400e3, total_requests=4000)
        assert 0.85 < result.offloaded_fraction < 0.96
        assert result.host_cores < 1.5

    def test_ycsb_a_splits_roughly_in_half(self, monkeypatch):
        """50/50: every write (and reads of invalidated keys) on the host."""
        monkeypatch.setattr(kv_service, "READ_FRACTION", 0.5)
        result = run_kv_experiment("dds", 300e3, total_requests=4000)
        assert 0.35 < result.offloaded_fraction < 0.55

    def test_host_cpu_grows_with_write_fraction(self, monkeypatch):
        read_heavy = run_kv_experiment("dds", 300e3, total_requests=3000)
        monkeypatch.setattr(kv_service, "READ_FRACTION", 0.5)
        write_heavy = run_kv_experiment("dds", 300e3, total_requests=3000)
        assert write_heavy.host_cores > 2 * read_heavy.host_cores

    def test_baseline_handles_mixed_load(self, monkeypatch):
        monkeypatch.setattr(kv_service, "READ_FRACTION", 0.5)
        result = run_kv_experiment(
            "baseline", 250e3, total_requests=3000, batch=1
        )
        assert result.achieved == pytest.approx(250e3, rel=0.15)
        assert result.offloaded_fraction == 0.0

    def test_sustained_churn_survives_flushes(self, monkeypatch):
        """Heavy updates force many log flushes through the DDS library;
        the service must stay correct and keep serving."""
        monkeypatch.setattr(kv_service, "RECORDS", 50_000)
        monkeypatch.setattr(kv_service, "MEMORY_BUDGET", 64 << 10)
        monkeypatch.setattr(kv_service, "READ_FRACTION", 0.3)
        result = run_kv_experiment("dds", 300e3, total_requests=8000)
        assert result.achieved > 200e3
        # Reads never error (the client records a latency per response;
        # failures would crash the run via unwatched process errors).
        assert result.p99 > result.p50 > 0
