"""Unit tests for the chaos layer's building blocks.

Covers the fault-plan vocabulary, the seeded network chaos gate, the
client retry policy, the circuit breaker, request-id dedup, and the
SSD's deterministic latency-spike injection (including a golden-pinned
seeded failure sequence).
"""

import types

import pytest

from repro.core.dedup import RequestDedup
from repro.core.messages import IoRequest, IoResponse, OpCode
from repro.core.retry import CircuitBreaker, RetryPolicy
from repro.faults import (
    EngineCrash,
    FaultPlan,
    InvariantChecker,
    NetworkChaos,
    NicFault,
    ShardKill,
    SsdErrorBurst,
    SsdLatencySpike,
)
from repro.hardware.ssd import DeviceError, NvmeDevice
from repro.sim import Environment, SeededRng
from repro.storage.disk import RamDisk, SpdkBdev
from repro.storage.filesystem import DdsFileSystem


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            seed=3,
            events=(
                ShardKill(at=5e-3, shard=1),
                SsdErrorBurst(at=1e-3, count=2),
                NicFault(at=2e-3, duration=1e-3, drop=0.1),
            ),
        )
        assert [type(e) for e in plan.events] == [
            SsdErrorBurst,
            NicFault,
            ShardKill,
        ]
        assert len(plan) == 3

    def test_seeded_streams_are_stable_per_label(self):
        a = FaultPlan(seed=11).rng("nic:0")
        b = FaultPlan(seed=11).rng("nic:0")
        other = FaultPlan(seed=11).rng("nic:1")
        draws = [a.random() for _ in range(8)]
        assert draws == [b.random() for _ in range(8)]
        assert draws != [other.random() for _ in range(8)]

    def test_validation(self):
        with pytest.raises(ValueError):
            NicFault(at=-1.0, duration=1e-3)
        with pytest.raises(ValueError):
            NicFault(at=0.0, duration=0.0)
        with pytest.raises(ValueError):
            NicFault(at=0.0, duration=1e-3, drop=1.5)
        with pytest.raises(ValueError):
            SsdErrorBurst(at=0.0, count=0)
        with pytest.raises(ValueError):
            SsdLatencySpike(at=0.0, extra=0.0)
        with pytest.raises(ValueError):
            EngineCrash(at=0.0, down_for=0.0)
        with pytest.raises(ValueError):
            ShardKill(at=0.0, down_for=-1.0)


class TestNetworkChaos:
    def test_rates_must_fit_one_draw(self):
        env = Environment()
        with pytest.raises(ValueError):
            NetworkChaos(env, SeededRng(0), drop=0.6, duplicate=0.6)
        with pytest.raises(ValueError):
            NetworkChaos(env, SeededRng(0), drop=-0.1)

    def test_classification_counts_and_determinism(self):
        def sample(seed):
            chaos = NetworkChaos(
                Environment(),
                SeededRng(seed),
                drop=0.2,
                duplicate=0.2,
                reorder=0.2,
                corrupt=0.1,
            )
            return [chaos.classify() for _ in range(200)], chaos

        actions, chaos = sample(5)
        again, _ = sample(5)
        assert actions == again
        assert chaos.dropped == actions.count("drop")
        assert chaos.duplicated == actions.count("duplicate")
        assert chaos.reordered == actions.count("reorder")
        assert chaos.corrupted == actions.count("corrupt")
        assert chaos.delivered == actions.count("deliver")
        for kind in ("drop", "duplicate", "reorder", "corrupt", "deliver"):
            assert kind in actions

    def test_wrap_response_duplicates_and_drops(self):
        env = Environment()
        # drop band then duplicate band: force with rates 1.0.
        delivered = []
        dropper = NetworkChaos(env, SeededRng(1), drop=1.0)
        dropper.wrap_response(delivered.append)("r1")
        assert delivered == []
        doubler = NetworkChaos(env, SeededRng(1), duplicate=1.0)
        doubler.wrap_response(delivered.append)("r2")
        assert delivered == ["r2", "r2"]

    def test_wrap_response_reorder_delays_delivery(self):
        env = Environment()
        chaos = NetworkChaos(
            env, SeededRng(1), reorder=1.0, reorder_delay=30e-6
        )
        delivered = []
        chaos.wrap_response(lambda r: delivered.append((env.now, r)))("r")
        assert delivered == []  # held back
        env.run()
        assert delivered == [(30e-6, "r")]


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(
            backoff_base=100e-6, backoff_cap=500e-6, jitter=0.0
        )
        rng = SeededRng(0)
        delays = [policy.backoff(a, rng) for a in range(5)]
        assert delays == pytest.approx(
            [100e-6, 200e-6, 400e-6, 500e-6, 500e-6]
        )

    def test_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(backoff_base=100e-6, jitter=0.2)
        first = [policy.backoff(0, SeededRng(9)) for _ in range(20)]
        second = [policy.backoff(0, SeededRng(9)) for _ in range(20)]
        assert first == second
        assert all(100e-6 <= d <= 120e-6 for d in first)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=2e-3, backoff_cap=1e-3)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestCircuitBreaker:
    def _advance(self, env, delay):
        env.run(until=env.timeout(delay))

    def test_opens_after_threshold_and_recovers(self):
        env = Environment()
        breaker = CircuitBreaker(
            env, failure_threshold=3, recovery_time=500e-6
        )
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()  # still inside recovery_time
        assert breaker.rejected == 1
        self._advance(env, 600e-6)
        assert breaker.allow()  # half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # only one probe flies
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        env = Environment()
        breaker = CircuitBreaker(
            env, failure_threshold=1, recovery_time=200e-6
        )
        breaker.record_failure()
        self._advance(env, 300e-6)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.times_opened == 2
        states = [state for _, state in breaker.transitions]
        assert states == ["open", "half-open", "open"]


def _read(rid):
    return IoRequest(OpCode.READ, rid, 1, 0, 512)


def _write(rid):
    return IoRequest(OpCode.WRITE, rid, 1, 0, 512, bytes(512))


class TestRequestDedup:
    def test_in_flight_duplicate_absorbed(self):
        env = Environment()
        dedup = RequestDedup(env)
        assert dedup.begin(_write(7))
        assert not dedup.begin(_write(7))
        assert dedup.absorbed == 1
        assert dedup.in_flight == 1

    def test_completed_response_replays(self):
        env = Environment()
        dedup = RequestDedup(env)
        dedup.begin(_read(3))
        response = IoResponse(3, True, b"x")
        dedup.complete(3, response)
        assert dedup.cached(3) is response
        assert dedup.hits == 1
        assert dedup.in_flight == 0

    def test_double_write_completion_is_counted(self):
        env = Environment()
        dedup = RequestDedup(env)
        dedup.begin(_write(5))
        dedup.complete(5, IoResponse(5, True))
        # The same write id executes and completes again (the TTL-reclaim
        # hole the durability checker watches).
        dedup.begin(_write(5))
        dedup.complete(5, IoResponse(5, True))
        assert dedup.double_applies == 1

    def test_abandon_allows_clean_reexecution(self):
        env = Environment()
        dedup = RequestDedup(env)
        dedup.begin(_write(9))
        dedup.abandon(9)
        assert dedup.begin(_write(9))
        dedup.complete(9, IoResponse(9, True))
        assert dedup.double_applies == 0

    def test_stale_read_reclaimed_after_ttl(self):
        env = Environment()
        dedup = RequestDedup(env, read_ttl=1e-3, write_ttl=10e-3)
        dedup.begin(_read(2))
        dedup.begin(_write(4))
        env.run(until=env.timeout(2e-3))
        assert dedup.begin(_read(2))  # presumed lost: reclaimed
        assert not dedup.begin(_write(4))  # writes wait much longer
        assert dedup.stale_reclaims == 1

    def test_completed_table_is_bounded_fifo(self):
        env = Environment()
        dedup = RequestDedup(env, capacity=4)
        for rid in range(1, 9):
            dedup.begin(_read(rid))
            dedup.complete(rid, IoResponse(rid, True))
        assert dedup.cached(1) is None
        assert dedup.cached(8) is not None


class TestSsdLatencySpikes:
    def _timed_read(self, device, size=4096):
        env = device.env
        start = env.now
        proc = env.process(device.read(size))
        env.run(until=proc)
        return env.now - start

    def test_forced_spike_adds_exactly_extra(self):
        # The forced path draws nothing from the device RNG, so two
        # same-seeded devices stay stream-aligned and the elapsed
        # difference is exactly the injected stall.
        plain = NvmeDevice(Environment(), rng=SeededRng(77))
        spiked = NvmeDevice(Environment(), rng=SeededRng(77))
        spiked.inject_latency_spikes(1, extra=2e-3)
        base = self._timed_read(plain)
        stalled = self._timed_read(spiked)
        assert stalled == pytest.approx(base + 2e-3)
        assert spiked.latency_spikes == 1
        # The knob is one-shot: the next op is back to normal.
        assert self._timed_read(spiked) == pytest.approx(
            self._timed_read(plain)
        )

    def test_probabilistic_spikes_are_seeded(self):
        def run(seed):
            device = NvmeDevice(Environment(), rng=SeededRng(seed))
            device.latency_spike_rate = 0.3
            device.latency_spike_extra = 1e-3
            timings = [self._timed_read(device) for _ in range(20)]
            return timings, device.latency_spikes

        first, spikes = run(123)
        assert (first, spikes) == run(123)
        assert 0 < spikes < 20

    def test_validation(self):
        device = NvmeDevice(Environment())
        with pytest.raises(ValueError):
            device.inject_latency_spikes(-1)
        with pytest.raises(ValueError):
            device.inject_latency_spikes(1, extra=-1e-3)

    def test_seeded_failure_sequence_golden(self):
        """Same seed => the exact same error/spike/ok sequence.

        Pinned artifact: if this changes, the device's fault stream
        alignment changed and every seeded chaos run silently shifted.
        """
        env = Environment()
        device = NvmeDevice(env, rng=SeededRng("chaos-golden"))
        device.error_rate = 0.25
        device.latency_spike_rate = 0.2
        device.latency_spike_extra = 5e-4
        outcomes = []

        def driver():
            for _ in range(24):
                before = device.latency_spikes
                try:
                    yield from device.read(4096)
                except DeviceError:
                    outcomes.append("E")
                else:
                    outcomes.append(
                        "S" if device.latency_spikes > before else "."
                    )

        env.process(driver())
        env.run()
        assert "".join(outcomes) == GOLDEN_FAULT_SEQUENCE


#: Pinned by the first run of ``test_seeded_failure_sequence_golden``;
#: E = injected error, S = latency spike, . = clean op.
GOLDEN_FAULT_SEQUENCE = "S...E..E....EE....SE.E.E"


class TestDurabilityAudit:
    def _fs_server(self):
        env = Environment()
        fs = DdsFileSystem(
            env, SpdkBdev(env, RamDisk(4 << 20)), segment_size=1 << 16
        )
        fs.create_directory("d")
        fid = fs.create_file("d", "f")
        fs.preallocate(fid, 1 << 16)
        server = types.SimpleNamespace(filesystems=[fs])
        return fs, server, fid

    def test_acked_write_on_disk_passes(self):
        fs, server, fid = self._fs_server()
        checker = InvariantChecker(fs.env)
        request = IoRequest(OpCode.WRITE, 1, fid, 0, 4, b"abcd")
        checker.on_issue(request)
        fs.write_sync(fid, 0, b"abcd")
        checker.on_ack(request, IoResponse(1, True))
        report = checker.check(server)
        assert report.ok and report.verified_writes == 1
        report.assert_ok()

    def test_lost_acked_write_is_reported(self):
        fs, server, fid = self._fs_server()
        checker = InvariantChecker(fs.env)
        request = IoRequest(OpCode.WRITE, 1, fid, 0, 4, b"abcd")
        checker.on_issue(request)
        checker.on_ack(request, IoResponse(1, True))  # never hit disk
        report = checker.check(server)
        assert not report.ok
        assert "acked write 1 not found" in report.lost_writes[0]
        with pytest.raises(AssertionError, match="durability violated"):
            report.assert_ok()

    def test_unacked_overwrite_is_admissible(self):
        fs, server, fid = self._fs_server()
        checker = InvariantChecker(fs.env)
        acked = IoRequest(OpCode.WRITE, 1, fid, 0, 4, b"aaaa")
        racing = IoRequest(OpCode.WRITE, 2, fid, 0, 4, b"bbbb")
        checker.on_issue(acked)
        checker.on_issue(racing)
        checker.on_ack(acked, IoResponse(1, True))
        # The unacked write was applied after the acked one; its
        # response died with a DPU.  Final content is admissible.
        fs.write_sync(fid, 0, b"bbbb")
        assert checker.check(server).ok

    def test_double_apply_from_dedup_fails(self):
        fs, server, fid = self._fs_server()
        env = fs.env
        dedup = RequestDedup(env)
        dedup.begin(_write(1))
        dedup.complete(1, IoResponse(1, True))
        dedup.begin(_write(1))
        dedup.complete(1, IoResponse(1, True))
        checker = InvariantChecker(fs.env)
        report = checker.check(server, dedup=dedup)
        assert not report.ok and report.double_applies == 1
