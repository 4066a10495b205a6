"""End-to-end chaos scenarios (``pytest -m chaos``).

Two acceptance scenarios for the chaos layer:

* kill one shard of a 4-shard :class:`ShardedOffloadServer` mid-workload
  and recover it from raw disk — every request settles, the durability
  audit passes, and the same seed replays the identical fault log and
  final disk state;
* crash a single server's offload engine — clients ride through on
  retry/backoff plus the director's host-fallback circuit breaker, and
  the fault/recovery processes are visible in the simulation trace.
"""

from types import SimpleNamespace

import pytest

from repro.bench.harness import run_shard_kill
from repro.core.client import ClientConfig, DdsClient
from repro.core.messages import IoRequest, OpCode
from repro.faults import EngineCrash, FaultInjector, FaultPlan, ShardKill
from repro.hardware.nic import NetworkLink
from repro.net.packet import FiveTuple
from repro.sim import Environment
from repro.sim.trace import EventLog
from repro.storage.disk import RamDisk, SpdkBdev
from repro.storage.filesystem import DdsFileSystem
from repro.topology.registry import build_server

pytestmark = pytest.mark.chaos

IO_SIZE = 1024
TOTAL_REQUESTS = 3200


@pytest.fixture(scope="module")
def shard_kill_runs():
    """Kill shard 1 of 4 mid-workload, recover it 4 ms later — twice."""
    kill = ShardKill(at=1.5e-3, down_for=4e-3, shard=1)
    return tuple(
        run_shard_kill(kill, seed=7, total_requests=TOTAL_REQUESTS)
        for _ in range(2)
    )


class TestShardKillRecovery:
    def test_all_requests_settle_without_failures(self, shard_kill_runs):
        run, _ = shard_kill_runs
        assert run.result.failed_requests == 0
        assert len(run.result.latencies) == TOTAL_REQUESTS
        assert run.result.retries > 0  # the kill window was felt

    def test_durability_audit_passes(self, shard_kill_runs):
        run, _ = shard_kill_runs
        run.report.assert_ok()
        assert run.report.verified_writes > 0
        assert run.report.double_applies == 0

    def test_kill_window_was_observed_by_the_fabric(self, shard_kill_runs):
        run, _ = shard_kill_runs
        dead = run.server.shards[1].director
        steering = run.server._steering
        # Either ingress flows failed over to a live shard, or messages
        # reached the dead director and were dropped (usually both).
        assert steering.failovers > 0 or dead.dropped_messages > 0

    def test_fault_log_records_kill_and_recovery(self, shard_kill_runs):
        run, _ = shard_kill_runs
        kinds = [record.kind for record in run.injector.fault_log]
        assert kinds == ["shard-kill", "shard-recover"]
        recover = run.injector.fault_log[1]
        assert recover.time >= 1.5e-3 + 4e-3
        assert "recovery_time=" in recover.detail

    def test_recovered_shard_is_live_and_rewired(self, shard_kill_runs):
        run, _ = shard_kill_runs
        shard = run.server.shards[1]
        assert shard.alive and shard.director.alive
        assert not shard.engine.crashed
        recovered = run.server.filesystems[1]
        assert shard.backend.filesystem is recovered
        assert shard.backend.file_service.filesystem is recovered

    def test_same_seed_replays_identical_run(self, shard_kill_runs):
        first, second = shard_kill_runs
        assert (
            first.injector.fault_log_lines()
            == second.injector.fault_log_lines()
        )
        assert first.state_digest() == second.state_digest()
        assert first.result.retries == second.result.retries
        assert sorted(first.result.latencies) == sorted(
            second.result.latencies
        )


def run_engine_down():
    """Crash the single server's offload engine for 2 ms mid-workload."""
    log = EventLog()
    env = Environment(trace=log)
    db_bytes = 32 << 20
    fs = DdsFileSystem(env, SpdkBdev(env, RamDisk(db_bytes + (32 << 20))))
    fs.create_directory("bench")
    file_id = fs.create_file("bench", "database")
    fs.preallocate(file_id, db_bytes)
    link = NetworkLink(env)
    server = build_server("dds-offload", env, link, fs)
    server.enable_resilience()
    plan = FaultPlan(
        seed=3, events=(EngineCrash(at=1e-3, down_for=2e-3, shard=0),)
    )
    injector = FaultInjector(env, server, plan).arm()
    config = ClientConfig(
        offered_iops=200e3,
        total_requests=1600,
        io_size=IO_SIZE,
        batch=4,
        connections=8,
        max_outstanding=256,
        file_size=db_bytes,
        seed=11,
    )
    client = DdsClient(env, server, file_id, config)
    result = client.run()
    env.run(until=env.timeout(1e-3))
    return SimpleNamespace(
        env=env,
        log=log,
        server=server,
        injector=injector,
        result=result,
        file_id=file_id,
    )


@pytest.fixture(scope="module")
def engine_down():
    return run_engine_down()


class TestEngineCrashFallback:
    def test_requests_ride_through_on_retries(self, engine_down):
        assert engine_down.result.failed_requests == 0
        assert len(engine_down.result.latencies) == 1600
        assert engine_down.result.retries > 0

    def test_breaker_opened_and_closed_again(self, engine_down):
        breaker = engine_down.server.shards[0].director.breaker
        assert breaker.times_opened >= 1
        assert breaker.state == breaker.CLOSED
        states = [state for _, state in breaker.transitions]
        assert "open" in states and states[-1] == "closed"

    def test_host_fallback_carried_the_down_window(self, engine_down):
        assert engine_down.server.shards[0].director.requests_to_host > 0

    def test_engine_serves_again_after_restart(self, engine_down):
        server = engine_down.server
        env = engine_down.env
        assert not server.shards[0].engine.crashed
        before = server.shards[0].director.requests_offloaded
        responses = []
        flow = FiveTuple("10.0.0.9", 55_555, "10.0.0.1", 5000)
        probe = IoRequest(
            OpCode.READ, 1 << 30, engine_down.file_id, 0, IO_SIZE
        )
        server.submit(flow, [probe], responses.append)
        env.run(until=env.timeout(1e-3))
        assert responses and responses[0].ok
        assert server.shards[0].director.requests_offloaded > before

    def test_fault_and_recovery_visible_in_sim_trace(self, engine_down):
        names = {
            record.name
            for record in engine_down.log
            if record.kind == "process"
        }
        assert any(name.startswith("fault:engine-crash") for name in names)
        assert "recover:engine:shard0" in names
        kinds = [record.kind for record in engine_down.injector.fault_log]
        assert kinds == ["engine-crash", "engine-restart"]
