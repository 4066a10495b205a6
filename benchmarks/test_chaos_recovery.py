"""Chaos recovery benchmark: throughput dip and time-to-recover.

Kills one shard of a four-shard deployment mid-workload and measures
what the paper's §4.3 crash-consistency story costs end-to-end: the
acknowledged-request throughput in 1 ms buckets (the dip while the
shard is dark, the climb back after raw-disk recovery), the metadata
recovery time itself, and the durability audit over the final disk
state.  Run with ``pytest -m chaos benchmarks/test_chaos_recovery.py``.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import pytest
from _tables import emit, kops, us

from repro.bench.harness import SHARD_KILL, ack_buckets, run
from repro.faults import ShardKill
from repro.sim.stats import rate, slices
from repro.topology.events import Appended, Committed, LeaderHandoff

pytestmark = pytest.mark.chaos

TOTAL_REQUESTS = 4800
BUCKET = 1e-3  # throughput histogram resolution

KILL_AT = 2e-3
DOWN_FOR = 3e-3
KILL = ShardKill(at=KILL_AT, down_for=DOWN_FOR, shard=2)


def run_chaos_bench(seed=13, replicated=False):
    """The kit's shard-kill scenario plus the recovery figures."""
    done = run(replace(
        SHARD_KILL, seed=seed, total_requests=TOTAL_REQUESTS,
        replicated=replicated, faults=(KILL,),
    ))
    recover_record = next(
        record
        for record in done.injector.fault_log
        if record.kind == "shard-recover"
    )
    recovery_us = float(
        recover_record.detail.split("recovery_time=")[1].rstrip("us")
    )
    return SimpleNamespace(
        server=done.server,
        replicator=done.server.replicator,
        checker=done.checker,
        result=done.result,
        injector=done.injector,
        acks=done.acks,
        dead_files=done.files_on(KILL.shard),
        recover_time=recover_record.time,
        recovery_us=recovery_us,
        report=done.report,
        digest=done.state_digest(),
    )


def outage_buckets(run):
    """Dead-keyspace acks per half-ms slice of the kill window."""
    return ack_buckets(run.acks, run.dead_files, KILL_AT, KILL_AT + DOWN_FOR)


def summarize(run):
    """Total and dead-shard ack rates around the kill window."""
    stamps = [stamp for stamp, _ in run.acks]
    dead = [stamp for stamp, file_id in run.acks if file_id in run.dead_files]
    last = int(max(stamps) / BUCKET)  # the run ends inside this bucket
    end = BUCKET * (last + 1)
    # Whole buckets that start once the shard is back, short of the last.
    back = math.ceil(run.recover_time / BUCKET)
    return SimpleNamespace(
        buckets=slices(stamps, 0.0, end, BUCKET),
        dead_buckets=slices(dead, 0.0, end, BUCKET),
        steady=rate(stamps, 0.0, KILL_AT),
        outage=rate(stamps, KILL_AT, KILL_AT + DOWN_FOR),
        dead_steady=rate(dead, 0.0, KILL_AT),
        recovered=rate(stamps, back * BUCKET, last * BUCKET),
        after_ids=list(range(back, last)),
        # Past the outage's first half-millisecond, which still drains
        # responses that were on the wire when the shard died.
        dark_dead=sum(outage_buckets(run)[1:]),
        recovered_dead=sum(slices(dead, run.recover_time, end, BUCKET)),
    )


def bucket_rows(stats):
    """One table row per 1 ms bucket: all acks, dead-shard acks, rate."""
    return [
        (
            f"{bucket * BUCKET * 1e3:.0f}-{(bucket + 1) * BUCKET * 1e3:.0f}ms",
            count,
            dead,
            kops(count / BUCKET),
        )
        for bucket, (count, dead) in enumerate(
            zip(stats.buckets, stats.dead_buckets)
        )
    ]


@pytest.fixture(scope="module")
def runs():
    return run_chaos_bench(seed=13), run_chaos_bench(seed=13)


@pytest.fixture(scope="module")
def table(runs):
    run = runs[0]
    stats = summarize(run)
    rows = bucket_rows(stats)
    rows.append(("recovery", "-", "-", us(run.recovery_us / 1e6)))
    emit(
        "chaos_recovery",
        "acked throughput around a shard kill (kill 2ms, restart 5ms)",
        ("window", "acks", "dead-shard", "rate"),
        rows,
    )
    return stats


class TestChaosRecoveryBench:
    def test_every_request_settles_durably(self, runs):
        run = runs[0]
        assert run.result.failed_requests == 0
        assert len(run.result.latencies) == TOTAL_REQUESTS
        run.report.assert_ok()
        assert run.report.verified_writes > 0

    def test_dead_shard_goes_dark_during_the_kill_window(self, runs, table):
        run = runs[0]
        assert run.dead_files, "shard 2 owns no files; reseed the layout"
        assert table.dead_steady > 0  # it was serving before the kill
        # A dead DPU cannot transmit: past the in-flight drain, nothing
        # it owns is acknowledged until recovery.
        assert table.dark_dead <= 2

    def test_dead_shard_serves_again_after_recovery(self, runs, table):
        run = runs[0]
        # The retry backlog for the dead shard's files settles once the
        # filesystem is recovered from raw disk.
        assert table.recovered_dead > len(run.dead_files)

    def test_throughput_recovers_after_restart(self, runs, table):
        assert table.after_ids, "run ended before the shard recovered"
        assert table.recovered >= 0.8 * table.steady

    def test_metadata_recovery_is_fast(self, runs):
        run = runs[0]
        # §4.3: recovery replays one metadata segment from raw disk —
        # it must be far quicker than the outage it repairs.
        assert run.recover_time >= KILL_AT + DOWN_FOR
        assert run.recovery_us / 1e6 < DOWN_FOR

    def test_same_seed_reproduces_the_run(self, runs):
        first, second = runs
        assert first.injector.fault_log_lines() == (
            second.injector.fault_log_lines()
        )
        assert first.digest == second.digest
        assert first.acks == second.acks


# ----------------------------------------------------------------------
# replicated shard groups: zero-dark-window failover
# ----------------------------------------------------------------------
def run_replicated_bench(seed=13):
    """Same kill, but with synchronous primary→backup replication on.

    The backup of shard 2's replica group serves its keyspace from the
    crash instant onward, so — unlike the plain :func:`run_chaos_bench`
    — the dead keyspace keeps acknowledging through the whole outage.
    The Derecho-style runtime checker audits every protocol step while
    the chaos runs.
    """
    return run_chaos_bench(seed, replicated=True)


@pytest.fixture(scope="module")
def replicated_run():
    return run_replicated_bench(seed=13)


@pytest.fixture(scope="module")
def replicated_table(replicated_run):
    run = replicated_run
    stats = summarize(run)
    rows = bucket_rows(stats)
    replicator = run.replicator
    rows.append(("handoffs", replicator.handoffs, "-", "-"))
    rows.append(("mirrored", replicator.mirrored_writes, "-", "-"))
    rows.append(("solo-acks", replicator.solo_acks, "-", "-"))
    rows.append(("catch-up", replicator.catchup_replays, "-", "-"))
    rows.append(("ingress-drops", run.server.steering.dropped, "-", "-"))
    rows.append(("violations", len(run.checker.violations), "-", "-"))
    rows.append(
        ("recovery+catchup", "-", "-", us(run.recovery_us / 1e6))
    )
    emit(
        "chaos_replication",
        "replicated failover: acked throughput around a shard kill",
        ("window", "acks", "dead-shard", "rate"),
        rows,
    )
    return stats


class TestReplicatedChaosBench:
    def test_zero_dark_window(self, replicated_run, replicated_table):
        """Every outage slice keeps acking the dead shard's keyspace."""
        assert replicated_run.dead_files
        buckets = outage_buckets(replicated_run)
        assert all(count > 0 for count in buckets), buckets

    def test_runtime_checker_is_clean_and_saw_the_protocol(
        self, replicated_run
    ):
        run = replicated_run
        assert run.checker.violations == []
        run.report.assert_ok()
        assert run.result.failed_requests == 0
        assert run.checker.seen[Appended] > 0
        assert run.checker.seen[Committed] == run.checker.seen[Appended]
        assert run.checker.seen[LeaderHandoff] == 2
        assert run.checker.duplicate_acks == 0

    def test_failover_and_catchup_counters(self, replicated_run):
        replicator = replicated_run.replicator
        assert replicator.handoffs == 2  # kill handoff + rejoin handback
        assert replicator.mirrored_writes > 0
        assert replicator.solo_acks > 0
        assert replicator.catchup_replays > 0
        assert replicator.mirror_failures == 0
        assert replicated_run.server.steering.dropped == 0

    def test_throughput_holds_through_the_outage(
        self, replicated_run, replicated_table
    ):
        # The headline difference from the unreplicated bench: overall
        # acked throughput barely dips while the shard is dark, because
        # the backup absorbs the dead keyspace immediately.
        stats = replicated_table
        assert stats.outage >= 0.8 * stats.steady

    def test_same_seed_reproduces_the_replicated_run(self, replicated_run):
        again = run_replicated_bench(seed=13)
        assert replicated_run.injector.fault_log_lines() == (
            again.injector.fault_log_lines()
        )
        assert replicated_run.digest == again.digest
        assert replicated_run.acks == again.acks
