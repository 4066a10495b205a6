"""Chaos: shard kills landing in the middle of a live migration.

Chaos-tier scenarios for :mod:`repro.topology.resharding` (run with
``pytest -m chaos``): a two-shard replicated deployment adds a third
shard under sustained traffic, and a :class:`ShardKill` fires while the
migration copy plane is mid-flight.  Two cases:

* **source kill** — a shard that owns files being moved dies; copies
  fall through to the keyspace leader (the surviving backup), pinned
  files keep acking through the outage, and the migration completes
  after recovery;
* **destination kill** — the brand-new shard dies while segments are
  still streaming into it; copies stall until recovery, sources keep
  serving every pinned file, and every cutover still lands.

Both must finish with zero acked-write loss, a clean
:class:`InvariantChecker` audit, and no leftover pins.
"""

from dataclasses import replace

import pytest

from repro.bench.harness import ELASTIC, build_cluster, run
from repro.faults import ShardKill
from repro.topology.sharding import ConsistentHashShardMap

pytestmark = pytest.mark.chaos

# ~40 ms of traffic at the scenario's moderate 150k offered IOPS (see
# tests/test_resharding.py): the migration overlaps the outage.
TOTAL_REQUESTS = 6000
KILL_AT = 5e-3  # inside the measured add-migration window
DOWN_FOR = 3e-3


def move_sources(file_ids):
    """Pre-add owners of the files a 2→3 grow will relocate.

    Placement is a pure function of (membership, vnodes), so a
    throwaway map predicts the live server's moves exactly.
    """
    probe = ConsistentHashShardMap(2)
    before = {f: probe.owner(f) for f in file_ids}
    probe.add_shard()
    return sorted({before[f] for f in file_ids if probe.owner(f) != before[f]})


def run_kill_during_migration(kill, seed=5):
    return run(replace(
        ELASTIC,
        seed=seed,
        total_requests=TOTAL_REQUESTS,
        membership=ELASTIC.membership[:1],  # the add alone
        faults=(ShardKill(at=KILL_AT, down_for=DOWN_FOR, shard=kill),),
    ))


@pytest.fixture(scope="module")
def source_kill():
    # A throwaway build of the scenario's namespace names its file ids.
    file_ids = build_cluster(shards=2, files=16, file_bytes=64 << 10).file_ids
    return run_kill_during_migration(kill=move_sources(file_ids)[0])


@pytest.fixture(scope="module")
def dest_kill():
    return run_kill_during_migration(kill=2)


class TestSourceKillDuringMigration:
    def test_kill_landed_inside_the_migration_window(self, source_kill):
        (record,) = source_kill.server.resharder.history
        assert record["kind"] == "add:2"
        assert record["start"] < KILL_AT
        assert record["end"] > KILL_AT + DOWN_FOR

    def test_every_request_settles(self, source_kill):
        assert source_kill.result.failed_requests == 0
        assert len(source_kill.result.latencies) == TOTAL_REQUESTS

    def test_dead_keyspace_keeps_acking_through_the_outage(
        self, source_kill
    ):
        """The surviving backup serves the killed source's files —
        including the pinned in-flight ones — with no dark window."""
        kill = move_sources(source_kill.file_ids)[0]
        dead_files = {
            f
            for f, owner in source_kill.owners_before.items()
            if owner == kill
        }
        assert dead_files, "killed shard owns no files; reseed"
        in_outage = [
            file_id
            for stamp, file_id in source_kill.acks
            if KILL_AT <= stamp < KILL_AT + DOWN_FOR
            and file_id in dead_files
        ]
        assert in_outage

    def test_zero_acked_write_loss(self, source_kill):
        source_kill.report.assert_ok()
        assert source_kill.checker.violations == []

    def test_migration_completed_despite_the_kill(self, source_kill):
        resharder = source_kill.server.resharder
        (record,) = resharder.history
        assert resharder.files_moved == len(record["files"])
        assert resharder.cutovers == resharder.files_moved
        assert source_kill.server.shard_map.pinned_files == 0
        assert not resharder.active
        for f in record["files"]:
            assert source_kill.server.shard_map.owner(f) == 2

    def test_fault_log_records_kill_and_recovery(self, source_kill):
        lines = source_kill.injector.fault_log_lines()
        assert any("shard-kill" in line for line in lines)
        assert any("shard-recover" in line for line in lines)

    def test_same_seed_reproduces_the_run(self, source_kill):
        kill = move_sources(source_kill.file_ids)[0]
        again = run_kill_during_migration(kill=kill)
        assert source_kill.acks == again.acks
        assert (
            source_kill.injector.fault_log_lines()
            == again.injector.fault_log_lines()
        )


class TestDestinationKillDuringMigration:
    def test_kill_landed_inside_the_migration_window(self, dest_kill):
        (record,) = dest_kill.server.resharder.history
        assert record["kind"] == "add:2"
        assert record["start"] < KILL_AT
        assert record["end"] > KILL_AT + DOWN_FOR

    def test_every_request_settles(self, dest_kill):
        assert dest_kill.result.failed_requests == 0
        assert len(dest_kill.result.latencies) == TOTAL_REQUESTS

    def test_sources_keep_serving_pinned_files_through_the_outage(
        self, dest_kill
    ):
        """With the destination dark, every in-flight file stays pinned
        to its source and keeps acknowledging."""
        (record,) = dest_kill.server.resharder.history
        in_outage = [
            file_id
            for stamp, file_id in dest_kill.acks
            if KILL_AT <= stamp < KILL_AT + DOWN_FOR
            and file_id in record["files"]
        ]
        assert in_outage

    def test_zero_acked_write_loss(self, dest_kill):
        dest_kill.report.assert_ok()
        assert dest_kill.checker.violations == []

    def test_migration_completed_despite_the_kill(self, dest_kill):
        resharder = dest_kill.server.resharder
        (record,) = resharder.history
        assert resharder.files_moved == len(record["files"])
        assert resharder.cutovers == resharder.files_moved
        assert dest_kill.server.shard_map.pinned_files == 0
        assert not resharder.active
        for f in record["files"]:
            assert dest_kill.server.shard_map.owner(f) == 2
