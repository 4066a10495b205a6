"""Verified pushdown as a sharded-server execution stage.

Covers the admission → execution → fallback flow end to end on a
:class:`~repro.topology.sharding.ShardedOffloadServer`: verified
pipelines run on the owning shard's DPU stage; rejected ones fall back
to the host path with the typed verdict *and the same answer*.
"""

from __future__ import annotations

import pytest

from repro.hardware.nic import NetworkLink
from repro.pushdown import (
    Instruction,
    Op,
    Pipeline,
    Program,
    field_filter,
)
from repro.pushdown.scan import (
    PAGE_BYTES,
    VALUE_OFFSET,
    build_pipeline_table,
    canonical_pipeline,
)
from repro.sim import Environment, SeededRng
from repro.storage.disk import RamDisk, SpdkBdev
from repro.storage.filesystem import DdsFileSystem, FileSystemError
from repro.topology.sharding import ShardedOffloadServer

PAGES = 6


def _build_table(env, pages=PAGES, selectivity=0.2, seed=99, files=1):
    """A filesystem holding ``files`` pipeline tables, plus expectations."""
    fs = DdsFileSystem(
        env,
        SpdkBdev(env, RamDisk(files * pages * PAGE_BYTES + (32 << 20))),
    )
    fs.create_directory("table")
    rng = SeededRng(seed)
    file_ids = []
    expected = {}
    for index in range(files):
        file_id, answer = _add_table(
            fs, f"records-{index}", rng, pages, selectivity
        )
        file_ids.append(file_id)
        expected[file_id] = answer
    return fs, file_ids, expected


def _add_table(fs, name, rng, pages=PAGES, selectivity=0.2):
    """Write one pipeline table into ``fs``; returns its file id and
    the ``(hits, total, best)`` a filter-project-agg scan must find."""
    file_id = fs.create_file("table", name)
    table = build_pipeline_table(rng, pages, selectivity)
    for page_id, page in enumerate(table.pages):
        fs.write_sync(file_id, page_id * PAGE_BYTES, page)
    return file_id, (table.hits, table.value_sum, table.max_weight)


def _scan(env, server, file_id, pipeline, pages=PAGES):
    proc = env.process(server.pushdown_scan(file_id, pipeline, pages))
    env.run(until=proc)
    return proc.value


def _deep_stack_filter(threshold: int, copies: int = 40) -> Program:
    """``value > threshold`` computed ``copies`` times and AND-folded.

    Semantically a plain field filter, but the operand stack peaks at
    ``copies + 1`` — past the DPU's admission bound, so the verifier
    refuses it (PDV201) even though the host can run it fine.
    """
    code = []
    for _ in range(copies):
        code.append(Instruction(Op.LOAD, VALUE_OFFSET, 4))
        code.append(Instruction(Op.PUSH, threshold))
        code.append(Instruction(Op.GT))
    for _ in range(copies - 1):
        code.append(Instruction(Op.AND))
    code.append(Instruction(Op.RET))
    return Program(kind="filter", code=tuple(code))


def test_verified_pipeline_offloads_to_owning_shard():
    env = Environment()
    fs, (file_id,), expected = _build_table(env)
    server = ShardedOffloadServer(env, NetworkLink(env), fs, shard_count=2)
    server.enable_pushdown()
    verdict, outcome = _scan(
        env, server, file_id, canonical_pipeline("filter-project-agg")
    )
    hits, total, best = expected[file_id]
    assert verdict.ok
    assert outcome.offloaded
    assert outcome.shard == server.shard_map.owner(file_id)
    assert outcome.rows == hits
    assert outcome.acc[0] == total
    assert outcome.acc[1] == hits
    assert outcome.acc[2] == best
    # Pushdown's point: the operator output, not the table, crossed the
    # wire, and the host pool never touched the scan.
    assert outcome.wire_bytes < PAGES * PAGE_BYTES
    assert server.host_pool.busy_time == 0.0
    assert server.pushdown_stages[outcome.shard].scans == 1


def test_scans_route_by_shard_map_owner():
    env = Environment()
    fs, file_ids, _expected = _build_table(env, files=4)
    server = ShardedOffloadServer(env, NetworkLink(env), fs, shard_count=3)
    server.enable_pushdown()
    owners = set()
    for file_id in file_ids:
        verdict, outcome = _scan(
            env, server, file_id, canonical_pipeline("filter")
        )
        assert verdict.ok and outcome.offloaded
        assert outcome.shard == server.shard_map.owner(file_id)
        owners.add(outcome.shard)
    total_scans = sum(s.scans for s in server.pushdown_stages.values())
    assert total_scans == len(file_ids)
    assert len(owners) > 1  # the map actually spread the files


def test_rejected_pipeline_falls_back_to_host_with_same_answer():
    env = Environment()
    fs, (file_id,), _expected = _build_table(env)
    server = ShardedOffloadServer(env, NetworkLink(env), fs, shard_count=2)
    server.enable_pushdown()

    threshold = 5000
    rejected = Pipeline((_deep_stack_filter(threshold),))
    verdict, outcome = _scan(env, server, file_id, rejected)
    assert not verdict.ok
    assert verdict.rule == "PDV201"
    assert not outcome.offloaded

    # Same predicate, admissible shape: the DPU answer is the oracle.
    admissible = Pipeline(
        (field_filter(VALUE_OFFSET, 4, threshold + 1, (1 << 32) - 1),)
    )
    ok_verdict, ok_outcome = _scan(env, server, file_id, admissible)
    assert ok_verdict.ok and ok_outcome.offloaded
    assert outcome.rows == ok_outcome.rows
    assert [s for s, _r in outcome.selected] == [
        s for s, _r in ok_outcome.selected
    ]

    # The fallback is the expensive path: every byte shipped, host pool
    # and host transport charged.
    assert outcome.wire_bytes == PAGES * PAGE_BYTES
    assert server.host_pool.busy_time > 0.0


def test_pushdown_scan_requires_enable():
    env = Environment()
    fs, (file_id,), _expected = _build_table(env, pages=1)
    server = ShardedOffloadServer(env, NetworkLink(env), fs, shard_count=1)
    proc = env.process(
        server.pushdown_scan(file_id, canonical_pipeline("filter"), 1)
    )
    with pytest.raises(RuntimeError, match="enable_pushdown"):
        env.run(until=proc)


def test_pushdown_stage_appears_in_stage_rollup():
    env = Environment()
    fs, (file_id,), _expected = _build_table(env, pages=2)
    server = ShardedOffloadServer(env, NetworkLink(env), fs, shard_count=2)
    stages_before = len(server._stages)
    server.enable_pushdown()
    assert len(server._stages) == stages_before + 2
    # Enabling twice adds nothing.
    server.enable_pushdown()
    assert len(server._stages) == stages_before + 2
    _verdict, outcome = _scan(
        env, server, file_id, canonical_pipeline("filter"), pages=2
    )
    stage = server.pushdown_stages[outcome.shard]
    assert env.account.named("dpu", stage.name, env.now) > 0.0
    assert stage.scans == 1


def test_pushdown_stage_follows_the_recovered_filesystem():
    """Regression: the stage kept the pre-crash ``DdsFileSystem`` after
    ``recover_shard`` swapped it, so a table created on the recovered
    shard scanned to ``FileSystemError: no such file id``."""
    env = Environment()
    fs, _file_ids, _expected = _build_table(env, pages=1)
    server = ShardedOffloadServer(env, NetworkLink(env), fs, shard_count=2)
    server.enable_pushdown()
    server.kill_shard(1)
    env.run(until=env.process(server.recover_shard(1)))
    recovered = server.filesystems[1]
    assert recovered is not fs
    assert server.pushdown_stages[1].filesystem is recovered
    rng = SeededRng(7)
    for attempt in range(16):  # until the map hands shard 1 a new id
        file_id, expected = _add_table(recovered, f"late-{attempt}", rng)
        if server.shard_map.owner(file_id) == 1:
            break
    else:
        pytest.fail("shard 1 owned none of 16 new file ids")
    verdict, outcome = _scan(
        env, server, file_id, canonical_pipeline("filter-project-agg")
    )
    assert verdict.ok and outcome.offloaded and outcome.shard == 1
    assert (outcome.rows, outcome.acc[0], outcome.acc[2]) == expected


# ----------------------------------------------------------------------
# pushdown x kill: a dead DPU serves no scan
# ----------------------------------------------------------------------


def _dpu_work(server, stage):
    """Everything a scan on ``stage`` spends or ships."""
    return {
        "core": stage.core.busy_time,
        "spdk_core": stage.spdk_core.busy_time,
        "rxp_jobs": stage.accelerator.jobs,
        "scans": stage.scans,
        "wire": server.link.stats["server_to_client"].bytes,
    }


def _two_shards(env):
    fs, (file_id,), expected = _build_table(env)
    server = ShardedOffloadServer(env, NetworkLink(env), fs, shard_count=2)
    server.enable_pushdown()
    return server, file_id, expected[file_id]


def test_dead_shard_serves_no_scan():
    """Regression: ``pushdown_scan`` never read ``alive``, so a killed
    owner answered in full — on its Arm core, RXP, SSD and NIC."""
    env = Environment()
    server, file_id, _expected = _two_shards(env)
    owner = server.shard_map.owner(file_id)
    server.kill_shard(owner)
    before = _dpu_work(server, server.pushdown_stages[owner])
    with pytest.raises(FileSystemError, match=f"shard {owner} is down"):
        _scan(env, server, file_id, canonical_pipeline("filter"))
    assert _dpu_work(server, server.pushdown_stages[owner]) == before
    # The refused program's host fallback reads the same dark shard.
    with pytest.raises(FileSystemError, match=f"shard {owner} is down"):
        _scan(env, server, file_id, Pipeline((_deep_stack_filter(5000),)))
    assert _dpu_work(server, server.pushdown_stages[owner]) == before
    assert server.host_pool.busy_time == 0.0


def test_replicated_scan_is_served_by_the_acting_leader():
    """Regression: the scan resolved the map's owner while the
    directors route to the keyspace's acting leader."""
    env = Environment()
    server, file_id, (hits, total, best) = _two_shards(env)
    replicator = server.enable_replication()
    owner = server.shard_map.owner(file_id)
    server.kill_shard(owner)
    leader = replicator.leader_for(file_id)
    assert leader != owner
    before = _dpu_work(server, server.pushdown_stages[owner])
    del before["wire"]  # the leader's answer does cross it
    verdict, outcome = _scan(
        env, server, file_id, canonical_pipeline("filter-project-agg")
    )
    assert verdict.ok and outcome.offloaded
    assert outcome.shard == leader
    assert (outcome.rows, outcome.acc[0], outcome.acc[2]) == (
        hits, total, best,
    )
    after = _dpu_work(server, server.pushdown_stages[owner])
    assert {key: after[key] for key in before} == before
    assert server.pushdown_stages[leader].scans == 1


def test_scan_dies_with_its_shard():
    """Regression: an owner killed mid-scan ran the scan to the end and
    kept transmitting."""
    env = Environment()
    server, file_id, _expected = _two_shards(env)
    owner = server.shard_map.owner(file_id)
    stage = server.pushdown_stages[owner]
    proc = env.process(
        server.pushdown_scan(file_id, canonical_pipeline("filter"), PAGES)
    )
    env.run(until=150e-6)
    assert proc.is_alive and stage.accelerator.jobs > 0
    server.kill_shard(owner)
    before = _dpu_work(server, stage)
    with pytest.raises(FileSystemError, match=f"shard {owner} is down"):
        env.run(until=proc)
    # The page on the RXP at the kill finishes there; no core is charged
    # for another and nothing more leaves the NIC.
    after = _dpu_work(server, stage)
    assert after.pop("rxp_jobs") <= before.pop("rxp_jobs") + 1
    assert after == before


def test_scan_succeeds_again_after_recover():
    env = Environment()
    server, file_id, (hits, total, best) = _two_shards(env)
    owner = server.shard_map.owner(file_id)
    server.kill_shard(owner)
    with pytest.raises(FileSystemError):
        _scan(env, server, file_id, canonical_pipeline("filter"))
    env.run(until=env.process(server.recover_shard(owner)))
    verdict, outcome = _scan(
        env, server, file_id, canonical_pipeline("filter-project-agg")
    )
    assert verdict.ok and outcome.offloaded and outcome.shard == owner
    assert (outcome.rows, outcome.acc[0], outcome.acc[2]) == (
        hits, total, best,
    )
