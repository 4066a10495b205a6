"""The core-time account partitions each side (repro.sim.account).

Every pool and stack layer is one row; these check the run, not only
its totals: a layer sits on its pool's side, a pool is never less than
the layers it runs, and Figure 2's four columns are the baseline page
server's host cores.
"""

from __future__ import annotations

import pytest

from repro.apps import pageserver
from repro.apps.pageserver import run_pageserver_experiment
from repro.bench.harness import build_cluster
from repro.core.messages import IoRequest, OpCode
from repro.hardware.nic import NetworkLink
from repro.net.packet import FiveTuple
from repro.pushdown.scan import canonical_pipeline
from repro.sim import Environment
from repro.topology.registry import SOLUTIONS
from repro.topology.sharding import ShardedOffloadServer

from .test_pushdown_stage import _build_table, _scan

FLOW = FiveTuple("10.0.0.2", 40_000, "10.0.0.1", 5000)


def _check_rows(account) -> None:
    layers = {}
    for row in account.rows:
        if row.part_of is not None:
            assert row.side == row.part_of.side, row.name
            layers.setdefault(id(row.part_of), []).append(row)
    for row in account.rows:
        charged = sum(layer.cores_consumed(1.0) for layer in layers.get(id(row), []))
        assert row.cores_consumed(1.0) >= charged * (1 - 1e-12), row.name


@pytest.mark.parametrize("name", sorted(SOLUTIONS))
def test_every_solution_partitions_its_sides(name):
    cluster = build_cluster(name, db_bytes=4 << 20)
    requests = [
        IoRequest(OpCode.READ, 1, cluster.file_id, 0, 1024),
        IoRequest(OpCode.WRITE, 2, cluster.file_id, 4096, 512, bytes(512)),
    ]
    cluster.env.run(until=cluster.server.submit(FLOW, requests))
    _check_rows(cluster.env.account)


def test_replicated_pushdown_cluster_partitions_its_sides():
    env = Environment()
    fs, (file_id,), _expected = _build_table(env, pages=2)
    server = ShardedOffloadServer(env, NetworkLink(env), fs, shard_count=2)
    server.enable_pushdown()
    server.enable_replication()
    _verdict, outcome = _scan(
        env, server, file_id, canonical_pipeline("filter-project-agg"), pages=2
    )
    assert outcome.offloaded
    assert env.account.cores("dpu", env.now) > 0
    _check_rows(env.account)


def test_figure_2_columns_sum_to_the_page_servers_host_cores(monkeypatch):
    monkeypatch.setattr(pageserver, "PAGES", 2048)
    point = run_pageserver_experiment("baseline", 40_000.0, total_requests=400)
    assert set(point.breakdown) == set(pageserver.FIGURE_2)
    assert sum(point.breakdown.values()) == pytest.approx(point.host_cores, rel=1e-12)
