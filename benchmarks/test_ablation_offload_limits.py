"""Ablations on offload-engine sizing (§6.2) — beyond the paper's figures.

* **Context-ring capacity** — Figure 13 lines 5-7: when the ring is
  full, requests fall back to the host.
* **Cache-table chaining** — §6.1 chains items in a bucket so inserts
  survive displacement failures, swept over the kick limit.
"""

from _tables import (
    DECREASING, NONDECREASING, Claim, above, below, bench, cores, each, emit, equals, kops
)

from repro.core import ClientConfig, WorkloadClient
from repro.hardware import NetworkLink
from repro.sim import Environment, SeededRng
from repro.storage import DdsFileSystem, RamDisk, SpdkBdev
from repro.structures import CuckooCacheTable
from repro.topology.sharding import ShardedOffloadServer

SLOT_COUNTS = (32, 128, 1024)
KICKS = (1, 4, 32)

RING = "Figure 13 lines 5-7: a full ring falls back to the host"
CHAINING = "Sec. 6.1: chaining absorbs displacement failures"
CLAIMS = (
    Claim("ablation_context_ring", "host fallback, 32 slots", RING,
          lambda r: r[32]["fallback"], above(0.2)),
    Claim("ablation_context_ring", "host fallback, 1024 slots", RING,
          lambda r: r[1024]["fallback"], below(0.01)),
    Claim("ablation_context_ring", "host fallback, 32 / 128 / 1024 slots (less 1e-9)", RING,
          lambda r: [r[32]["fallback"], r[128]["fallback"], r[1024]["fallback"] - 1e-9],
          DECREASING),
    Claim("ablation_context_ring", "host cores, 32 / 1024 slots", RING,
          lambda r: [r[32]["host cores"], r[1024]["host cores"]], DECREASING),
    Claim("ablation_cache_chaining", "items, per kick budget", CHAINING,
          lambda t: [len(t[k]) for k in KICKS], each(equals(4000))),
    Claim("ablation_cache_chaining", "inserts rejected, per kick budget", CHAINING,
          lambda t: [t[k].stats.rejected_full for k in KICKS], each(equals(0))),
    Claim("ablation_cache_chaining", "chained inserts, kicks 1 and 32", CHAINING,
          lambda t: [t[k].stats.chained_inserts for k in (1, 32)], DECREASING),
    Claim("ablation_cache_chaining", "displacements, kicks 1 and 32", CHAINING,
          lambda t: [t[k].stats.displacements for k in (1, 32)], NONDECREASING),
)


def measure_fallback(context_slots: int):
    env = Environment()
    fs = DdsFileSystem(env, SpdkBdev(env, RamDisk(96 << 20)))
    fs.create_directory("bench")
    fid = fs.create_file("bench", "db")
    fs.preallocate(fid, 64 << 20)
    server = ShardedOffloadServer(
        env, NetworkLink(env), fs, 1, context_slots=context_slots
    )
    config = ClientConfig(
        offered_iops=700e3,
        total_requests=6000,
        file_size=64 << 20,
        max_outstanding=96,
    )
    client = WorkloadClient(env, server, fid, config)
    result = client.run()
    director = server.shards[0].director
    total = director.requests_offloaded + director.requests_to_host
    fallback = director.requests_to_host / total if total else 0.0
    return result, server, fallback


def run_context_ring():
    results = {}
    rows = []
    for slots in SLOT_COUNTS:
        result, server, fallback = measure_fallback(slots)
        host_cores = server.host_cores(result.elapsed)
        results[slots] = {"fallback": fallback, "host cores": host_cores}
        rows.append(
            (
                slots,
                kops(result.achieved_iops),
                f"{fallback * 100:.1f}%",
                cores(host_cores),
            )
        )
    emit(
        "ablation_context_ring",
        "context-ring capacity vs host fallback at 700K offered",
        ("slots", "IOPS", "host fallback", "host cores"),
        rows, CLAIMS, results,
    )
    return results


def run_chaining():
    rng = SeededRng(9)
    rows = []
    tables = {}
    for max_kicks in KICKS:
        table = CuckooCacheTable(4000, slots_per_bucket=2,
                                 max_kicks=max_kicks)
        for _ in range(4000):
            inserted = table.insert(rng.randrange(1 << 40), "item")
            assert inserted
        tables[max_kicks] = table
        rows.append(
            (
                max_kicks,
                table.stats.displacements,
                table.stats.chained_inserts,
                len(table),
            )
        )
    emit(
        "ablation_cache_chaining",
        "cuckoo kicks vs chaining at 100% load factor",
        ("max kicks", "displacements", "chained inserts", "items"),
        rows, CLAIMS, tables,
    )
    return tables


test_ablation_context_ring = bench(run_context_ring)
test_ablation_cache_chaining = bench(run_chaining)
