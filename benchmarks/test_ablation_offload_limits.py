"""Ablations on offload-engine sizing (§6.2) — beyond the paper's figures.

* **Context-ring capacity** — Figure 13 lines 5-7: when the ring is
  full, requests fall back to the host.  Sweeping the ring size shows
  the capacity at which the DPU stops shedding load at a given depth.
* **Cache-table chaining** — §6.1 chains items in a bucket so inserts
  survive displacement failures.  With aggressive kick limits, chaining
  absorbs what would otherwise be insert failures.
"""

from _tables import cores, emit, kops

from repro.core import ClientConfig, WorkloadClient
from repro.hardware import NetworkLink
from repro.sim import Environment, SeededRng
from repro.storage import DdsFileSystem, RamDisk, SpdkBdev
from repro.structures import CuckooCacheTable
from repro.topology.sharding import ShardedOffloadServer

SLOT_COUNTS = (32, 128, 1024)


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
        results[slots] = (result, server, fallback)
        rows.append(
            (
                slots,
                kops(result.achieved_iops),
                f"{fallback * 100:.1f}%",
                cores(server.host_cores(result.elapsed)),
            )
        )
    emit(
        "ablation_context_ring",
        "context-ring capacity vs host fallback at 700K offered",
        ("slots", "IOPS", "host fallback", "host cores"),
        rows,
    )
    return results


def run_chaining():
    rng = SeededRng(9)
    rows = []
    tables = {}
    for max_kicks in (1, 4, 32):
        table = CuckooCacheTable(4000, slots_per_bucket=2,
                                 max_kicks=max_kicks)
        for _ in range(4000):
            assert table.insert(rng.randrange(1 << 40), "item")
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
        rows,
    )
    return tables


def test_ablation_context_ring(benchmark):
    results = benchmark.pedantic(run_context_ring, rounds=1, iterations=1)
    fallbacks = {slots: fb for slots, (_r, _s, fb) in results.items()}
    # A small ring sheds a large fraction to the host; a big ring none.
    assert fallbacks[32] > 0.2
    assert fallbacks[1024] < 0.01
    assert fallbacks[32] > fallbacks[128] > fallbacks[1024] - 1e-9
    # Host CPU tracks the fallback rate.
    host_cores = {
        slots: s.host_cores(r.elapsed)
        for slots, (r, s, _f) in results.items()
    }
    assert host_cores[32] > host_cores[1024]


def test_ablation_cache_chaining(benchmark):
    tables = benchmark.pedantic(run_chaining, rounds=1, iterations=1)
    # Every insert succeeded at 100% load regardless of the kick budget —
    # chaining absorbs displacement failures (§6.1).
    for table in tables.values():
        assert len(table) == 4000
        assert table.stats.rejected_full == 0
    # Tight kick budgets chain more; generous budgets displace more.
    assert (
        tables[1].stats.chained_inserts > tables[32].stats.chained_inserts
    )
    assert (
        tables[32].stats.displacements >= tables[1].stats.displacements
    )
