"""Figure 22: cache-table performance on the BF-2 (§8.5).

Single-writer inserts and 1/8-reader lookups across cache item sizes,
against Table 2's requirements (the file service inserts at device
rate; the traffic director looks up at packet rate).  The *structure*
is the real :class:`CuckooCacheTable` (probe and displacement counts
come from actual execution); per-operation Arm-core costs are charged
on simulated DPU cores.
"""

from _tables import Claim, bench, between, each, emit

from repro.hardware import DPU_CPU, CpuPool, MICROSECOND
from repro.sim import Environment, SeededRng
from repro.structures import CuckooCacheTable

ITEM_SIZES = (16, 64, 256)
INSERTS = 5_000
LOOKUPS_PER_READER = 3_000

#: Host-core-seconds per operation on the Arm cores, calibrated to the
#: paper's insert and 8-reader lookup anchors (the ``fig22`` claim rows).
INSERT_COST = 0.28 * MICROSECOND
DISPLACE_COST = 0.05 * MICROSECOND
LOOKUP_COST = 0.175 * MICROSECOND
PER_BYTE_COST = 0.10e-9  # copying the cache item's value

CLAIMS = (
    Claim("fig22", "inserts/s, 1 writer, per item size", "~1.2M",
          lambda r: list(r[0].values()), each(between(0.8e6, 2.0e6))),
    Claim("fig22", "lookups/s, 8 readers, per item size", "~15.7M",
          lambda r: list(r[1].values()), each(between(10e6, 22e6))),
)


def measure_inserts(item_bytes: int) -> float:
    env = Environment()
    core = CpuPool(env, speed=DPU_CPU.speed)
    table = CuckooCacheTable(INSERTS)
    rng = SeededRng(5)
    payload = bytes(item_bytes)

    def writer():
        for i in range(INSERTS):
            before = table.stats.displacements
            table.insert(rng.randrange(1 << 48), payload)
            kicks = table.stats.displacements - before
            yield from core.execute(
                INSERT_COST
                + kicks * DISPLACE_COST
                + item_bytes * PER_BYTE_COST
            )

    done = env.process(writer())
    env.run(until=done)
    return INSERTS / env.now


def measure_lookups(item_bytes: int, readers: int) -> float:
    env = Environment()
    table = CuckooCacheTable(INSERTS)
    rng = SeededRng(6)
    keys = [rng.randrange(1 << 48) for _ in range(INSERTS)]
    payload = bytes(item_bytes)
    for key in keys:
        table.insert(key, payload)

    def reader(seed):
        local = SeededRng(seed)
        for _ in range(LOOKUPS_PER_READER):
            table.lookup(local.choice(keys))
            yield from core_for[seed % readers].execute(
                LOOKUP_COST + item_bytes * PER_BYTE_COST
            )

    core_for = [CpuPool(env, speed=DPU_CPU.speed) for _ in range(readers)]
    workers = [env.process(reader(i)) for i in range(readers)]
    done = env.all_of(workers)
    env.run(until=done)
    return readers * LOOKUPS_PER_READER / env.now


def run_figure():
    rows = []
    inserts = {}
    lookups = {}
    for item_bytes in ITEM_SIZES:
        inserts[item_bytes] = measure_inserts(item_bytes)
        lookups[item_bytes] = measure_lookups(item_bytes, readers=8)
        single = measure_lookups(item_bytes, readers=1)
        rows.append(
            (
                item_bytes,
                f"{inserts[item_bytes] / 1e6:.2f}M",
                f"{single / 1e6:.2f}M",
                f"{lookups[item_bytes] / 1e6:.2f}M",
            )
        )
    emit(
        "fig22",
        "cache table: insert (1 writer) and lookup (1/8 readers) rates",
        ("item bytes", "insert/s", "lookup/s x1", "lookup/s x8"),
        rows, CLAIMS, (inserts, lookups),
    )
    return inserts, lookups


test_fig22_cache_table = bench(run_figure)
