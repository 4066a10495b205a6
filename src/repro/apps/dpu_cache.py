"""A DPU-memory read cache for the offload engine (a §10 extension).

The paper notes DDS "can be used to cache data" the way Xenic [59] uses
DPU memory (§10).  This extension adds an LRU page cache, bounded by
the BF-2's on-board DRAM budget, in front of the offload engine's file
reads: a hit serves the response straight from DPU memory (no SSD I/O
at all), pushing read throughput past the device ceiling for skewed
workloads while keeping the miss path identical to stock DDS.

The cache stores real bytes, so correctness is testable, and its
capacity accounting models the paper's constraint that DPU memory is
small (§2: 16 GB on BF-2, an order of magnitude below what host-side
caches get).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Generator, List

from ..core.api import ReadOp
from ..core.file_service import submit_read
from ..hardware.cpu import CpuPool
from ..hardware.specs import DPU_CPU, MICROSECOND
from ..sim import Environment, SeededRng
from ..storage.disk import RamDisk, SpdkBdev
from ..storage.filesystem import DdsFileSystem
from ..sim import ZipfGenerator

__all__ = ["DpuReadCache", "CachedReadResult", "run_dpu_cache_experiment"]


class DpuReadCache:
    """LRU cache over (file id, offset, size) extents in DPU memory."""

    #: DPU-memory access time for a cache hit (on-board DDR4).
    HIT_TIME = 1.5 * MICROSECOND
    #: Arm-core time to probe/update the cache per operation.
    PROBE_COST = 0.08 * MICROSECOND

    def __init__(
        self,
        env: Environment,
        core: CpuPool,
        capacity_bytes: int,
    ) -> None:
        if capacity_bytes < 1:
            raise ValueError("cache capacity must be positive")
        self.env = env
        self.core = core
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[tuple, bytes]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @staticmethod
    def _key(read_op: ReadOp) -> tuple:
        return (read_op.file_id, read_op.offset, read_op.size)

    def lookup(self, read_op: ReadOp) -> Generator:
        """Probe the cache; returns the bytes or None (charges the core)."""
        yield from self.core.execute(self.PROBE_COST)
        key = self._key(read_op)
        data = self._entries.get(key)
        if data is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        yield self.env.now + self.HIT_TIME
        return data

    def fill(self, read_op: ReadOp, data: bytes) -> None:
        """Insert after a miss, evicting LRU extents to fit."""
        key = self._key(read_op)
        if key in self._entries:
            return
        if len(data) > self.capacity_bytes:
            return  # never cache something bigger than the budget
        while self._bytes + len(data) > self.capacity_bytes:
            _old_key, old_data = self._entries.popitem(last=False)
            self._bytes -= len(old_data)
            self.evictions += 1
        self._entries[key] = data
        self._bytes += len(data)


@dataclass
class CachedReadResult:
    """Outcome of one DPU-cache experiment."""

    cache_bytes: int
    hit_rate: float
    throughput: float
    mean_latency: float
    ssd_reads: int


def run_dpu_cache_experiment(
    cache_bytes: int, reads: int = 4000
) -> CachedReadResult:
    """Zipfian (theta 0.99) reads of 512 4 KiB pages, 48 at a time,
    through an offload path with a DPU read cache.

    ``cache_bytes=0`` disables the cache (stock DDS).  The skew makes a
    small DPU cache absorb most of the traffic — the scenario where DPU
    memory, though small, pays off.
    """
    pages, page_bytes, concurrency = 512, 4096, 48
    env = Environment()
    fs = DdsFileSystem(
        env, SpdkBdev(env, RamDisk(pages * page_bytes + (32 << 20)))
    )
    fs.create_directory("cached")
    file_id = fs.create_file("cached", "pages")
    for page_id in range(pages):
        fs.write_sync(
            file_id,
            page_id * page_bytes,
            page_id.to_bytes(8, "little") * (page_bytes // 8),
        )
    core = CpuPool(env, speed=DPU_CPU.speed, name="engine")
    spdk_core = CpuPool(env, speed=DPU_CPU.speed, name="spdk")
    cache = (
        DpuReadCache(env, core, cache_bytes) if cache_bytes > 0 else None
    )
    zipf = ZipfGenerator(pages, theta=0.99, rng=SeededRng(61))
    latencies: List[float] = []

    def serve_read(page_id: int) -> Generator:
        read_op = ReadOp(file_id, page_id * page_bytes, page_bytes)
        if cache is not None:
            data = yield from cache.lookup(read_op)
            if data is not None:
                return data
        data = yield from submit_read(
            spdk_core, fs, file_id, read_op.offset, read_op.size
        )
        if cache is not None:
            cache.fill(read_op, data)
        return data

    def worker(count: int) -> Generator:
        for _ in range(count):
            page_id = zipf.draw()
            start = env.now
            data = yield from serve_read(page_id)
            latencies.append(env.now - start)
            if data[:8] != page_id.to_bytes(8, "little"):
                raise RuntimeError(
                    f"read of page {page_id} returned the page tagged "
                    f"{int.from_bytes(data[:8], 'little')}"
                )

    per_worker = reads // concurrency
    workers = [env.process(worker(per_worker)) for _ in range(concurrency)]
    env.run(until=env.all_of(workers))
    total = per_worker * concurrency
    return CachedReadResult(
        cache_bytes=cache_bytes,
        hit_rate=cache.hit_rate if cache else 0.0,
        throughput=total / env.now,
        mean_latency=sum(latencies) / len(latencies),
        ssd_reads=fs.bdev.device.stats.reads,
    )
