"""Small probes of single layers: no cluster, and mostly no engine.

Each probe times one public operation in a tight loop, three times, and
reports the median.  They exist so that a change to one layer has a
number of its own — ``clone_into`` getting sparse shows in
``storage.probe_clone_into_s`` before it shows in ``setup_s`` — and so
that the layers nothing in the five workloads stresses hard (rings,
cuckoo table, response buffer) are still watched.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Tuple

from repro.pushdown.interp import interpret_pipeline
from repro.pushdown.scan import (
    GEOMETRY,
    PIPELINES,
    RECORD_BYTES,
    RECORDS_PER_PAGE,
    PipelineScanner,
    canonical_pipeline,
)
from repro.pushdown.verifier import verify
from repro.sim import Environment, SeededRng
from repro.storage.disk import RamDisk, SpdkBdev
from repro.storage.filesystem import DdsFileSystem
from repro.structures.cuckoo import CuckooCacheTable
from repro.structures.response import ResponseBuffer
from repro.structures.rings import ProgressRing
from repro.workload.arrivals import PoissonArrivals, RateCurve

__all__ = ["run_all"]

REPEATS = 3


def _median_rate(probe: Callable[[], Tuple[float, float]]) -> float:
    """``probe`` returns (work done, seconds); median work per second."""
    rates = []
    for _ in range(REPEATS):
        work, seconds = probe()
        rates.append(work / seconds)
    return statistics.median(rates)


def _median_seconds(probe: Callable[[], float]) -> float:
    return statistics.median(probe() for _ in range(REPEATS))


# -- sim ---------------------------------------------------------------
def sim_timeouts() -> Tuple[float, float]:
    """The engine alone: 16 processes that only yield ``env.timeout``."""
    env = Environment()

    def ticker(gap: float):
        for _ in range(4000):
            yield env.timeout(gap)

    for index in range(16):
        env.process(ticker(1e-6 * (index + 1)))
    start = time.perf_counter()
    env.run()
    return env.scheduled_count, time.perf_counter() - start


# -- structures --------------------------------------------------------
def ring_ops() -> Tuple[float, float]:
    ring = ProgressRing(1 << 16)
    payload = bytes(64)
    moved = 0
    start = time.perf_counter()
    for _ in range(1500):
        for _ in range(32):
            ring.try_enqueue(payload)
        moved += 32 + len(ring.try_consume())
    return moved, time.perf_counter() - start


def cuckoo_lookups() -> Tuple[float, float]:
    table = CuckooCacheTable(1 << 14)
    for key in range(8192):
        table.insert(key, key)
    lookups = 100_000
    start = time.perf_counter()
    for index in range(lookups):
        table.lookup(index & 16383)  # half hit, half miss
    return lookups, time.perf_counter() - start


def response_buffer_ops() -> Tuple[float, float]:
    buffer = ResponseBuffer(1 << 20, delivery_batch=1)
    rounds = 6000
    start = time.perf_counter()
    for base in range(0, rounds * 4, 4):
        spans = [buffer.allocate(base + i, 1024) for i in range(4)]
        for span in reversed(spans):  # completions arrive out of order
            span.complete()
        buffer.harvest()
        buffer.mark_delivered(buffer.take_delivery(force=True))
    return rounds * 4, time.perf_counter() - start


# -- storage -----------------------------------------------------------
def _filesystem(files: int, file_bytes: int) -> DdsFileSystem:
    env = Environment()
    fs = DdsFileSystem(env, SpdkBdev(env, RamDisk(files * file_bytes + (64 << 20))))
    fs.create_directory("bench")
    for index in range(files):
        fs.preallocate(fs.create_file("bench", f"file-{index}"), file_bytes)
    return fs


def clone_into_seconds() -> float:
    """One shard mirror of ``sharded_repl_rw``'s namespace (32 x 4 MiB)."""
    source = _filesystem(32, 4 << 20)
    env = Environment()
    target = DdsFileSystem(
        env, SpdkBdev(env, RamDisk(source.bdev.disk.size)),
        segment_size=source.segment_size,
    )
    start = time.perf_counter()
    source.clone_into(target)
    return time.perf_counter() - start


def _sync_io(write: bool) -> Tuple[float, float]:
    fs = _filesystem(1, 64 << 20)
    (file_id,) = fs.file_ids()
    chunk = bytes(range(256)) * 256  # 64 KiB, non-zero
    offsets = range(0, 64 << 20, len(chunk))
    if not write:
        for offset in offsets:
            fs.write_sync(file_id, offset, chunk)
    start = time.perf_counter()
    if write:
        for offset in offsets:
            fs.write_sync(file_id, offset, chunk)
    else:
        for offset in offsets:
            fs.read_sync(file_id, offset, len(chunk))
    return 64.0, time.perf_counter() - start


def metadata_recover_seconds() -> float:
    fs = _filesystem(32, 4 << 20)
    fs.flush_metadata_sync()
    start = time.perf_counter()
    DdsFileSystem.recover(fs.env, fs.bdev, segment_size=fs.segment_size)
    return time.perf_counter() - start


# -- workload ----------------------------------------------------------
def arrivals() -> Tuple[float, float]:
    start = time.perf_counter()
    count = sum(
        1 for _ in PoissonArrivals().arrivals(
            SeededRng(7), RateCurve(100_000.0), 1.0
        )
    )
    return count, time.perf_counter() - start


# -- pushdown ----------------------------------------------------------
def verify_seconds() -> float:
    pipelines = [canonical_pipeline(name) for name in PIPELINES]
    start = time.perf_counter()
    for pipeline in pipelines:
        verdict, token = verify(pipeline, GEOMETRY)
        assert token is not None, verdict.explain()
    return time.perf_counter() - start


def _one_page() -> bytes:
    scanner = PipelineScanner(
        Environment(), canonical_pipeline("filter"), pages=1,
        selectivity=0.05, seed=55,
    )
    return scanner.fs.read_sync(scanner.file_id, 0, RECORD_BYTES * RECORDS_PER_PAGE)


def interpret_records(page: bytes) -> Tuple[float, float]:
    pipeline = canonical_pipeline("filter-project-agg")
    verdict, _token = verify(pipeline, GEOMETRY)
    records = [
        page[start:start + RECORD_BYTES]
        for start in range(0, len(page), RECORD_BYTES)
    ]
    passes = 40
    acc = [0] * 8
    start = time.perf_counter()
    for _ in range(passes):
        for record in records:
            interpret_pipeline(pipeline, record, GEOMETRY, verdict.fuel, acc=acc)
    return passes * len(records), time.perf_counter() - start


def run_all() -> Dict[str, float]:
    """Every probe metric, by its declared name."""
    page = _one_page()
    clone_s = _median_seconds(clone_into_seconds)
    return {
        "sim.probe_timeout_events_per_s": _median_rate(sim_timeouts),
        "structures.probe_ring_ops_per_s": _median_rate(ring_ops),
        "structures.probe_cuckoo_lookups_per_s": _median_rate(cuckoo_lookups),
        "structures.probe_response_buffer_ops_per_s": _median_rate(
            response_buffer_ops
        ),
        "storage.probe_clone_into_s": clone_s,
        "storage.probe_clone_mb_per_s": 128.0 / clone_s,
        "storage.probe_write_sync_mb_per_s": _median_rate(lambda: _sync_io(True)),
        "storage.probe_read_sync_mb_per_s": _median_rate(lambda: _sync_io(False)),
        "storage.probe_metadata_recover_s": _median_seconds(
            metadata_recover_seconds
        ),
        "workload.probe_arrivals_per_s": _median_rate(arrivals),
        "pushdown.verify_s": _median_seconds(verify_seconds),
        "pushdown.probe_interpret_records_per_s": _median_rate(
            lambda: interpret_records(page)
        ),
    }
