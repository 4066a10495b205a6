"""Compressed page serving on the DPU (a §11 future-work extension).

Pages are stored zlib-compressed in the DDS filesystem; an offloaded
GetPage decompresses *on the DPU* before responding, so the host never
touches the page and the SSD reads fewer bytes.  Three ways to pay for
the decompression:

* ``accel``    — the BF-2 deflate engine (hardware, multi-GB/s);
* ``software`` — the same zlib on an Arm core (slow: §2's point that
  only accelerators make compute-heavy data-path work viable on a DPU);
* ``none``     — store pages uncompressed (the §8/§9 default), as the
  baseline for the trade-off.

Bytes are real: pages are compressed with real zlib at load time, read
back through the filesystem, decompressed, and verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List

from ..core.file_service import submit_read
from ..hardware.accelerators import (
    ARM_SOFTWARE_COMPRESSION,
    BF2_COMPRESSION,
    HardwareAccelerator,
    compress_page,
    decompress_page,
)
from ..hardware.cpu import CpuPool
from ..hardware.specs import DPU_CPU
from ..sim import Environment, SeededRng
from ..storage.disk import RamDisk, SpdkBdev
from ..storage.filesystem import DdsFileSystem

__all__ = ["CompressedPageStore", "CompressedReadResult",
           "run_compressed_read_experiment"]

PAGE_BYTES = 8192


def _make_page(page_id: int, rng: SeededRng, redundancy: float) -> bytes:
    """A page with tunable compressibility.

    ``redundancy`` is the fraction of the page filled with a repeating
    motif (compresses well); the rest is random (incompressible).
    """
    repeated = int(PAGE_BYTES * redundancy)
    motif = (page_id % 251).to_bytes(1, "little") * repeated
    noise = bytes(rng.getrandbits(8) for _ in range(PAGE_BYTES - repeated))
    return motif + noise


@dataclass
class _PageEntry:
    offset: int
    stored_bytes: int
    compressed: bool


class CompressedPageStore:
    """A page store whose on-disk representation may be compressed.

    Page contents come from seed 77; a :attr:`REDUNDANCY` share of each
    page is a repeating motif.
    """

    #: Fraction of each page that is a repeating (compressible) motif.
    REDUNDANCY = 0.8

    def __init__(
        self, env: Environment, pages: int = 256, mode: str = "accel"
    ) -> None:
        if mode not in ("accel", "software", "none"):
            raise ValueError(f"unknown mode: {mode!r}")
        self.env = env
        self.mode = mode
        self.pages = pages
        rng = SeededRng(77)
        self.fs = DdsFileSystem(
            env, SpdkBdev(env, RamDisk(pages * PAGE_BYTES + (32 << 20)))
        )
        self.fs.create_directory("compressed")
        self.file_id = self.fs.create_file("compressed", "pages")
        self.spdk_core = CpuPool(env, speed=DPU_CPU.speed, name="spdk", side="dpu")
        if mode == "accel":
            self.engine = HardwareAccelerator(env, BF2_COMPRESSION)
        elif mode == "software":
            self.engine = HardwareAccelerator(
                env,
                ARM_SOFTWARE_COMPRESSION,
                software_core=CpuPool(env, speed=DPU_CPU.speed, name="arm", side="dpu"),
            )
        else:
            self.engine = None
        self._directory: Dict[int, _PageEntry] = {}
        self._expected: Dict[int, bytes] = {}
        self._load(rng)

    # ------------------------------------------------------------------
    # load phase (setup time, not measured)
    # ------------------------------------------------------------------
    def _load(self, rng: SeededRng) -> None:
        cursor = 0
        for page_id in range(self.pages):
            page = _make_page(page_id, rng, self.REDUNDANCY)
            self._expected[page_id] = page
            if self.mode == "none":
                stored = page
                compressed = False
            else:
                stored = compress_page(page)
                compressed = True
                if len(stored) >= PAGE_BYTES:  # incompressible: keep raw
                    stored = page
                    compressed = False
            self.fs.write_sync(self.file_id, cursor, stored)
            self._directory[page_id] = _PageEntry(
                cursor, len(stored), compressed
            )
            cursor += len(stored)
        self.stored_bytes = cursor

    @property
    def compression_ratio(self) -> float:
        """Logical bytes per stored byte."""
        return self.pages * PAGE_BYTES / self.stored_bytes

    # ------------------------------------------------------------------
    # offloaded read path
    # ------------------------------------------------------------------
    def read_page(self, page_id: int) -> Generator:
        """Read (and decompress) one page entirely on the DPU."""
        entry = self._directory.get(page_id)
        if entry is None:
            raise KeyError(f"no such page: {page_id}")
        stored = yield from submit_read(
            self.spdk_core, self.fs, self.file_id, entry.offset,
            entry.stored_bytes,
        )
        if entry.compressed:
            if self.engine is None:
                raise RuntimeError("compressed page without an engine")
            yield from self.engine.process(entry.stored_bytes)
            page = decompress_page(stored)
        else:
            page = stored
        return page

    def verify(self, page_id: int, page: bytes) -> bool:
        """Data-integrity check against the loaded image."""
        return self._expected[page_id] == page


@dataclass
class CompressedReadResult:
    """Outcome of one compressed-read experiment."""

    mode: str
    throughput: float          # pages/s
    mean_latency: float
    compression_ratio: float
    ssd_bytes_per_page: float  # bytes actually read from the device


def run_compressed_read_experiment(
    mode: str, pages: int = 192, reads: int = 1500
) -> CompressedReadResult:
    """Random page reads, 32 at a time, through the compressed store
    (80 %-redundant pages, seed 77) at one mode."""
    concurrency = 32
    env = Environment()
    store = CompressedPageStore(env, pages=pages, mode=mode)
    rng = SeededRng(78)
    latencies: List[float] = []
    read_bytes_before = store.fs.bdev.device.stats.read_bytes

    def worker(count: int) -> Generator:
        for _ in range(count):
            page_id = rng.randrange(pages)
            start = env.now
            page = yield from store.read_page(page_id)
            latencies.append(env.now - start)
            if not store.verify(page_id, page):
                raise RuntimeError(
                    f"{mode}: page {page_id} read back differs from the "
                    "loaded image"
                )

    per_worker = reads // concurrency
    workers = [env.process(worker(per_worker)) for _ in range(concurrency)]
    done = env.all_of(workers)
    env.run(until=done)
    total = per_worker * concurrency
    ssd_bytes = store.fs.bdev.device.stats.read_bytes - read_bytes_before
    return CompressedReadResult(
        mode=mode,
        throughput=total / env.now,
        mean_latency=sum(latencies) / len(latencies),
        compression_ratio=store.compression_ratio,
        ssd_bytes_per_page=ssd_bytes / total,
    )
