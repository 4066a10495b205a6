"""The storage-stack scan built on the verified pushdown DSL.

:class:`PipelineScanner` is the one scanner: any admitted filter →
project → aggregate :class:`~repro.pushdown.isa.Pipeline`, redeemed
through :class:`~repro.pushdown.engine.PushdownEngine` at one of three
placements (``ship-all`` on the compute node, ``dpu-software`` on the
Arm cores, ``dpu-accel`` with the RXP absorbing a lowered filter).  The
§11 string operator is ``canonical_pipeline("filter")``.

Wire accounting is :func:`~repro.pushdown.engine.shipped_bytes`, the
one rule the sharded server's pushdown stage pays by too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Generator, List, Tuple

from ..core.file_service import submit_read
from ..hardware.accelerators import BF2_REGEX, HardwareAccelerator
from ..hardware.cpu import CpuPool
from ..hardware.nic import NetworkLink
from ..hardware.specs import DPU_CPU, HOST_CPU
from ..sim import Environment, SeededRng
from ..storage.disk import RamDisk, SpdkBdev
from ..storage.filesystem import DdsFileSystem
from .engine import PushdownEngine, shipped_bytes
from .isa import (
    Geometry,
    Pipeline,
    aggregate_fields,
    project_fields,
    regex_filter,
)
from .verifier import VerifiedPipeline, verify

__all__ = [
    "RECORD_BYTES",
    "PAGE_BYTES",
    "RECORDS_PER_PAGE",
    "GEOMETRY",
    "PLACEMENTS",
    "PIPELINES",
    "NEEDLE_PATTERN",
    "VALUE_OFFSET",
    "WEIGHT_OFFSET",
    "canonical_pipeline",
    "PipelineTable",
    "build_pipeline_table",
    "pipeline_table",
    "PipelineScanResult",
    "PipelineScanner",
    "run_pipeline_experiment",
]

RECORD_BYTES = 128
PAGE_BYTES = 8192
RECORDS_PER_PAGE = PAGE_BYTES // RECORD_BYTES

#: The record/page shape every scan in this module verifies against.
GEOMETRY = Geometry(RECORD_BYTES, RECORDS_PER_PAGE)

#: The byte regex the demo tables are seeded around.
NEEDLE_PATTERN = rb"needle-\d{8}"


#: A generator word's top byte -> the letter ``97 + (word >> 27)``, and
#: the top bytes that draw is redone for (``word >> 27 >= 26``).
_LETTER = bytes(97 + (top >> 3) for top in range(256))
_REDRAWN = bytes(range(26 << 3, 256))


def _letters(rng: SeededRng, count: int) -> bytes:
    """``bytes(97 + rng.randrange(26) for _ in range(count))``, in bulk.

    That draw is ``getrandbits(5)`` — a generator word's top five bits
    — redone while >= 26, and ``getrandbits(32 * n)`` is the next ``n``
    words, lowest first.  Never asking for more words than letters are
    missing leaves the stream where the per-byte loop does (pinned,
    bytes and stream, by ``tests/test_pushdown_table.py``).
    """
    out = b""
    while len(out) < count:
        need = count - len(out)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        out += words[3::4].translate(_LETTER, _REDRAWN)
    return out


#: Where the verified pipeline executes.
PLACEMENTS = ("ship-all", "dpu-software", "dpu-accel")

#: Canonical operator pipelines the bench sweeps.
PIPELINES = ("filter", "filter-project", "filter-project-agg")

#: LE u32 "value" column offset in the pipeline tables.
VALUE_OFFSET = 16

#: LE u32 "weight" column offset in the pipeline tables.
WEIGHT_OFFSET = 20


def canonical_pipeline(name: str) -> Pipeline:
    """The named operator pipeline over the pipeline-table layout."""
    filt = regex_filter(NEEDLE_PATTERN)
    if name == "filter":
        return Pipeline((filt,))
    project = project_fields(((0, 8), (VALUE_OFFSET, 4)))
    if name == "filter-project":
        return Pipeline((filt, project))
    if name == "filter-project-agg":
        aggregate = aggregate_fields(
            (VALUE_OFFSET, 4), max_field=(WEIGHT_OFFSET, 4)
        )
        return Pipeline((filt, project, aggregate))
    raise ValueError(f"unknown pipeline: {name!r} (want one of {PIPELINES})")


@dataclass(frozen=True)
class PipelineTable:
    """A pipeline table's bytes and the answers a scan of it must find."""

    #: The pages back to back: what a scanner loads in one write.
    image: bytes
    hits: int
    value_sum: int
    max_weight: int

    @property
    def pages(self) -> Tuple[bytes, ...]:
        """The image cut into ``PAGE_BYTES`` pages (fresh copies)."""
        image = self.image
        return tuple(
            image[at:at + PAGE_BYTES] for at in range(0, len(image), PAGE_BYTES)
        )


def build_pipeline_table(
    rng: SeededRng, pages: int, selectivity: float
) -> PipelineTable:
    """Draw the next ``pages``-page pipeline table off ``rng``: per
    record a marker at 0, a u32 value at 16, a u32 weight at 20 and a
    random tail.

    The value and weight are ``rng.randrange(10_000)`` and
    ``rng.randrange(100)`` drawn the way ``random.Random`` draws them,
    without its two Python frames per draw: ``getrandbits`` of the
    bound's bit length (14, 7), redone while out of range.
    """
    random, getrandbits = rng.random, rng.getrandbits
    table: List[bytes] = []
    hits = value_sum = max_weight = 0
    for first in range(0, pages * RECORDS_PER_PAGE, RECORDS_PER_PAGE):
        records = []
        for index in range(first, first + RECORDS_PER_PAGE):
            hit = random() < selectivity
            marker = b"needle-%08d" % index if hit else b"chaff--%08d" % index
            value = getrandbits(14)
            while value >= 10_000:
                value = getrandbits(14)
            weight = getrandbits(7)
            while weight >= 100:
                weight = getrandbits(7)
            records.append(
                marker.ljust(VALUE_OFFSET, b".")
                + value.to_bytes(4, "little")
                + weight.to_bytes(4, "little")
                + _letters(rng, RECORD_BYTES - WEIGHT_OFFSET - 4)
            )
            if hit:
                hits += 1
                value_sum += value
                max_weight = max(max_weight, weight)
        table.append(b"".join(records))
    return PipelineTable(b"".join(table), hits, value_sum, max_weight)


@lru_cache(maxsize=4)
def pipeline_table(pages: int, selectivity: float, seed: int) -> PipelineTable:
    """The table a seed names — a pure function of the three, so the
    scanners of a sweep load one build of it."""
    return build_pipeline_table(SeededRng(seed), pages, selectivity)


class PipelineScanner:
    """A pipeline-table plus a verified pushdown scan at one placement.

    Construction *is* admission: the pipeline goes through
    :func:`~repro.pushdown.verifier.verify` and an unverifiable one is
    refused here with the typed verdict (callers that want graceful host
    fallback — :meth:`repro.topology.sharding.ShardedOffloadServer.
    pushdown_scan` — call ``verify`` themselves first).
    """

    def __init__(
        self,
        env: Environment,
        pipeline: Pipeline,
        pages: int = 64,
        selectivity: float = 0.05,
        placement: str = "dpu-accel",
        seed: int = 55,
    ) -> None:
        if placement not in PLACEMENTS:
            raise ValueError(f"unknown placement: {placement!r}")
        if not 0 <= selectivity <= 1:
            raise ValueError("selectivity must be in [0, 1]")
        self.admission, token = verify(pipeline, GEOMETRY)
        if token is None:
            raise ValueError(
                f"pipeline refused admission: {self.admission.explain()}"
            )
        self.token: VerifiedPipeline = token
        self.env = env
        self.placement = placement
        self.pages = pages
        self.has_aggregate = pipeline.stage("aggregate") is not None
        self.link = NetworkLink(env)
        self.fs = DdsFileSystem(
            env, SpdkBdev(env, RamDisk(pages * PAGE_BYTES + (32 << 20)))
        )
        self.fs.create_directory("table")
        self.file_id = self.fs.create_file("table", "records")
        self.spdk_core = CpuPool(env, speed=DPU_CPU.speed, name="spdk")
        self.dpu_core = CpuPool(env, speed=DPU_CPU.speed, name="pushdown")
        self.client_core = CpuPool(env, speed=HOST_CPU.speed, name="client")
        if placement == "ship-all":
            self.engine = PushdownEngine(env, self.client_core)
        elif placement == "dpu-software":
            self.engine = PushdownEngine(env, self.dpu_core)
        else:
            accelerator = (
                HardwareAccelerator(env, BF2_REGEX)
                if token.pattern is not None
                else None
            )
            self.engine = PushdownEngine(env, self.dpu_core, accelerator)
        table = pipeline_table(pages, selectivity, seed)
        self.expected_hits = table.hits
        self.expected_sum = table.value_sum
        self.expected_max_weight = table.max_weight
        self.fs.write_sync(self.file_id, 0, table.image)
        self.wire_bytes = 0

    def scan_page(self, page_id: int) -> Generator:
        """Scan one page through the verified engine."""
        page = yield from submit_read(
            self.spdk_core, self.fs, self.file_id, page_id * PAGE_BYTES,
            PAGE_BYTES,
        )
        if self.placement == "ship-all":
            yield from self.link.transmit("server_to_client", PAGE_BYTES)
            self.wire_bytes += PAGE_BYTES
            outcome = yield from self.engine.execute_page(self.token, page)
            return outcome.selected
        outcome = yield from self.engine.execute_page(self.token, page)
        payload = shipped_bytes(self.token, outcome)
        if payload:
            yield from self.link.transmit("server_to_client", payload)
        self.wire_bytes += payload
        return outcome.selected

    #: Page scans in flight: worker ``i`` takes pages ``i``, ``i + 16``, ...
    WORKERS = 16

    def scan_table(self) -> Generator:
        """Scan every page; returns all selected records."""
        results: List[Tuple[int, bytes]] = []

        def worker(page_ids):
            for page_id in page_ids:
                matches = yield from self.scan_page(page_id)
                results.extend(matches)

        chunks = [
            list(range(start, self.pages, self.WORKERS))
            for start in range(self.WORKERS)
        ]
        workers = [self.env.process(worker(chunk)) for chunk in chunks]
        yield self.env.all_of(workers)
        dump = shipped_bytes(self.token)
        if dump and self.placement != "ship-all":
            yield from self.link.transmit("server_to_client", dump)
            self.wire_bytes += dump
        return results

    @property
    def acc(self) -> Tuple[int, ...]:
        """The engine's accumulator registers (aggregate results)."""
        return tuple(self.engine.acc)


@dataclass
class PipelineScanResult:
    """Outcome of one verified-pipeline experiment."""

    placement: str
    pipeline: str
    scan_seconds: float
    rows: int
    wire_bytes: int
    dpu_core_seconds: float
    client_core_seconds: float
    acc: Tuple[int, ...]
    #: Occurrences the scan scheduled (``Environment.scheduled_count``).
    events: int


def run_pipeline_experiment(
    placement: str,
    pipeline: str = "filter-project-agg",
    pages: int = 64,
    selectivity: float = 0.05,
) -> PipelineScanResult:
    """Full-table verified-pipeline scan at one placement (the table of
    seed 55), cross-checked against the table's ground truth."""
    env = Environment()
    scanner = PipelineScanner(
        env,
        canonical_pipeline(pipeline),
        pages=pages,
        selectivity=selectivity,
        placement=placement,
    )
    proc = env.process(scanner.scan_table())
    env.run(until=proc)
    selected = proc.value
    if len(selected) != scanner.expected_hits:
        raise RuntimeError(
            f"{pipeline}/{placement}: {len(selected)} rows selected, "
            f"the table has {scanner.expected_hits} hits"
        )
    if not all(record.startswith(b"needle-") for _slot, record in selected):
        raise RuntimeError(f"{pipeline}/{placement}: selected a non-hit")
    if scanner.has_aggregate:
        expected = (
            scanner.expected_sum, scanner.expected_hits,
            scanner.expected_max_weight,
        )
        if scanner.acc[:3] != expected:
            raise RuntimeError(
                f"{pipeline}/{placement}: accumulators {scanner.acc[:3]} "
                f"(sum, count, max), the table says {expected}"
            )
    return PipelineScanResult(
        placement=placement,
        pipeline=pipeline,
        scan_seconds=env.now,
        rows=len(selected),
        wire_bytes=scanner.wire_bytes,
        dpu_core_seconds=scanner.dpu_core.busy_time,
        client_core_seconds=scanner.client_core.busy_time,
        acc=scanner.acc,
        events=env.scheduled_count,
    )
