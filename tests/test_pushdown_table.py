"""The scan tables are values: pinned bytes, built once, never shared.

``repro.pushdown.scan`` draws a record's random tail in bulk
(``_letters``) instead of one ``rng.randrange(26)`` per byte, and
memoises a table by ``(pages, selectivity, seed)``.  Every pushdown
golden, ``BENCH_pushdown.json`` and the e2e benchmark's ``sim_*`` hang
off *which records are hits*, so the licence for both is here: the
bytes, the ground truth and the generator's position afterwards equal a
per-byte ``randrange`` reference (a Python that ever draws ``randrange``
differently fails this loudly), and a memoised table is adopted by every
scanner's disk, never written through: all of them read the one image,
and a write to one scanner's table is copy-on-write on that disk alone.
"""

from __future__ import annotations

import ast
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.pushdown.scan import (
    PAGE_BYTES,
    RECORD_BYTES,
    RECORDS_PER_PAGE,
    VALUE_OFFSET,
    WEIGHT_OFFSET,
    PipelineScanner,
    build_pipeline_table,
    canonical_pipeline,
    pipeline_table,
)
from repro.sim import Environment, SeededRng
from repro.storage.disk import RamDisk, SpdkBdev
from repro.storage.filesystem import DdsFileSystem

from .conftest import run

SEEDS = (1, 55, 99)


def _tail(rng, count):
    return bytes(97 + rng.randrange(26) for _ in range(count))


def _reference_pipeline_table(rng, pages, selectivity):
    """The table loop and per-byte record as first written."""
    table, hits, value_sum, max_weight = [], 0, 0, 0
    for index in range(pages * RECORDS_PER_PAGE):
        hit = rng.random() < selectivity
        marker = b"needle-%08d" % index if hit else b"chaff--%08d" % index
        value = rng.randrange(10_000)
        weight = rng.randrange(100)
        table.append(
            marker.ljust(VALUE_OFFSET, b".")
            + value.to_bytes(4, "little")
            + weight.to_bytes(4, "little")
            + _tail(rng, RECORD_BYTES - WEIGHT_OFFSET - 4)
        )
        if hit:
            hits += 1
            value_sum += value
            max_weight = max(max_weight, weight)
    return b"".join(table), (hits, value_sum, max_weight)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed", SEEDS)
def test_pipeline_table_is_the_per_byte_table(seed):
    table = pipeline_table(128, 0.05, seed)
    data, truth = _reference_pipeline_table(SeededRng(seed), 128, 0.05)
    assert [len(page) for page in table.pages] == [PAGE_BYTES] * 128
    assert _digest(b"".join(table.pages)) == _digest(data)
    assert (table.hits, table.value_sum, table.max_weight) == truth
    assert table.hits > 0


def test_tables_drawn_off_one_stream_leave_it_where_the_reference_does():
    """``build_pipeline_table`` takes the rng so several tables can come
    off one stream: each must consume exactly what the per-byte loop
    consumed, or the *next* table moves.  The value and weight draws
    inline ``randrange``'s rejection loops, so the edges are here too:
    every record a hit, none, and small odd page counts."""
    shipped, reference = SeededRng(99), SeededRng(99)
    for pages, selectivity in ((3, 0.2), (1, 1.0), (2, 0.0), (5, 0.05)):
        table = build_pipeline_table(shipped, pages, selectivity)
        data, truth = _reference_pipeline_table(
            reference, pages, selectivity
        )
        assert b"".join(table.pages) == data
        assert (table.hits, table.value_sum, table.max_weight) == truth
        assert shipped.getstate() == reference.getstate()
        if selectivity in (0.0, 1.0):
            assert table.hits == selectivity * pages * RECORDS_PER_PAGE


def test_scanners_of_one_memoised_table_share_no_disk_byte():
    """Both disks adopt the memo's image; a write to one is
    copy-on-write there, so the other and the memo keep the table."""
    assert pipeline_table(2, 0.5, 7) is pipeline_table(2, 0.5, 7)
    first, second = (
        PipelineScanner(
            Environment(), canonical_pipeline("filter"), pages=2,
            selectivity=0.5, seed=7,
        )
        for _ in range(2)
    )
    table = b"".join(pipeline_table(2, 0.5, 7).pages)
    assert first.fs.read_sync(first.file_id, 0, len(table)) == table
    first.fs.write_sync(first.file_id, 0, b"\xee" * PAGE_BYTES)
    assert first.fs.read_sync(first.file_id, 0, 4) == b"\xee" * 4
    assert second.fs.read_sync(second.file_id, 0, len(table)) == table
    # ... nor does the write reach the memo a third scanner loads from.
    assert b"".join(pipeline_table(2, 0.5, 7).pages) == table


def test_a_one_write_load_lays_the_disk_out_as_page_writes_do():
    """A scanner loads its table in one ``write_sync``, adopting the
    joined pages by reference; a page-by-page load adopts each page.
    Both commit no slot and mark the same written extents."""
    pages = 8
    scanner = PipelineScanner(
        Environment(), canonical_pipeline("filter"), pages=pages, seed=3
    )
    env = Environment()
    paged = DdsFileSystem(
        env, SpdkBdev(env, RamDisk(pages * PAGE_BYTES + (32 << 20)))
    )
    paged.create_directory("table")
    file_id = paged.create_file("table", "records")
    assert file_id == scanner.file_id
    for page_id, page in enumerate(pipeline_table(pages, 0.05, 3).pages):
        paged.write_sync(file_id, page_id * PAGE_BYTES, page)
    size = pages * PAGE_BYTES
    assert scanner.fs.read_sync(file_id, 0, size) == paged.read_sync(
        file_id, 0, size
    )
    one, many = scanner.fs.bdev.disk, paged.bdev.disk
    assert one._slots == many._slots
    assert one._written == many._written


def test_scanners_hold_one_table_and_share_no_mutable_byte():
    table = pipeline_table(4, 0.5, 11)
    scanners = [
        PipelineScanner(
            Environment(), canonical_pipeline("filter"), pages=4,
            selectivity=0.5, seed=11,
        )
        for _ in range(3)
    ]
    for scanner in scanners:
        disk = scanner.fs.bdev.disk
        assert disk._slots == {}
        ((_start, _stop, source, _at),) = disk._adopted
        assert source is table.image
    size = len(table.image)
    first = scanners[0]
    first.fs.write_sync(first.file_id, PAGE_BYTES, b"\xee" * PAGE_BYTES)
    run(first.env, first.fs.write(first.file_id, 100, b"\xdd" * 50))
    expected = bytearray(table.image)
    expected[PAGE_BYTES : 2 * PAGE_BYTES] = b"\xee" * PAGE_BYTES
    expected[100:150] = b"\xdd" * 50
    assert first.fs.read_sync(first.file_id, 0, size) == expected
    reference = build_pipeline_table(SeededRng(11), 4, 0.5).image
    assert table.image == reference
    for other in scanners[1:]:
        assert other.fs.read_sync(other.file_id, 0, size) == reference


def test_scanning_does_not_import_the_linter():
    """Every e2e child imports ``repro.pushdown.scan``; the restricted-
    Python frontend must not drag ``repro.analysis`` (the whole ddslint
    driver) in with it."""
    code = (
        "import sys, repro.pushdown.scan\n"
        "loaded = sorted(m for m in sys.modules "
        "if m.startswith('repro.analysis'))\n"
        "assert not loaded, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    subprocess.run(
        [sys.executable, "-c", code], check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_regex_scan_has_one_caller():
    """One string operator, one cost model: outside the module that
    defines it, only the verified engine runs ``regex_scan``."""
    root = pathlib.Path(repro.__file__).parent
    callers = {
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "regex_scan"
    }
    assert callers - {"hardware/accelerators.py"} == {"pushdown/engine.py"}
