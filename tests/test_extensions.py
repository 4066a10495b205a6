"""Tests for the §11 future-work extensions: accelerators, pushdown."""

import os
import re
import subprocess
import sys

import pytest

import repro
from repro.apps.compressed_storage import (
    CompressedPageStore,
    run_compressed_read_experiment,
)
from repro.hardware import (
    ARM_SOFTWARE_COMPRESSION,
    BF2_COMPRESSION,
    BF2_REGEX,
    CpuPool,
    HardwareAccelerator,
    compile_pattern,
    compress_page,
    decompress_page,
    regex_scan,
)
from repro.pushdown.scan import (
    PLACEMENTS,
    PipelineScanner,
    canonical_pipeline,
    run_pipeline_experiment,
)
from repro.sim import Environment


class TestHardwareAccelerator:
    def test_job_time_scales_with_bytes(self):
        env = Environment()
        engine = HardwareAccelerator(env, BF2_COMPRESSION)
        assert engine.job_time(1 << 20) > engine.job_time(1 << 10)

    def test_hardware_is_much_faster_than_software(self):
        env = Environment()
        hw = HardwareAccelerator(env, BF2_COMPRESSION)
        sw = HardwareAccelerator(env, ARM_SOFTWARE_COMPRESSION)
        assert sw.job_time(1 << 20) > 20 * hw.job_time(1 << 20)

    def test_process_takes_engine_time(self):
        env = Environment()
        engine = HardwareAccelerator(env, BF2_REGEX)

        def main():
            yield from engine.process(1 << 20)
            return env.now

        proc = env.process(main())
        env.run(until=proc)
        assert proc.value == pytest.approx(engine.job_time(1 << 20))
        assert engine.jobs == 1 and engine.bytes_processed == 1 << 20

    def test_channels_limit_concurrency(self):
        env = Environment()
        engine = HardwareAccelerator(env, BF2_COMPRESSION)  # 2 channels
        finish = []

        def job():
            yield from engine.process(8 << 20)
            finish.append(env.now)

        for _ in range(4):
            env.process(job())
        env.run()
        # With 2 channels, 4 equal jobs finish in two waves.
        assert finish[1] == pytest.approx(finish[0])
        assert finish[2] > finish[1]

    def test_software_fallback_charges_the_core(self):
        env = Environment()
        core = CpuPool(env, speed=0.35)
        engine = HardwareAccelerator(
            env, ARM_SOFTWARE_COMPRESSION, software_core=core
        )

        def main():
            yield from engine.process(1 << 16)

        proc = env.process(main())
        env.run(until=proc)
        assert core.busy_time > 0

    def test_negative_job_rejected(self):
        env = Environment()
        engine = HardwareAccelerator(env, BF2_COMPRESSION)
        with pytest.raises(ValueError):
            list(engine.process(-1))


class TestTransforms:
    def test_compress_roundtrip(self):
        page = b"A" * 4096 + bytes(range(256)) * 16
        assert decompress_page(compress_page(page)) == page

    def test_compression_actually_compresses(self):
        page = b"repetitive " * 700
        assert len(compress_page(page)) < len(page) / 4

    def test_regex_scan_finds_records(self):
        records = [b"x" * 64, b"hit-here" + b"y" * 56, b"z" * 64]
        data = b"".join(records)
        matches = regex_scan(data, re.compile(rb"hit-\w+"), 64)
        assert matches == [(1, records[1])]

    def test_regex_scan_record_boundaries(self):
        # A needle split across two records must not match.
        data = b"a" * 60 + b"need" + b"le--" + b"b" * 60
        matches = regex_scan(data, re.compile(rb"needle"), 64)
        assert matches == []

    def test_regex_scan_invalid_record_size(self):
        with pytest.raises(ValueError):
            regex_scan(b"abc", re.compile(rb"a"), 0)

    def test_regex_scan_refuses_a_partial_trailing_record(self):
        # The interpreter traps on a short record (WindowTrap); the
        # search must not drop one silently either.
        data = b"x" * 64 + b"hit"
        with pytest.raises(ValueError, match="not whole 64B records"):
            regex_scan(data, re.compile(rb"hit"), 64)


class TestCompressedStore:
    def test_roundtrip_integrity_all_modes(self):
        for mode in ("none", "software", "accel"):
            env = Environment()
            store = CompressedPageStore(env, pages=24, mode=mode)

            def main():
                page = yield env.process(store.read_page(7))
                return page

            proc = env.process(main())
            env.run(until=proc)
            assert store.verify(7, proc.value), mode

    def test_compression_saves_storage(self, monkeypatch):
        monkeypatch.setattr(CompressedPageStore, "REDUNDANCY", 0.9)
        env = Environment()
        store = CompressedPageStore(env, pages=24, mode="accel")
        assert store.compression_ratio > 2.0

    def test_incompressible_pages_stored_raw(self, monkeypatch):
        monkeypatch.setattr(CompressedPageStore, "REDUNDANCY", 0.0)
        env = Environment()
        store = CompressedPageStore(env, pages=24, mode="accel")
        assert store.compression_ratio <= 1.01

    def test_unknown_page_rejected(self):
        env = Environment()
        store = CompressedPageStore(env, pages=8, mode="none")
        with pytest.raises(KeyError):
            list(store.read_page(99))

    def test_experiment_shapes(self):
        accel = run_compressed_read_experiment("accel", pages=48, reads=320)
        software = run_compressed_read_experiment(
            "software", pages=48, reads=320
        )
        plain = run_compressed_read_experiment("none", pages=48, reads=320)
        # Hardware decompression keeps ~plain throughput while reading
        # far fewer SSD bytes; the software path collapses.
        assert accel.throughput > 0.85 * plain.throughput
        assert accel.ssd_bytes_per_page < 0.5 * plain.ssd_bytes_per_page
        assert software.throughput < 0.5 * accel.throughput


class TestPushdown:
    def test_all_modes_return_identical_matches(self):
        results = {
            placement: run_pipeline_experiment(placement, "filter", pages=32)
            for placement in PLACEMENTS
        }
        counts = {r.rows for r in results.values()}
        assert len(counts) == 1

    def test_pushdown_saves_wire_bytes(self):
        ship = run_pipeline_experiment("ship-all", "filter", pages=32)
        regex = run_pipeline_experiment("dpu-accel", "filter", pages=32)
        assert regex.wire_bytes < 0.2 * ship.wire_bytes

    def test_regex_engine_beats_software_scan(self):
        software = run_pipeline_experiment("dpu-software", "filter", pages=32)
        regex = run_pipeline_experiment("dpu-accel", "filter", pages=32)
        assert regex.scan_seconds < software.scan_seconds
        assert regex.dpu_core_seconds == 0.0
        assert software.dpu_core_seconds > 0.0

    def test_selectivity_controls_wire_bytes(self):
        low = run_pipeline_experiment("dpu-accel", "filter", pages=32,
                                      selectivity=0.02)
        high = run_pipeline_experiment("dpu-accel", "filter", pages=32,
                                       selectivity=0.30)
        assert high.wire_bytes > 3 * low.wire_bytes

    def test_invalid_parameters(self):
        env = Environment()
        pipeline = canonical_pipeline("filter")
        with pytest.raises(ValueError):
            PipelineScanner(env, pipeline, placement="fpga")
        with pytest.raises(ValueError):
            PipelineScanner(env, pipeline, selectivity=1.5)


#: Each experiment driver run against tampered ground truth: the table
#: reports one hit too many or a wrong sum, the store's image differs
#: from what it loaded, every read returns a page with a wrong tag.
TAMPERED = {
    "pushdown-rows": (
        "import dataclasses\n"
        "from repro.pushdown import scan\n"
        "table = scan.pipeline_table\n"
        "scan.pipeline_table = lambda *key: dataclasses.replace(\n"
        "    table(*key), hits=table(*key).hits + 1)\n"
        "scan.run_pipeline_experiment('dpu-software', 'filter', pages=4)\n"
    ),
    "pushdown-aggregate": (
        "import dataclasses\n"
        "from repro.pushdown import scan\n"
        "table = scan.pipeline_table\n"
        "scan.pipeline_table = lambda *key: dataclasses.replace(\n"
        "    table(*key), value_sum=table(*key).value_sum + 1)\n"
        "scan.run_pipeline_experiment('dpu-accel', pages=4)\n"
    ),
    "compressed-read": (
        "from repro.apps import compressed_storage as cs\n"
        "load = cs.CompressedPageStore.__init__\n"
        "def tampered(self, *args, **kwargs):\n"
        "    load(self, *args, **kwargs)\n"
        "    for page_id, page in self._expected.items():\n"
        "        self._expected[page_id] = bytes([page[0] ^ 1]) + page[1:]\n"
        "cs.CompressedPageStore.__init__ = tampered\n"
        "cs.run_compressed_read_experiment('accel', pages=8, reads=64)\n"
    ),
    "dpu-cache": (
        "from repro.apps import dpu_cache\n"
        "read = dpu_cache.submit_read\n"
        "def misread(*args):\n"
        "    data = yield from read(*args)\n"
        "    return bytes([data[0] ^ 1]) + data[1:]\n"
        "dpu_cache.submit_read = misread\n"
        "dpu_cache.run_dpu_cache_experiment(0, reads=96)\n"
    ),
}


@pytest.mark.parametrize("driver", sorted(TAMPERED))
def test_a_driver_refuses_a_wrong_answer_under_python_O(driver):
    """The drivers check their results with explicit raises: ``-O``
    strips ``assert``, and a wrong answer must not come back as a
    figure."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    run = subprocess.run(
        [sys.executable, "-O", "-c", TAMPERED[driver]],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode != 0, run.stdout
    assert "RuntimeError" in run.stderr, run.stderr
