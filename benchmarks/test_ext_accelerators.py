"""Extensions (§11 future work): accelerators on the DDS data path.

Not a paper figure — the paper's conclusion proposes using the DPU's
hardware engines (compression, regex) "to execute compute-intensive
components in cloud data system tasks": compressed page serving
(decompression placement) and string-operator pushdown (scan
placement) quantify that proposal on the reproduced system.
"""

from _tables import (
    ALL_EQUAL, Claim, above, below, bench, emit, equals, kops, of, ratio, us
)

from repro.apps.compressed_storage import run_compressed_read_experiment
from repro.pushdown.scan import PLACEMENTS, run_pipeline_experiment

FUTURE = "Sec. 11: offload compute to DPU engines"
ARM = "Sec. 2: Arm cores too slow"


CLAIMS = (
    Claim("ext_compression", "pages/s, accel / none", FUTURE,
          ratio(of("accel", "throughput"), of("none", "throughput")), above(0.85)),
    Claim("ext_compression", "SSD bytes per page, accel / none", FUTURE,
          ratio(of("accel", "ssd_bytes_per_page"), of("none", "ssd_bytes_per_page")), below(0.4)),
    Claim("ext_compression", "pages/s, software / accel", ARM,
          ratio(of("software", "throughput"), of("accel", "throughput")), below(0.4)),
    Claim("ext_pushdown", "wire bytes, dpu-accel / ship-all", FUTURE,
          ratio(of("dpu-accel", "wire_bytes"), of("ship-all", "wire_bytes")), below(0.2)),
    Claim("ext_pushdown", "scan time, dpu-accel / ship-all", FUTURE,
          ratio(of("dpu-accel", "scan_seconds"), of("ship-all", "scan_seconds")), below(1.3)),
    Claim("ext_pushdown", "dpu-accel Arm core seconds", FUTURE,
          of("dpu-accel", "dpu_core_seconds"), equals(0.0)),
    Claim("ext_pushdown", "scan time, dpu-software / dpu-accel", ARM,
          ratio(of("dpu-software", "scan_seconds"), of("dpu-accel", "scan_seconds")), above(2)),
    Claim("ext_pushdown", "rows, per placement", "same answer everywhere",
          lambda r: [result.rows for result in r.values()], ALL_EQUAL),
)


def run_compression():
    results = {
        mode: run_compressed_read_experiment(mode, pages=96, reads=960)
        for mode in ("none", "software", "accel")
    }
    rows = [
        (
            mode,
            kops(r.throughput),
            us(r.mean_latency),
            f"{r.compression_ratio:.2f}x",
            f"{r.ssd_bytes_per_page:.0f}",
        )
        for mode, r in results.items()
    ]
    emit(
        "ext_compression",
        "compressed page serving: decompression placement",
        ("mode", "pages/s", "mean latency", "ratio", "SSD B/page"),
        rows, CLAIMS, results,
    )
    return results


def run_pushdown():
    results = {
        placement: run_pipeline_experiment(placement, "filter", pages=96)
        for placement in PLACEMENTS
    }
    rows = [
        (
            placement,
            f"{r.scan_seconds * 1e3:.2f}ms",
            f"{r.wire_bytes / 1024:.1f}KB",
            f"{r.dpu_core_seconds * 1e3:.2f}ms",
        )
        for placement, r in results.items()
    ]
    emit(
        "ext_pushdown",
        "string-operator pushdown: scan placement (5% selectivity)",
        ("mode", "scan time", "wire bytes", "arm core time"),
        rows, CLAIMS, results,
    )
    return results


test_ext_compressed_reads = bench(run_compression)
test_ext_pushdown_scan = bench(run_pushdown)
