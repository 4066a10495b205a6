"""Extensions (§11 future work): accelerators on the DDS data path.

Not a paper figure — the paper's conclusion proposes using the DPU's
hardware engines (compression, regex) "to execute compute-intensive
components in cloud data system tasks"; these benchmarks quantify that
proposal on the reproduced system.

* Compressed page serving: the deflate engine decompresses offloaded
  reads at line rate, so compression's SSD savings come for free; the
  same work on Arm cores collapses throughput (the §2 argument).
* String-operator pushdown: the RXP engine filters records where they
  live, cutting network bytes by the query's selectivity at no Arm cost.
"""

from _tables import emit, kops, us

from repro.apps.compressed_storage import run_compressed_read_experiment
from repro.pushdown.scan import PLACEMENTS, run_pipeline_experiment


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
        rows,
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
        rows,
    )
    return results


def test_ext_compressed_reads(benchmark):
    results = benchmark.pedantic(run_compression, rounds=1, iterations=1)
    accel, software, plain = (
        results["accel"],
        results["software"],
        results["none"],
    )
    # Hardware decompression: ~plain throughput, big SSD savings.
    assert accel.throughput > 0.85 * plain.throughput
    assert accel.ssd_bytes_per_page < 0.4 * plain.ssd_bytes_per_page
    # Software decompression on Arm cores is not viable (§2's lesson).
    assert software.throughput < 0.4 * accel.throughput


def test_ext_pushdown_scan(benchmark):
    results = benchmark.pedantic(run_pushdown, rounds=1, iterations=1)
    ship, software, regex = (
        results["ship-all"],
        results["dpu-software"],
        results["dpu-accel"],
    )
    # The regex engine filters at ship-all speed with ~selectivity-
    # proportional wire traffic and zero Arm involvement.
    assert regex.wire_bytes < 0.2 * ship.wire_bytes
    assert regex.scan_seconds < 1.3 * ship.scan_seconds
    assert regex.dpu_core_seconds == 0.0
    assert software.scan_seconds > 2 * regex.scan_seconds
    # All placements return the same answer.
    assert ship.rows == software.rows == regex.rows
