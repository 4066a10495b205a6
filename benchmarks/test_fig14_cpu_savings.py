"""Figure 14: achieved throughput vs. host CPU cores consumed, for
random 1 KiB reads (a) and writes (b).  DDS's offload API does not
cover writes, so (b) compares the baseline with the file library.
"""

from _tables import (
    INCREASING, Claim, above, below, bench, between, cores, emit, kops, peak, peaks, ratio
)

from repro.bench import run_io_experiment

READ_LOADS = (200e3, 400e3, 600e3, 800e3)
WRITE_LOADS = (100e3, 200e3, 300e3, 400e3)


def _cores_per_iop(kind):
    return lambda r: r[kind][-1].host_cores / r[kind][-1].achieved_iops


CLAIMS = (
    Claim("fig14a", "peak IOPS: baseline, dds-files", "390K < 580K",
          peaks("achieved_iops", "baseline", "dds-files"), INCREASING),
    Claim("fig14a", "peak IOPS: dds-files, dds-offload", "580K < 730K",
          peaks("achieved_iops", "dds-files", "dds-offload"), INCREASING),
    Claim("fig14a", "baseline peak IOPS", "390K",
          peak("baseline", "achieved_iops"), between(330e3, 460e3)),
    Claim("fig14a", "dds-files peak IOPS", "580K",
          peak("dds-files", "achieved_iops"), between(500e3, 660e3)),
    Claim("fig14a", "dds-offload peak IOPS", "730K",
          peak("dds-offload", "achieved_iops"), between(650e3, 820e3)),
    Claim("fig14a", "baseline host cores at peak", "10.7",
          peak("baseline", "host_cores"), between(8, 14)),
    Claim("fig14a", "host cores per IOPS at peak, dds-files / baseline", "6.5/580K vs 10.7/390K",
          ratio(_cores_per_iop("dds-files"), _cores_per_iop("baseline")), below(0.65)),
    Claim("fig14a", "dds-offload host cores at peak", "~0",
          peak("dds-offload", "host_cores"), below(0.05)),
    Claim("fig14a", "dds-offload DPU cores at peak", "the BF-2's 3 Arm cores",
          peak("dds-offload", "dpu_cores"), below(3.0)),
    Claim("fig14b", "baseline peak write IOPS", "~210K",
          peak("baseline", "achieved_iops"), between(170e3, 250e3)),
    Claim("fig14b", "dds-files peak write IOPS", "~290K",
          peak("dds-files", "achieved_iops"), between(250e3, 330e3)),
    Claim("fig14b", "host cores saved at ~200K writes", "> 5 cores",
          lambda r: r["baseline"][1].host_cores - r["dds-files"][1].host_cores, above(1.5)),
)


def run_reads():
    results = {}
    rows = []
    for kind in ("baseline", "dds-files", "dds-offload"):
        series = [
            run_io_experiment(kind, offered, total_requests=8000)
            for offered in READ_LOADS
        ]
        results[kind] = series
        for result in series:
            rows.append(
                (
                    kind,
                    kops(result.achieved_iops),
                    cores(result.host_cores),
                    cores(result.dpu_cores),
                )
            )
    emit(
        "fig14a",
        "reads: throughput vs host CPU cores",
        ("solution", "IOPS", "host cores", "dpu cores"),
        rows, CLAIMS, results,
    )
    return results


def run_writes():
    results = {}
    rows = []
    for kind in ("baseline", "dds-files"):
        series = [
            run_io_experiment(
                kind, offered, total_requests=6000, read_fraction=0.0
            )
            for offered in WRITE_LOADS
        ]
        results[kind] = series
        for result in series:
            rows.append(
                (
                    kind,
                    kops(result.achieved_iops),
                    cores(result.host_cores),
                    cores(result.dpu_cores),
                )
            )
    emit(
        "fig14b",
        "writes: throughput vs host CPU cores",
        ("solution", "IOPS", "host cores", "dpu cores"),
        rows, CLAIMS, results,
    )
    return results


test_fig14a_read_cpu_savings = bench(run_reads)
test_fig14b_write_cpu_savings = bench(run_writes)
