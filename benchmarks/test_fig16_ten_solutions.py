"""Figure 16: detailed comparison of ten storage solutions (§8.4).

For random 1 KiB reads: peak throughput, total client + server CPU at
peak, and p50/p99 latency at peak, across local storage (Windows files
(1), DDS files (2)), SMB (3) / SMB Direct (4), TCP + Windows files (5),
TCP + DDS files (6), Redy + Windows files (7), Redy + DDS files (8), DDS
offloading with TCP (9) and with RDMA (10).
"""

from _tables import (
    INCREASING, Claim, above, at_least, below, bench, cores, each, emit, kops, of, ratio, us
)

from repro.bench import SOLUTIONS, find_peak

START = {
    "local-os": 250e3,
    "local-dds": 400e3,
    "smb": 100e3,
    "smb-direct": 120e3,
    "baseline": 250e3,
    "dds-files": 400e3,
    "redy-os": 250e3,
    "redy-dds": 400e3,
    "dds-offload": 400e3,
    "dds-offload-rdma": 400e3,
}


def _pair(field, first, second):
    return lambda peaks: [getattr(peaks[first], field), getattr(peaks[second], field)]


# Solutions are numbered as in the paper's Figure 16: (1) local-os ... (10) dds-offload-rdma.
CLAIMS = (
    Claim("fig16", "peak IOPS: baseline, local-os", "(5) below (1)",
          _pair("achieved_iops", "baseline", "local-os"), INCREASING),
    Claim("fig16", "p50 at peak: local-os, baseline", "(5) slower than (1)",
          _pair("p50", "local-os", "baseline"), INCREASING),
    Claim("fig16", "total cores at peak: local-os, baseline", "(5) costs CPU over (1)",
          _pair("total_cores", "local-os", "baseline"), INCREASING),
    Claim("fig16", "peak IOPS: smb, smb-direct", "(4) above (3): RDMA",
          _pair("achieved_iops", "smb", "smb-direct"), INCREASING),
    Claim("fig16", "peak IOPS, smb-direct / baseline", "(3)(4) far below (5)-(10)",
          ratio(of("smb-direct", "achieved_iops"), of("baseline", "achieved_iops")), below(0.7)),
    Claim("fig16", "peak IOPS / local-dds: dds-files, redy-dds, dds-offload(-rdma)",
          "(6)-(10) match (2)",
          lambda p: [p[k].achieved_iops / p["local-dds"].achieved_iops for k in
                     ("dds-files", "redy-dds", "dds-offload", "dds-offload-rdma")],
          each(above(0.75))),
    Claim("fig16", "total cores at peak, redy-os - baseline", "(7) burns polling cores",
          lambda p: p["redy-os"].total_cores - p["baseline"].total_cores, above(-2)),
    Claim("fig16", "redy-dds client cores at peak", "(8) polls on the client",
          of("redy-dds", "client_cores"), at_least(1.0)),
    Claim("fig16", "dds-offload host cores at peak", "(9) erases host CPU",
          of("dds-offload", "host_cores"), below(0.05)),
    Claim("fig16", "total cores: dds-offload-rdma, dds-files", "(10) lowest CPU",
          _pair("total_cores", "dds-offload-rdma", "dds-files"), INCREASING),
    Claim("fig16", "p50 at peak, dds-offload-rdma / local-dds", "(10) near-local latency",
          ratio(of("dds-offload-rdma", "p50"), of("local-dds", "p50")), below(2.5)),
)


def run_figure():
    peaks = {}
    rows = []
    for kind in SOLUTIONS:
        peak = find_peak(
            kind,
            start_iops=START[kind],
            total_requests=6000,
            max_outstanding=160,
        )
        peaks[kind] = peak
        rows.append(
            (
                kind,
                kops(peak.achieved_iops),
                cores(peak.total_cores),
                cores(peak.dpu_cores),
                us(peak.p50),
                us(peak.p99),
            )
        )
    emit(
        "fig16",
        "ten solutions: peak IOPS, total CPU, latency at peak",
        ("solution", "peak IOPS", "cpu (cl+srv)", "dpu", "p50", "p99"),
        rows, CLAIMS, peaks,
    )
    return peaks


test_fig16_ten_solutions = bench(run_figure)
