#!/usr/bin/env python
"""Integrating DDS into a disaggregated KV service (§9.2).

A FASTER-like store keeps hot records on its in-memory hybrid-log tail
and most records on SSD behind the IDevice abstraction.  With DDS, the
IDevice is reimplemented over the DDS file library (the paper's ~360
lines), and cache-on-write indexes every flushed record's location so
the DPU can serve GETs for on-disk keys without the host.

The script shows (a) correct values served from both the DPU and host
paths, and (b) the Figure 25/26 effect: ~1M op/s with near-zero host
CPU versus the socket + OS-file baseline.

Run:  python examples/kv_store_offload.py
"""

from repro.apps import build_kv_cluster, run_kv_experiment
from repro.apps.faster import RECORD
from repro.core import IoRequest, OpCode
from repro.net import FiveTuple


def demonstrate_paths() -> None:
    print("-- where a GET is served --")
    cluster = build_kv_cluster("dds", records=100_000)
    flow = FiveTuple("10.0.0.9", 888, "10.0.0.1", 5000)
    cases = [
        (42, "old record, flushed to SSD"),
        (99_999, "hot record, still on the in-memory tail"),
    ]
    for request_id, (key, description) in enumerate(cases, start=1):
        request = IoRequest(
            OpCode.READ, request_id, cluster.kv_file_id, 0, RECORD.size,
            tag=key,
        )
        responses = []
        done = cluster.server.submit(flow, [request], responses.append)
        cluster.env.run(until=done)
        got_key, got_value = RECORD.unpack(responses[0].data)
        assert (got_key, got_value) == (key, key)
    director = cluster.server.shards[0].director
    print(
        f"served {director.requests_offloaded} GET from the DPU "
        f"(cache-table hit) and {director.requests_to_host} from the host "
        "(in-memory tail)\n"
    )


def compare_deployments() -> None:
    print("-- YCSB uniform reads (8 B keys / 8 B values) --")
    print(
        f"{'deployment':10s} {'op/s':>9s} {'p50':>8s} {'p99':>8s} "
        f"{'host cores':>11s}"
    )
    for kind, offered, batch in (
        ("baseline", 400_000, 1),
        ("dds", 1_000_000, 4),
    ):
        result = run_kv_experiment(
            kind, offered, total_requests=6000, batch=batch
        )
        print(
            f"{kind:10s} {result.achieved / 1e3:7.1f}K "
            f"{result.p50 * 1e6:6.0f}us {result.p99 * 1e6:6.0f}us "
            f"{result.host_cores:11.2f}"
        )


if __name__ == "__main__":
    demonstrate_paths()
    compare_deployments()
