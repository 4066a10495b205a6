#!/usr/bin/env python
"""Integrating DDS into a cloud DBMS page server (§9.1).

A Hyperscale-like page server stores an RBPEX file of 8 KiB pages,
replays log records onto them, and answers GetPage@LSN requests from
compute servers.  The DDS integration is the four Table 1 callbacks in
``repro.apps.pageserver.pageserver_callbacks``:

* cache-on-write parses each written page's (LSN, page id) header;
* invalidate-on-read drops entries for pages being replayed;
* the offload predicate serves a request from the DPU iff the cached
  LSN is fresh enough;
* the offload function builds the RBPEX read from the cached offset.

This script runs both deployments under replay traffic and shows the
offload rate, freshness behaviour, and the latency/CPU gap.

Run:  python examples/page_server_offload.py
"""

from repro.apps import (
    PAGE_BYTES,
    build_pageserver_cluster,
    parse_page_header,
    run_pageserver_experiment,
)
from repro.core import IoRequest, OpCode
from repro.net import FiveTuple


def demonstrate_freshness() -> None:
    """One request for a page that is *behind* the requested LSN."""
    print("-- GetPage@LSN semantics --")
    cluster = build_pageserver_cluster("dds", pages=512, replay_rate=50_000)
    flow = FiveTuple("10.0.0.9", 777, "10.0.0.1", 5000)
    # Ask for page 3 at LSN 5: the page starts at LSN 0, so the DPU's
    # cached entry is stale and the request diverts to the host, which
    # waits for replay to catch up before answering.
    request = IoRequest(
        OpCode.READ, 1, cluster.rbpex_file_id, 3 * PAGE_BYTES, PAGE_BYTES,
        tag=5,
    )
    responses = []
    done = cluster.server.submit(flow, [request], responses.append)
    cluster.env.run(until=done)
    lsn, page_id = parse_page_header(responses[0].data)
    print(
        f"requested page 3 @ LSN>=5 -> served page {page_id} at LSN {lsn} "
        f"(host path: {cluster.server.shards[0].director.requests_to_host} "
        "request)"
    )
    print()


def compare_deployments() -> None:
    print("-- page serving under replay (GetPage@LSN, 8 KiB pages) --")
    print(
        f"{'deployment':10s} {'pages/s':>9s} {'p99':>9s} "
        f"{'host cores':>11s} {'offloaded':>10s}"
    )
    for kind, offered in (("baseline", 110_000), ("dds", 200_000)):
        result = run_pageserver_experiment(
            kind, offered, total_requests=5000
        )
        print(
            f"{kind:10s} {result.achieved / 1e3:7.1f}K "
            f"{result.p99 * 1e6:7.0f}us {result.host_cores:11.2f} "
            f"{result.offloaded_fraction * 100:9.1f}%"
        )
    print()
    print("Figure 2's cost story (baseline CPU breakdown at ~110K pages/s):")
    result = run_pageserver_experiment("baseline", 110_000,
                                       total_requests=4000)
    for component, value in result.breakdown.items():
        print(f"  {component:14s} {value:5.2f} cores")


if __name__ == "__main__":
    demonstrate_freshness()
    compare_deployments()
