#!/usr/bin/env python
"""Flash crowd elasticity: live resharding driven by the autoscaler.

A two-shard DDS deployment takes a traffic burst far above its
comfort zone.  The load-driven :class:`ShardAutoscaler` watches the
per-shard request counters, grows the cluster to four shards — each
add migrates the moved files through the relay fabric while their
sources keep serving, then flips ownership atomically — and once the
crowd leaves, drains the extra shards back out.  The tables at the end
show every scaling decision, each migration's copy-plane throughput,
and what the elasticity cost in client throughput while it happened.

Run:  python examples/resharding_demo.py
"""

from repro.bench.harness import (
    AckTimeline,
    build_cluster,
    drain_until,
    drive_striped,
)
from repro.sim.stats import rate
from repro.topology.resharding import ShardAutoscaler

BURST_IOPS = 150_000  # moderate crowd: the copy plane keeps headroom
BURST_REQUESTS = 9_000  # ~60 ms — long enough for two adds to converge


def main() -> None:
    cluster = build_cluster(shards=2, files=16, file_bytes=64 << 10)
    env, server = cluster.env, cluster.server
    server.enable_resilience()
    resharder = server.enable_resharding()
    scaler = ShardAutoscaler(
        env,
        server,
        high_water_iops=50e3,  # per shard — the crowd blows past this
        low_water_iops=25e3,
        interval=1e-3,
        min_shards=2,
        max_shards=4,
        cooldown=2,
    )
    scaler.start()
    timeline = AckTimeline(env)
    print(
        f"Flash crowd: {BURST_IOPS // 1000}K IOPS offered at a "
        f"2-shard deployment (autoscaler 2..4 shards)\n"
    )
    result = drive_striped(
        cluster, offered_iops=BURST_IOPS, total_requests=BURST_REQUESTS,
        seed=29, write_every=4, observer=timeline,
    )
    # Post-crowd idle ticks: per-shard rates fall below the low water
    # and the scaler drains its own additions back out.
    drain_until(
        env, lambda: [s.index for s in server.live_shards] == [0, 1], 300
    )
    scaler.stop()
    acks = [stamp for stamp, _file_id in timeline.acks]

    print("scaling decisions")
    print(f"{'time':>9s}  {'live':>4s}  action")
    for decision in scaler.decisions:
        if decision["action"] is None:
            continue
        print(
            f"{decision['time'] * 1e3:7.2f}ms  {decision['live']:4d}  "
            f"{decision['action']}"
        )

    print("\nmigrations (copy plane)")
    print(
        f"{'op':10s} {'files':>5s} {'KiB':>7s} {'duration':>9s} "
        f"{'rate':>9s}"
    )
    for record in resharder.history:
        span = record["end"] - record["start"]
        mb_s = record["bytes"] / span / 1e6 if span > 0 else 0.0
        print(
            f"{record['kind']:10s} {len(record['files']):5d} "
            f"{record['bytes'] >> 10:7d} {span * 1e3:7.2f}ms "
            f"{mb_s:6.1f}MB/s"
        )

    print("\ncost curve (client throughput per phase)")
    # Phases cover the crowd's lifetime only — the post-crowd drains
    # run against an idle cluster and have no client cost to measure.
    last_ack = max(acks)
    phases = []
    cursor, gap_label = 0.0, "steady"
    for record in resharder.history:
        start = min(record["start"], last_ack)
        end = min(record["end"], last_ack)
        if start > cursor:
            phases.append((cursor, start, gap_label))
        if end > start:
            phases.append((start, end, record["kind"]))
        cursor, gap_label = max(cursor, end), "between"
    if last_ack > cursor:
        phases.append((cursor, last_ack, gap_label))
    print(f"{'phase':10s} {'window':>19s} {'achieved':>10s}")
    for start, end, label in phases:
        print(
            f"{label:10s} {start * 1e3:7.2f}-{end * 1e3:7.2f}ms "
            f"{rate(acks, start, end) / 1e3:8.1f}K"
        )

    print(
        f"\n{len(result.latencies)} requests, "
        f"{result.failed_requests} failed, "
        f"{resharder.files_moved} file moves, "
        f"{resharder.dirty_recopies} dirty re-copies, "
        f"{server.shard_map.pinned_files} leftover pins; "
        f"back to shards {[s.index for s in server.live_shards]}"
    )


if __name__ == "__main__":
    main()
