"""The exact result trajectory (``BENCH_<name>.json``).

This module runs seven pinned workloads — the Figure 16 peak-throughput
sweep (``fig16``), the 4-shard scale-out run (``scaleout``), the chaos
shard-kill recovery (``chaos``), the replicated-failover run
(``replication``: replication tax + availability curve), the live
add→drain reshard (``resharding``), the verified-pushdown placement
sweep (``pushdown``) and the open-loop overload study (``overload``) —
and keeps, per workload and mode, only what the simulation determines:
the same commit gives the same record on any machine, under any
``PYTHONHASHSEED``.  The cluster workloads :func:`~repro.bench.harness.run`
the scenario kit's :class:`~repro.bench.harness.Scenario` values (the
ones the tests, benchmarks and examples run) and only shape the
``detail`` dict here.

The gate is exact: regenerating a committed record is a no-op
(``git diff --exit-code -- 'BENCH_*.json'``, which CI runs for both
modes, and ``tests/test_bench_scenarios.py`` for smoke), so a change
that moves a field commits the new record and says why.  Nothing timed
is recorded here; host time belongs to ``benchmarks/e2e``.

Record fields (``BENCH_<name>.json`` holds one entry per mode)
-------------------------------------------------------------
``events``
    :attr:`~repro.sim.engine.Environment.scheduled_count` summed over
    every simulation the workload runs.  Each schedule operation
    consumes exactly one sequence number, so the count moves only when
    the models schedule something different (idle-poll elision,
    DESIGN.md §11, lowered it everywhere).
``peak_iops``
    The workload's figure-level result, rounded to 0.1.
``detail``
    The workload's own result table (see each ``_run_*`` docstring).

Usage
-----
::

    python -m repro.bench.trajectory                # full entries, in place
    python -m repro.bench.trajectory --mode smoke --only chaos,overload
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..faults import ShardKill
from ..sim.stats import percentile, rate
from .harness import (
    ELASTIC,
    OVERLOAD,
    OVERLOAD_CAPACITY,
    SCALEOUT,
    SHARD_KILL,
    ack_buckets,
    find_peak,
    run,
)

__all__ = ["WORKLOADS", "run_workload", "write_bench", "load_bench", "main"]

#: Repository root (…/src/repro/bench/trajectory.py -> three parents up).
REPO_ROOT = Path(__file__).resolve().parents[3]

#: Smoke runs must stay within a CI-friendly budget; full runs match the
#: committed benchmark figures' scale.
_SCALES = ("smoke", "full")

#: The shard-kill deployment at a saturating 1.2M offered IOPS, with no
#: audit: the chaos and replication-tax records are of the workload alone.
_SATURATED = replace(
    SHARD_KILL, offered_iops=1.2e6, connections=8, max_outstanding=160,
    audit=False,
)


# ----------------------------------------------------------------------
# pinned workloads
# ----------------------------------------------------------------------
def _run_fig16(mode: str) -> dict:
    """The Figure 16 ten-solution peak-throughput sweep (reduced: three
    representative solutions spanning the chart's range)."""
    if mode == "full":
        kinds = [
            "baseline",
            "smb-direct",
            "redy-dds",
            "dds-files",
            "dds-offload",
            "dds-offload-rdma",
        ]
        total_requests = 6000
    else:
        kinds = ["baseline", "dds-offload"]
        total_requests = 1500
    start = {"dds-offload": 200_000.0}
    events = 0
    peaks = {}

    def tally(result):
        nonlocal events
        events += result.events

    for kind in kinds:
        peak = find_peak(
            kind,
            start_iops=start.get(kind, 100_000.0),
            total_requests=total_requests,
            max_outstanding=160,
            on_result=tally,
        )
        peaks[kind] = peak.achieved_iops
    return {
        "events": events,
        "peak_iops": max(peaks.values()),
        "detail": {"peaks": peaks, "total_requests": total_requests},
    }


def _run_scaleout(mode: str) -> dict:
    """Directed reads against a consistent-hash 4-shard deployment."""
    total_requests = 12_000 if mode == "full" else 3000
    done = run(replace(SCALEOUT, total_requests=total_requests))
    return {
        "events": done.env.scheduled_count,
        "peak_iops": done.result.achieved_iops,
        "detail": {
            "shards": 4,
            "total_requests": total_requests,
            "p99_us": done.result.p99 * 1e6,
        },
    }


def _run_chaos(mode: str) -> dict:
    """Shard-kill recovery: a 4-shard run with one shard dark mid-run."""
    total_requests = 4800 if mode == "full" else 1200
    # Halfway through the offered window (2 ms in full mode), so the
    # kill lands on live traffic in both modes.
    kill = ShardKill(at=0.5 * total_requests / 1.2e6, down_for=3e-3, shard=1)
    done = run(replace(
        _SATURATED, total_requests=total_requests, faults=(kill,)
    ))
    result = done.result
    return {
        "events": done.env.scheduled_count,
        "peak_iops": result.achieved_iops,
        "detail": {
            "total_requests": total_requests,
            "retries": result.retries,
            "failed_requests": result.failed_requests,
        },
    }


def _run_replication(mode: str) -> dict:
    """Replicated shard groups: the replication tax and the failover.

    Two measurements in one record:

    * **tax** — the same write-heavy no-fault workload against a plain
      4-shard deployment and a replicated one; the peak-IOPS ratio is
      the price of the synchronous quorum hop on every write.
    * **failover** — the replicated deployment takes the chaos
      shard-kill; the detail records dead-keyspace acks per half-ms of
      the outage (``zero_dark_window`` says none of them was silent)
      and the runtime invariant checker's verdict.
    """
    tax_requests = 6000 if mode == "full" else 1500
    # Fault-free and write-heavy (the tax is per write), on the
    # loss-free client.
    tax = replace(
        _SATURATED, seed=7, total_requests=tax_requests, write_every=2,
        retrying=False, resilience=False, faults=(),
    )
    events = 0
    tax_iops = {}
    for variant in ("plain", "replicated"):
        done = run(replace(tax, replicated=variant == "replicated"))
        tax_iops[variant] = done.result.achieved_iops
        events += done.env.scheduled_count

    # 400k offered IOPS for 2400 requests keeps load on the wire for
    # 6 ms — past the end of the 2–5 ms outage in both modes, so the
    # availability curve is fully populated.
    failover = run(replace(SHARD_KILL, write_every=2, replicated=True))
    events += failover.env.scheduled_count

    (kill,) = SHARD_KILL.faults
    dead_acks = ack_buckets(
        failover.acks, failover.files_on(kill.shard), kill.at,
        kill.at + kill.down_for,
    )
    replicator = failover.server.replicator
    plain, replicated = tax_iops["plain"], tax_iops["replicated"]
    return {
        "events": events,
        "peak_iops": replicated,
        "detail": {
            "tax": {
                "plain_iops": round(plain, 1),
                "replicated_iops": round(replicated, 1),
                "tax_pct": round(100.0 * (1.0 - replicated / plain), 2),
                "total_requests": tax_requests,
            },
            "failover": {
                "dead_acks_per_half_ms": dead_acks,
                "zero_dark_window": all(c > 0 for c in dead_acks),
                "violations": len(failover.checker.violations),
                "report_ok": failover.report.ok,
                "failed_requests": failover.result.failed_requests,
                "handoffs": replicator.handoffs,
                "solo_acks": replicator.solo_acks,
                "mirrored_writes": replicator.mirrored_writes,
                "catchup_replays": replicator.catchup_replays,
            },
        },
    }


def _run_resharding(mode: str) -> dict:
    """Elastic resharding under load: grow 2→3, drain back, stay live.

    Three measurements in one record:

    * **migration** — bytes/sec through the relay+copy plane for the
      add and the drain migration, with dirty-recopy counts;
    * **dark window** — moved-file acks bucketed per half-ms across
      each migration window; ``zero_dark_window`` says every bucket in
      which traffic was still offered saw at least one ack, i.e. no
      file ever went silent around its cutover;
    * **cost curve** — achieved IOPS per phase (steady / add-migration
      / drain-migration / post) plus a no-reshard control run of the
      same workload; ``reshard_tax_pct`` is the end-to-end throughput
      price of performing both topology changes under load.
    """
    # Smoke must still be offering load when the drain starts (the add
    # takes ~24 ms under load): 4500 requests leave ~4 ms of drain to
    # bucket.  ``tests/test_bench_scenarios.py`` guards the overlap.
    total_requests = 6000 if mode == "full" else 4500

    # The control: the identical workload on the fixed 2-shard topology.
    elastic = replace(ELASTIC, total_requests=total_requests)
    control = run(replace(elastic, membership=(), audit=False))
    reshard = run(elastic)
    events = control.env.scheduled_count + reshard.env.scheduled_count
    control_iops = control.result.achieved_iops

    resharder = reshard.server.resharder
    acks = reshard.acks
    stamps = [stamp for stamp, _ in acks]
    reshard_iops = reshard.result.achieved_iops
    last_ack = max(stamps)

    migrations = []
    dark_free = True
    for record in resharder.history:
        span = record["end"] - record["start"]
        # Only buckets where traffic was still offered can demand an ack.
        buckets = ack_buckets(
            acks, record["files"], record["start"],
            min(record["end"], last_ack),
        )
        dark_free = dark_free and all(count > 0 for count in buckets)
        migrations.append({
            "kind": record["kind"],
            "files": len(record["files"]),
            "bytes": record["bytes"],
            "duration_ms": round(span * 1e3, 3),
            "throughput_mb_s": round(
                record["bytes"] / span / 1e6, 2
            ) if span > 0 else 0.0,
            "moved_acks_per_half_ms": buckets,
        })

    # Phase cost curve: achieved IOPS inside each timeline segment.
    add_rec = resharder.history[0]
    drain_rec = resharder.history[1]
    boundaries = [
        ("steady", 0.0, add_rec["start"]),
        ("add_migration", add_rec["start"], add_rec["end"]),
        ("between", add_rec["end"], drain_rec["start"]),
        ("drain_migration", drain_rec["start"], min(drain_rec["end"], last_ack)),
        ("post", min(drain_rec["end"], last_ack), last_ack),
    ]
    phases = [
        {
            "phase": name,
            "duration_ms": round((end - start) * 1e3, 3),
            "achieved_iops": round(rate(stamps, start, end), 1),
        }
        for name, start, end in boundaries
        if end > start
    ]

    return {
        "events": events,
        "peak_iops": reshard_iops,
        "detail": {
            "control_iops": round(control_iops, 1),
            "reshard_iops": round(reshard_iops, 1),
            "reshard_tax_pct": round(
                100.0 * (1.0 - reshard_iops / control_iops), 2
            ),
            "zero_dark_window": dark_free,
            "migrations": migrations,
            "cost_curve": phases,
            "files_moved": resharder.files_moved,
            "bytes_copied": resharder.bytes_copied,
            "dirty_recopies": resharder.dirty_recopies,
            "cutovers": resharder.cutovers,
            "leftover_pins": reshard.server.shard_map.pinned_files,
            "violations": len(reshard.checker.violations),
            "report_ok": reshard.report.ok,
            "failed_requests": reshard.result.failed_requests,
            "total_requests": total_requests,
        },
    }


def _run_pushdown(mode: str) -> dict:
    """Verified-pushdown placement sweep: operator pipelines × placements.

    Every cell runs the *same verified bytecode* through the
    :class:`~repro.pushdown.engine.PushdownEngine` — only where it
    executes changes: the client host core (``ship-all``), the DPU Arm
    cores (``dpu-software``), or the RXP accelerator with the software
    engine handling non-regex stages over the survivors (``dpu-accel``).
    The detail records, per cell, the simulated scan time, bytes on the
    wire, and DPU/client core busy-seconds — the paper's pushdown story
    is the wire-bytes and client-core columns collapsing as operators
    move device-side.  Every cell cross-checks rows and (where the
    pipeline aggregates) the accumulator registers against the table's
    ground truth (:func:`~repro.pushdown.scan.run_pipeline_experiment`
    raises ``RuntimeError`` on a mismatch, also under ``python -O``), so
    a perf figure can never come from a wrong answer.
    """
    from ..pushdown.scan import PIPELINES, PLACEMENTS, run_pipeline_experiment

    pages = 64 if mode == "full" else 12
    selectivity = 0.05

    events = 0
    cells: Dict[str, dict] = {}
    best_records_per_sec = 0.0
    for pipeline_name in PIPELINES:
        for placement in PLACEMENTS:
            result = run_pipeline_experiment(
                placement, pipeline_name, pages=pages, selectivity=selectivity
            )
            events += result.events
            records = pages * 64  # RECORDS_PER_PAGE
            best_records_per_sec = max(
                best_records_per_sec, records / result.scan_seconds
            )
            cells[f"{pipeline_name}/{placement}"] = {
                "scan_ms": round(result.scan_seconds * 1e3, 4),
                "rows": result.rows,
                "wire_bytes": result.wire_bytes,
                "dpu_core_ms": round(result.dpu_core_seconds * 1e3, 4),
                "client_core_ms": round(result.client_core_seconds * 1e3, 4),
            }

    ship = cells["filter-project-agg/ship-all"]["wire_bytes"]
    accel = cells["filter-project-agg/dpu-accel"]["wire_bytes"]
    return {
        "events": events,
        "peak_iops": best_records_per_sec,
        "detail": {
            "pages": pages,
            "selectivity": selectivity,
            "wire_reduction_agg": round(ship / accel, 1),
            "cells": cells,
        },
    }


def _run_overload(mode: str) -> dict:
    """Graceful degradation under open-loop overload (DESIGN §15).

    Two measurements against the same capacity-limited deployment (one
    shard, 64 KiB reads — the SSD/link path saturates at ~52K IOPS, so
    overload is affordable to simulate):

    * **goodput-vs-offered curve** — an open-loop tenant population
      sweeps multiples of capacity twice: OFF (stock 8-attempt retries,
      no dedup, no QoS — the metastable configuration) and ON (dedup +
      retry budget + the tenant QoS gate).  The OFF curve *collapses*
      past saturation — retries amplify offered load and goodput falls
      as demand rises — while the ON curve stays flat at the admission
      cap.  The acceptance bar: ON goodput at 2x capacity >= 80% of ON
      peak.
    * **flash crowd** — a 5x spike for 6 ms over a 0.8x-capacity base
      load.  The detail records goodput before / during / after and
      ``recovery`` (post-crowd goodput over the pre-crowd demand).  OFF
      stays collapsed long after the crowd ends (the metastable
      signature); ON must recover to >= 95%.
    """
    capacity = OVERLOAD_CAPACITY
    if mode == "full":
        multipliers = (0.5, 1.0, 1.5, 2.0, 3.0)
        horizon = 15e-3
        flash_horizon = 30e-3
    else:
        multipliers = (1.0, 2.0)
        horizon = 8e-3
        flash_horizon = 22e-3
    (crowd,) = OVERLOAD.crowd
    crowd_start, crowd_len = crowd.start, crowd.duration

    def class_p99_ms(result):
        merged = {}
        for name, outcome in result.tenants.items():
            merged.setdefault(name.split("-")[0], []).extend(
                outcome.latencies
            )
        return {
            klass: round(percentile(sorted(latencies), 99) * 1e3, 3)
            for klass, latencies in sorted(merged.items())
        }

    events = 0
    curve = {"off": [], "on": []}
    class_p99 = {}
    for defenses, key in ((False, "off"), (True, "on")):
        for mult in multipliers:
            done = run(replace(
                OVERLOAD, offered_iops=mult * capacity, horizon=horizon,
                crowd=(), defended=defenses,
            ))
            events += done.env.scheduled_count
            result, gate = done.result, done.server.qos
            shed = gate.totals.shed if gate is not None else 0
            curve[key].append({
                "multiplier": mult,
                "offered_iops": round(mult * capacity, 1),
                "goodput_iops": round(result.acked / horizon, 1),
                "p99_ms": round(result.p99 * 1e3, 3),
                "retries": result.retries,
                "shed_rate": round(shed / max(1, result.offered), 4),
                "amplification": round(result.amplification, 3),
            })
            if defenses and mult == 2.0:
                class_p99 = class_p99_ms(result)

    base_rate = OVERLOAD.offered_iops
    flash = {}
    for defenses, key in ((False, "off"), (True, "on")):
        done = run(replace(
            OVERLOAD, horizon=flash_horizon, defended=defenses
        ))
        events += done.env.scheduled_count
        result = done.result
        pre = rate(result.ack_times, 2e-3, crowd_start)
        during = rate(result.ack_times, crowd_start, crowd_start + crowd_len)
        post = rate(
            result.ack_times, crowd_start + crowd_len + 4e-3, flash_horizon
        )
        flash[key] = {
            "pre_iops": round(pre, 1),
            "during_iops": round(during, 1),
            "post_iops": round(post, 1),
            # Post-crowd goodput over pre-crowd *demand*: the demand
            # denominator keeps a lucky Poisson draw in the short pre
            # window from skewing the ratio.
            "recovery": round(post / min(pre, base_rate), 3),
            "p99_ms": round(result.p99 * 1e3, 3),
            "retries": result.retries,
        }

    on_peak = max(point["goodput_iops"] for point in curve["on"])
    on_at_2x = next(
        point["goodput_iops"]
        for point in curve["on"] if point["multiplier"] == 2.0
    )
    off_floor = min(
        point["goodput_iops"]
        for point in curve["off"] if point["multiplier"] >= 2.0
    )
    return {
        "events": events,
        "peak_iops": on_peak,
        "detail": {
            "capacity_iops": capacity,
            "io_size": 64 << 10,
            "shards": 1,
            "horizon_ms": round(horizon * 1e3, 1),
            "curve": curve,
            "on_goodput_2x_pct_of_peak": round(
                100.0 * on_at_2x / on_peak, 1
            ),
            "off_collapse_pct_of_peak": round(
                100.0 * off_floor
                / max(p["goodput_iops"] for p in curve["off"]),
                1,
            ),
            "tenant_class_p99_ms_at_2x": class_p99,
            "flash_crowd": flash,
        },
    }


WORKLOADS: Dict[str, Callable[[str], dict]] = {
    "fig16": _run_fig16,
    "scaleout": _run_scaleout,
    "chaos": _run_chaos,
    "replication": _run_replication,
    "resharding": _run_resharding,
    "pushdown": _run_pushdown,
    "overload": _run_overload,
}


# ----------------------------------------------------------------------
# record plumbing
# ----------------------------------------------------------------------
def run_workload(name: str, mode: str = "full") -> dict:
    """Run one pinned workload; return its entry for ``mode``."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}")
    if mode not in _SCALES:
        raise ValueError(f"mode must be one of {_SCALES}")
    entry = WORKLOADS[name](mode)
    entry["peak_iops"] = round(entry["peak_iops"], 1)
    return entry


def load_bench(name: str, directory: Path = REPO_ROOT) -> Optional[dict]:
    """The record in ``<directory>/BENCH_<name>.json``, if there is one."""
    path = directory / f"BENCH_{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def write_bench(
    name: str, mode: str, entry: dict, directory: Path = REPO_ROOT
) -> Path:
    """Set ``mode``'s entry of ``<directory>/BENCH_<name>.json``.

    The other mode's entry is carried over as it stands (JSON floats
    round-trip exactly), so regenerating one mode never touches the
    other's bytes.
    """
    old = load_bench(name, directory) or {}
    record = {key: old[key] for key in _SCALES if key in old}
    record.update({"schema": 2, "name": name, mode: entry})
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def _selection(text: str) -> List[str]:
    """``--only``: a non-empty comma-separated subset of the workloads."""
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names or any(name not in WORKLOADS for name in names):
        raise argparse.ArgumentTypeError(
            f"{text!r}: expected one or more of {', '.join(WORKLOADS)} "
            "(comma-separated)"
        )
    return names


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.trajectory",
        description="Regenerate the pinned workloads' BENCH_<name>.json "
        "entries in place; `git diff` is the regression check.",
    )
    parser.add_argument(
        "--mode", choices=_SCALES, default="full",
        help="which entry to regenerate (smoke keeps CI fast)",
    )
    parser.add_argument(
        "--only", type=_selection, default=list(WORKLOADS),
        help="comma-separated subset of workloads "
        f"(default: all of {', '.join(WORKLOADS)})",
    )
    args = parser.parse_args(argv)

    for name in args.only:
        start = time.perf_counter()
        entry = run_workload(name, mode=args.mode)
        wall = time.perf_counter() - start  # printed, never recorded
        path = write_bench(name, args.mode, entry)
        print(
            f"{name} [{args.mode}]: {entry['events']} events, "
            f"peak {entry['peak_iops']:.0f} IOPS ({wall:.2f}s) -> {path}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
