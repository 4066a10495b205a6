"""One measured repetition of one workload, in a process of its own.

``run.py`` launches this file once per repetition, strictly one at a
time.  A fresh process per repetition is the protocol, not a
convenience: bring-up repeated inside one process gets several times
slower and three times larger (the allocator never returns the shard
images), so only a fresh child measures what a user's first run costs.

The child times three phases with ``time.perf_counter()`` around public
calls only — ``setup`` (from the first statement below: imports and
bring-up), ``run`` and ``audit`` — and prints one JSON object.  With
``--profile 1`` each phase runs under cProfile and the spans and the
per-package table are written to ``out/`` as the process exits.
"""

import time


def calibrate(iterations: int = 1_000_000) -> float:
    """The ruler: operations per second of a fixed, engine-free loop.

    This sandbox's speed swings by up to 1.8x for minutes at a time
    (other tenants of the host), far more than any bound.  Every child
    therefore times this loop — dict, list and integer work in roughly
    the proportions of model code, the same loop as
    ``repro.bench.trajectory.calibrate`` but owned by the benchmark, so
    that no change to ``src/`` can move the ruler — just before setup,
    between setup and run, and after run, and reports its host times at
    the reference speed :data:`REFERENCE_OPS_PER_S`.
    """
    table = {}
    acc = 0
    items = []
    start = time.perf_counter()
    for i in range(iterations):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0)
        items.append(i)
        if len(items) > 64:
            items.clear()
    return iterations / (time.perf_counter() - start)


#: A quiet run of this sandbox; host times are scaled to this speed.
REFERENCE_OPS_PER_S = 6.0e6

SPEED_BEFORE_SETUP = calibrate()
T0 = time.perf_counter()  # setup starts here, before any other import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracing import Recorder, bucket_profile, format_trace_table  # noqa: E402


def measure(
    workload: str, seed: int, scale: float = 1.0, profile: bool = False,
    origin: float = None, speed_before_setup: float = None,
) -> dict:
    """Run one workload once and return everything the runner needs.

    ``origin`` is when setup began and ``speed_before_setup`` the ruler
    read just before it (the child passes what it took at its first
    statements; in-process callers — the tests — take both here).
    """
    if speed_before_setup is None:
        speed_before_setup = calibrate()
    rec = Recorder(workload, time.perf_counter() if origin is None else origin,
                   profile)
    with rec.phase("setup", start=rec.origin):
        with rec.span("host.import"):
            import workloads
        instance = workloads.WORKLOADS[workload](seed, scale, rec)
        instance.setup()
    speed_before_run = calibrate()
    with rec.phase("run"):
        instance.run()
    speed_after_run = calibrate()
    with rec.phase("audit"):
        outcome = instance.audit()
    setup_speed = (speed_before_setup + speed_before_run) / 2
    run_speed = (speed_before_run + speed_after_run) / 2

    attempted = outcome["attempted"]
    phases = {name: rec.seconds(name) for name in ("setup", "run", "audit")}
    # Simulated metrics and counts: exact for a seed.
    metrics = dict(outcome["e2e"])
    metrics.update(workloads.derive_ratios(outcome["layers"], attempted))
    metrics["failed_op_share"] = (
        outcome["failed"] + outcome["refused"]
    ) / attempted
    # Host metrics: read off this machine's clock, different every time.
    host = {
        # The two with a bound, at the reference machine speed.
        "setup_s": phases["setup"] * setup_speed / REFERENCE_OPS_PER_S,
        "host_us_per_op": (
            phases["run"] / attempted * 1e6 * run_speed / REFERENCE_OPS_PER_S
        ),
        # The rest is raw wall time, with the ruler beside it.
        "host.calibration_ops_per_s": run_speed,
        "host.setup_s": phases["setup"],
        "host.run_s": phases["run"],
        "host.audit_s": phases["audit"],
        "host.import_s": rec.seconds("host.import"),
        "storage.preallocate_s": rec.seconds("storage.preallocate"),
        "topology.server_init_s": sum(
            rec.seconds(name) for name in (
                "topology.server_init", "topology.enable_resilience",
                "topology.enable_replication", "topology.enable_qos",
            )
        ),
        "faults.audit_s": rec.seconds("faults.check"),
    }
    own = rec.self_seconds()
    for span in rec.spans:
        span["self_s"] = own[span["id"]]
    result = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "attempted": attempted,
        "failed": outcome["failed"],
        "refused": outcome["refused"],
        "problems": instance.problems,
        "metrics": metrics,
        "host": host,
        "spans": rec.spans,
    }
    if profile:
        result["profile"] = {
            name: bucket_profile(profiler)
            for name, profiler in rec.profiles.items()
        }
        result["phase_seconds"] = phases
    return result


def write_trace(result: dict) -> None:
    """Spans and the per-package table, written once, at exit."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = result["workload"]
    with open(os.path.join(OUT_DIR, f"trace_{workload}.json"), "w") as handle:
        json.dump(
            {"workload": workload, "seed": result["seed"],
             "spans": result["spans"], "profile": result["profile"]},
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")
    with open(os.path.join(OUT_DIR, f"trace_{workload}.txt"), "w") as handle:
        handle.write(format_trace_table(
            workload, result["profile"], result["phase_seconds"]
        ))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--probes", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--profile", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.probes:
        import probes

        result = {"metrics": probes.run_all()}
    else:
        result = measure(
            args.workload, args.seed, args.scale, bool(args.profile),
            origin=T0, speed_before_setup=SPEED_BEFORE_SETUP,
        )
        if args.profile:
            write_trace(result)
        # Peak resident set of this child: what the run cost in memory.
        result["host"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
