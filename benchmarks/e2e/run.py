"""The repository's benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py --seed 1                 # all five workloads
    python3 benchmarks/e2e/run.py --seed 1 --trace 1       # the per-layer pass
    python3 benchmarks/e2e/run.py --workload offload_read --seed 3 \
        --seconds 12 --trace 0                             # what the driver runs
    python3 benchmarks/e2e/run.py --selfcheck              # two sets must agree

Two clocks.  *Simulated* metrics (``sim_*``, counts) are what the
modelled DPU, host and SSD would do; the simulation is deterministic, so
they repeat exactly for a seed and the runner checks that they do.
*Host* metrics are what the simulator costs whoever runs it; they are
noisy and reported as medians over repetitions.  The two with a bound
(``setup_s``, ``host_us_per_op``) are scaled to a reference machine speed
by a ruler each child times beside its phases (see ``child.calibrate``):
this sandbox's speed swings 1.8x for minutes at a time.

Protocol.  This parent is single-threaded and launches one fresh child
process per repetition (``child.py``), strictly one at a time, until
``--seconds`` have passed.  A small discarded warm-up child comes first
(it compiles bytecode and warms the page cache, and fails fast if the
program does not import).  ``--trace 0`` reports the end-to-end metrics
from untraced children.  ``--trace 1`` alternates untraced and profiled
children, adds the probes, and reports the per-layer metrics; end-to-end
numbers never come from a profiled child.

With ``--workload`` the last line of standard output is the one JSON
object the benchmark contract asks for.  The exit code is non-zero when
any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
CHILD = os.path.join(HERE, "child.py")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: End-to-end metrics read off the host's clock or memory.  ``--selfcheck``
#: lets two sets of the same code and seed differ on these by the metric's
#: declared bound; every other metric is simulated and must be identical.
HOST_END_TO_END = ("setup_s", "host_us_per_op", "peak_rss_mb")

WARMUP_SCALE = 0.05
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def run_child(*args: str) -> dict:
    """Launch one child, wait for it, and parse its one JSON line."""
    completed = subprocess.run(
        [sys.executable, CHILD, *args], cwd=ROOT, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise ChildFailed(
            f"child {' '.join(args)} exited {completed.returncode}:\n"
            f"{completed.stderr.strip()}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def run_workload_child(
    workload: str, seed: int, scale: float = 1.0, profile: bool = False
) -> dict:
    return run_child(
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--profile", str(int(profile)),
    )


def summarize(samples: List[float]) -> dict:
    """Median, minimum and quartiles of a metric's samples."""
    if len(samples) > 1:
        q1, _q2, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "median": statistics.median(samples), "min": min(samples),
        "q1": q1, "q3": q3, "n": len(samples), "samples": samples,
    }


def same_seed_disagreements(children: List[dict]) -> List[str]:
    """Simulated metrics that differed between same-seed children."""
    first = children[0]["metrics"]
    return [
        f"{child['workload']}: {name} is not deterministic "
        f"({first.get(name)!r} then {value!r} for one seed)"
        for child in children[1:]
        for name, value in child["metrics"].items()
        if first.get(name) != value
    ]


def collect(children: List[dict], names: Iterable[str]) -> Dict[str, dict]:
    """Per-metric summaries: a median over the children for host
    metrics, the (checked identical) value for simulated ones.  A
    counter this workload never touched reads 0: the layer did no such
    work."""
    out = {}
    for name in names:
        if name in children[0]["host"]:
            samples = [child["host"][name] for child in children]
        else:
            samples = [children[0]["metrics"].get(name, 0.0)]
        out[name] = summarize([float(sample) for sample in samples])
    return out


def pass_result(
    workload: str, metrics: Dict[str, dict], counted: List[dict],
    checked: List[dict],
) -> dict:
    """What a pass reports: ``counted`` children give the operation
    counts and the ruler, ``checked`` ones are audited for problems."""
    problems = same_seed_disagreements(checked)
    for child in checked:
        problems.extend(child["problems"])
    return {
        "workload": workload,
        "metrics": metrics,
        "attempted": sum(child["attempted"] for child in counted),
        "failed": sum(child["failed"] for child in counted),
        "problems": problems,
        "calibration_ops_per_s": statistics.median(
            child["host"]["host.calibration_ops_per_s"] for child in counted
        ),
    }


# ----------------------------------------------------------------------
# the two passes
# ----------------------------------------------------------------------
def end_to_end_pass(workload: str, seed: int, seconds: float, spec: dict) -> dict:
    """Untraced children, one at a time, until ``seconds`` have passed."""
    run_workload_child(workload, seed, scale=WARMUP_SCALE)  # discarded
    children = []
    started = time.perf_counter()
    while not children or time.perf_counter() - started < seconds:
        children.append(run_workload_child(workload, seed))
    metrics = collect(children, [m["name"] for m in spec["end_to_end"]])
    return pass_result(workload, metrics, children, children)


def layer_pass(
    workload: str, seed: int, seconds: float, spec: dict, probes: dict,
    loadavg: float,
) -> dict:
    """Alternate untraced and profiled children; report the layers."""
    run_workload_child(workload, seed, scale=WARMUP_SCALE)  # discarded
    plain, traced = [], []
    started = time.perf_counter()
    while not plain or time.perf_counter() - started < seconds:
        plain.append(run_workload_child(workload, seed))
        traced.append(run_workload_child(workload, seed, profile=True))
    metrics = collect(plain, [m["name"] for m in spec["per_layer"]])
    run_s = metrics["host.run_s"]["median"]
    traced_run_s = statistics.median(c["host"]["host.run_s"] for c in traced)
    single = {
        **probes,
        "host.loadavg_1m": loadavg,
        "sim.events_per_s": metrics["sim.events"]["median"] / run_s,
        "trace_overhead_ratio": traced_run_s / run_s,
    }
    for name, value in single.items():
        metrics[name] = summarize([value])
    profiles = [child["profile"] for child in traced]
    for bucket, row in profiles[0]["run"].items():
        metrics[f"{bucket}.self_s"] = summarize(
            [profile["run"][bucket]["self_s"] for profile in profiles]
        )
        metrics[f"{bucket}.calls"] = summarize([float(row["calls"])])
    metrics["storage.setup_self_s"] = summarize(
        [profile["setup"]["storage"]["self_s"] for profile in profiles]
    )
    return pass_result(workload, metrics, plain, plain + traced)


def run_set(
    workloads: List[str], seed: int, seconds: float, trace: bool, spec: dict
) -> dict:
    """One full set: every selected workload, one pass each."""
    loadavg = os.getloadavg()[0]
    results = {}
    probes = run_child("--probes")["metrics"] if trace else {}
    for workload in workloads:
        if trace:
            results[workload] = layer_pass(
                workload, seed, seconds, spec, probes, loadavg
            )
        else:
            results[workload] = end_to_end_pass(workload, seed, seconds, spec)
    return {
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg_1m_at_start": loadavg,
            "host.calibration_ops_per_s": statistics.median(
                result["calibration_ops_per_s"] for result in results.values()
            ),
        },
        "declared": {
            kind: {m["name"]: m for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")
        },
        "workloads": results,
    }


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def print_set(result_set: dict) -> None:
    kind = "per_layer" if result_set["trace"] else "end_to_end"
    declared = result_set["declared"][kind]
    for workload, result in result_set["workloads"].items():
        print(f"== {workload} (seed {result_set['seed']}) ==")
        for name, summary in result["metrics"].items():
            line = f"  {name:<44}{summary['median']:>18.6g} {declared[name]['unit']}"
            if summary["n"] > 1:
                line += (
                    f"   median of {summary['n']}: min {summary['min']:.6g}, "
                    f"quartiles {summary['q1']:.6g}..{summary['q3']:.6g}"
                )
            print(line)
        for problem in result["problems"]:
            print(f"  INCORRECT: {problem}")


def contract_line(result: dict, declared: dict) -> str:
    """The one JSON object the benchmark contract asks for."""
    return json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": summary["median"], "unit": declared[name]["unit"]}
            for name, summary in result["metrics"].items()
        },
    })


def selfcheck_failures(first: dict, second: dict) -> List[str]:
    """Where two sets of the same code and seed disagree too much."""
    declared = first["declared"]["end_to_end"]
    failures = []
    for workload, result in first["workloads"].items():
        other = second["workloads"][workload]["metrics"]
        for name, summary in result["metrics"].items():
            a, b = summary["median"], other[name]["median"]
            if name in HOST_END_TO_END:
                bound = declared[name]["bound"]
                if abs(b - a) > bound * a:
                    failures.append(
                        f"{workload}/{name}: {a:.6g} then {b:.6g} "
                        f"(bound {bound:.0%} of the first)"
                    )
            elif a != b:
                failures.append(
                    f"{workload}/{name}: {a!r} then {b!r} (must be identical)"
                )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isfile(SPEC_PATH) or not os.path.isdir(
        os.path.join(ROOT, "src", "repro")
    ):
        print(
            "benchmarks/e2e needs BENCHMARK.json and src/repro beside it: "
            "run it from a checkout of the repository", file=sys.stderr,
        )
        return 2
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long each workload repeats its children")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the result set here (compare.py reads it)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets and fail unless they agree")
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else names

    try:
        result_set = run_set(workloads, args.seed, args.seconds, bool(args.trace), spec)
        second = None
        if args.selfcheck:
            second = run_set(workloads, args.seed, args.seconds, bool(args.trace), spec)
    except (ChildFailed, subprocess.TimeoutExpired) as failure:
        print(failure, file=sys.stderr)
        return 3

    print_set(result_set)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result_set, handle, indent=1, sort_keys=True)
            handle.write("\n")
    correct = not any(r["problems"] for r in result_set["workloads"].values())
    if second is not None:
        import compare

        print(compare.format_table(compare.compare_sets(result_set, second)))
        failures = selfcheck_failures(result_set, second)
        for failure in failures:
            print(f"SELFCHECK: {failure}")
        correct = correct and not failures
    if args.workload:
        kind = "per_layer" if args.trace else "end_to_end"
        print(contract_line(
            result_set["workloads"][args.workload], result_set["declared"][kind]
        ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
