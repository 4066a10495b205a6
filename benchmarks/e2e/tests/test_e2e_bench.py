"""Tests of the benchmark itself (not of ``repro``).

Workloads run in-process at 1/20 size: the size is an argument of the
workload, passed here, not a mode of the command line.
"""

import gc
import json
import re
import time

import pytest

import child
import compare
import run
from tracing import BUCKETS, Recorder, bucket_profile

SMALL = 0.05
SPEC = run.load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def small_runs():
    """Each workload at 1/20 size: seed 1 twice, seed 2 once."""
    started = time.perf_counter()
    runs = {}
    for name in WORKLOADS:
        runs[name] = []
        for seed in (1, 1, 2):
            runs[name].append(child.measure(name, seed, SMALL))
            gc.collect()
    runs["seconds"] = time.perf_counter() - started
    return runs


def test_declared_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in SPEC["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_workloads_complete_correctly_and_quickly(small_runs):
    for name in WORKLOADS:
        for result in small_runs[name]:
            assert result["problems"] == []
            assert result["failed"] == 0
            assert result["attempted"] >= 1
    assert small_runs["seconds"] < 30


def test_every_end_to_end_metric_is_emitted_and_nonzero(small_runs):
    declared = {m["name"] for m in SPEC["end_to_end"]}
    for name in WORKLOADS:
        first = small_runs[name][0]
        metrics = dict(first["metrics"], **first["host"], peak_rss_mb=1.0)
        assert declared <= set(metrics), declared - set(metrics)
        for metric in declared:
            assert metrics[metric] > 0, (name, metric)


def test_emitted_names_equal_the_declared_set(small_runs):
    """What a child, a profile and the probes emit, taken together, is
    exactly BENCHMARK.json: no undeclared metric, no orphan declaration."""
    import probes

    emitted = {"peak_rss_mb", "host.loadavg_1m", "sim.events_per_s",
               "trace_overhead_ratio", "storage.setup_self_s"}
    for name in WORKLOADS:
        emitted |= set(small_runs[name][0]["metrics"])
        emitted |= set(small_runs[name][0]["host"])
    emitted |= {f"{bucket}.{kind}" for bucket in BUCKETS
                for kind in ("self_s", "calls")}
    emitted |= set(probes.run_all())
    declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert emitted == declared, (emitted - declared, declared - emitted)
    for name in emitted:
        assert NAME.match(name), name


def test_same_seed_repeats_exactly_and_another_seed_does_not(small_runs):
    for name in WORKLOADS:
        first, again, other = small_runs[name]
        assert first["metrics"] == again["metrics"], name
        assert first["metrics"] != other["metrics"], name
        assert run.same_seed_disagreements([first, again]) == []
        assert run.same_seed_disagreements([first, other]) != []


def test_workload_signatures(small_runs):
    """Each workload is dominated where its table row says."""
    read = small_runs["offload_read"][0]["metrics"]
    assert read["core.offload_share"] == 1.0
    assert read["sim_host_cores"] == 0.0
    mixed = small_runs["offload_mixed_rw"][0]["metrics"]
    assert mixed["core.requests_to_host"] > 0
    assert 0.3 < mixed["core.offload_share"] < 0.7
    for metrics in (read, mixed):
        assert metrics.get("topology.qos_shed", 0) == 0
        assert metrics.get("topology.mirrored_writes", 0) == 0
    sharded = small_runs["sharded_repl_rw"][0]["metrics"]
    assert sharded["topology.mirrored_writes"] > 0
    assert sharded["faults.injected"] == 1
    timed = small_runs["sharded_repl_rw"][0]["host"]
    assert timed["topology.server_init_s"] >= 0.5 * timed["host.setup_s"]
    overload = small_runs["overload_open_loop"][0]
    assert overload["metrics"]["topology.qos_shed"] > 0
    assert overload["refused"] > 0 and overload["failed"] == 0
    assert overload["metrics"]["workload.max_send_lag_us"] == 0.0
    scan = small_runs["pushdown_scan"][0]["metrics"]
    assert scan["pushdown.wire_reduction"] > 10
    assert scan["sim.events"] < 1e5


def test_profile_buckets_partition_the_profiled_time():
    result = child.measure("pushdown_scan", 1, SMALL, profile=True)
    table = result["profile"]["run"]
    assert set(table) == set(BUCKETS)
    total = sum(row["self_s"] for row in table.values())
    assert total == pytest.approx(result["phase_seconds"]["run"], rel=0.05)
    assert table["pushdown"]["self_s"] > 0 and table["topology"]["calls"] == 0


def test_spans_nest_and_self_time_excludes_children():
    rec = Recorder("w", time.perf_counter())
    with rec.phase("run"):
        with rec.span("inner"):
            time.sleep(0.01)
    outer, inner = rec.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["workload"] == "w"
    own = rec.self_seconds()
    assert own[outer["id"]] == pytest.approx(
        rec.seconds("run") - rec.seconds("inner")
    )
    assert not rec.profiles  # profiling is off unless asked for
    assert bucket_profile.__doc__


# -- compare.py verdicts on synthetic inputs ---------------------------
def _summary(samples):
    return run.summarize([float(s) for s in samples])


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([100, 101, 102], [100, 102, 101], "lower", "same"),
        ([100, 101, 102], [120, 121, 122], "lower", "worse"),
        ([100, 101, 102], [80, 81, 82], "lower", "better"),
        ([100, 101, 102], [120, 121, 122], "higher", "better"),
        ([100, 101, 102], [80, 81, 82], "higher", "worse"),
        ([100, 130, 70], [100, 101, 102], "lower", "unresolved"),
        ([100], [109], "lower", "same"),
        ([100], [111], "lower", "worse"),
    ],
)
def test_compare_verdict(a, b, better, expected):
    assert compare.verdict(_summary(a), _summary(b), better, 0.10) == expected


def test_compare_has_no_verdict_without_a_bound():
    assert compare.verdict(_summary([1]), _summary([2]), "lower", None) == ""


def test_compare_table_gives_every_ratio_its_base():
    def result_set(value):
        return {
            "trace": 0,
            "declared": {"end_to_end": {
                "host_us_per_op":
                    {"unit": "us/op", "better": "lower", "bound": 0.1},
            }},
            "workloads": {"w": {"metrics": {"host_us_per_op": _summary(value)}}},
        }

    rows = compare.compare_sets(result_set([100, 100]), result_set([150, 150]))
    assert [row["verdict"] for row in rows] == ["worse"]
    text = compare.format_table(rows)
    assert "1.5000 of 100 us/op" in text and "worse" in text


def test_selfcheck_flags_simulated_drift_and_host_drift():
    def result_set(sim, host):
        return {
            "declared": {"end_to_end": {"host_us_per_op": {"bound": 0.25}}},
            "workloads": {"w": {"metrics": {
                "sim_iops": _summary([sim]), "host_us_per_op": _summary([host]),
            }}},
        }

    assert run.selfcheck_failures(result_set(5, 100), result_set(5, 120)) == []
    drift = run.selfcheck_failures(result_set(5, 100), result_set(5.0001, 130))
    assert len(drift) == 2


def test_contract_line_has_exactly_the_contract_keys():
    result = {
        "problems": [], "attempted": 7, "failed": 0,
        "metrics": {"setup_s": _summary([0.2, 0.3])},
    }
    line = json.loads(run.contract_line(
        result, {"setup_s": {"unit": "s"}}
    ))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {"setup_s": {"value": 0.25, "unit": "s"}}
    assert line["correct"] is True
