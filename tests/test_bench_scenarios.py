"""The exact gate on the committed ``BENCH_*.json`` records.

Every trajectory workload (:mod:`repro.bench.trajectory`) runs the
shared cluster scenarios of :mod:`repro.bench.harness` end to end, and
everything it records is determined by the simulation.  So the gate is
equality: a smoke run here must reproduce the committed smoke entry —
written by another process, under another hash seed — field for field.
A change that reorders a single scheduled event fails here, names the
field, and is fixed or committed with
``python -m repro.bench.trajectory --mode smoke`` (CI regenerates both
modes and diffs).
"""

import json
import pickle

import pytest

from repro.bench import harness, trajectory
from repro.bench.trajectory import (
    REPO_ROOT,
    WORKLOADS,
    load_bench,
    main,
    run_workload,
    write_bench,
)

ENTRY_KEYS = {"events", "peak_iops", "detail"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_record_is_pinned_and_repeatable(name):
    assert run_workload(name, mode="smoke") == load_bench(name)["smoke"]


def _record(done):
    return (done.env.scheduled_count, done.env.now, done.result,
            done.outcomes, done.marks)


@pytest.mark.parametrize(
    "name", ["chaos", "overload", "replication", "resharding", "scaleout"]
)
def test_every_cluster_scenario_survives_pickling(name, monkeypatch):
    """Each smoke Scenario, pickled and unpickled, is an equal value that
    runs to an equal record, and the workload still matches its pin."""
    scenarios = []

    def both_copies(scenario):
        copy = pickle.loads(pickle.dumps(scenario))
        assert copy == scenario and copy is not scenario
        done = harness.run(scenario)
        assert _record(harness.run(copy)) == _record(done)
        scenarios.append(scenario)
        return done

    monkeypatch.setattr(trajectory, "run", both_copies)
    assert run_workload(name, mode="smoke") == load_bench(name)["smoke"]
    assert scenarios


def test_committed_records_hold_only_exact_fields():
    """A timed field would break regenerate-is-a-no-op; none may creep in."""
    expected = {
        name: {mode: ENTRY_KEYS for mode in ("smoke", "full")}
        for name in WORKLOADS
    }
    # The micro workloads have one scale and no I/O model.
    expected["engine_micro"] = {"full": {"events", "detail"}}
    paths = sorted(REPO_ROOT.glob("BENCH_*.json"))
    assert [path.stem[len("BENCH_"):] for path in paths] == sorted(expected)
    for path in paths:
        record = json.loads(path.read_text())
        name = record.pop("name")
        assert path.name == f"BENCH_{name}.json"
        assert record.pop("schema") == 2
        assert {
            mode: set(entry) for mode, entry in record.items()
        } == expected[name]


def test_write_bench_leaves_the_other_mode_untouched(tmp_path):
    committed = (REPO_ROOT / "BENCH_overload.json").read_text()
    copy = tmp_path / "BENCH_overload.json"
    copy.write_text(committed)
    stub = {"events": 1, "peak_iops": 0.5, "detail": {}}
    assert write_bench("overload", "smoke", stub, tmp_path) == copy
    rewritten = load_bench("overload", tmp_path)
    assert rewritten["smoke"] == stub
    assert rewritten["full"] == json.loads(committed)["full"]
    # Putting the smoke entry back restores the file byte for byte: the
    # full entry went through two rewrites without a digit moving.
    write_bench("overload", "smoke", json.loads(committed)["smoke"], tmp_path)
    assert copy.read_text() == committed


@pytest.mark.parametrize("selection", ["chaos,bogus", "", " , "])
def test_only_is_validated_before_anything_runs(selection, monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(WORKLOADS, "chaos", lambda mode: ran.append(mode))
    with pytest.raises(SystemExit) as exit_info:
        main(["--mode", "smoke", "--only", selection])
    assert exit_info.value.code == 2
    assert ran == []
    message = capsys.readouterr().err
    assert all(name in message for name in WORKLOADS)


def test_smoke_chaos_record_sees_its_kill():
    """The smoke run's shard kill lands inside its offered window."""
    assert load_bench("chaos")["smoke"]["detail"]["retries"] > 0


def test_smoke_resharding_record_drains_under_load():
    """The smoke run is still offering load when the drain starts, so
    the drain's cutovers are bucketed and none of them goes dark."""
    detail = load_bench("resharding")["smoke"]["detail"]
    phases = [phase["phase"] for phase in detail["cost_curve"]]
    assert "drain_migration" in phases
    drain = detail["migrations"][1]
    assert drain["kind"].startswith("drain")
    assert len(drain["moved_acks_per_half_ms"]) > 1
    assert detail["zero_dark_window"]
