"""Engine micro-workloads: the four hot paths DESIGN.md §11 names.

Each workload drives one engine mechanism in isolation — heap-ordered
timeout churn, process spawn/teardown, ``AllOf``/``AnyOf`` fan-in, and
same-tick event storms (the ready-deque path) — asserts the simulation
behaved correctly and scheduled exactly the events it always has, and
contributes its count to ``BENCH_engine_micro.json`` at the repo root.
Nothing is timed here, so regenerating the record is a no-op: engine
throughput is ``sim.probe_timeout_events_per_s`` in ``benchmarks/e2e``.

Run directly: ``pytest benchmarks/test_engine_microbench.py``.
"""

import pytest

from repro.bench.trajectory import write_bench
from repro.sim import Environment

#: name -> events; filled by the workload tests, written once by the
#: module-scoped emitter fixture below.
_RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def emit_bench_json():
    """Write BENCH_engine_micro.json after all workloads have run."""
    yield
    if not _RESULTS:
        return
    entry = {
        "events": sum(_RESULTS.values()),
        "detail": {
            name: {"events": events} for name, events in _RESULTS.items()
        },
    }
    # One scale only; filed as the record's "full" entry.
    write_bench("engine_micro", "full", entry)


def test_timeout_churn():
    """Heap path: many interleaved positive-delay timeouts."""
    env = Environment()
    done = []

    def churner(index):
        delay = 1e-6 * (1 + (index % 7))
        for _ in range(2000):
            yield env.timeout(delay)
        done.append(index)

    for index in range(25):
        env.process(churner(index))
    env.run()
    _RESULTS["timeout_churn"] = env.scheduled_count
    assert env.scheduled_count == 50025
    assert len(done) == 25
    assert env.now == pytest.approx(2000 * 7e-6)


def test_process_spawn_teardown():
    """Bootstrap + termination cost: short-lived process cascades."""
    env = Environment()
    finished = [0]

    def leaf():
        yield env.timeout(1e-9)
        finished[0] += 1
        return 1

    def spawner():
        for _ in range(200):
            children = [env.process(leaf()) for _ in range(50)]
            yield env.all_of(children)

    env.process(spawner())
    env.run()
    _RESULTS["spawn_teardown"] = env.scheduled_count
    assert env.scheduled_count == 30201
    assert finished[0] == 200 * 50


def test_fan_in_allof_anyof():
    """AllOf/AnyOf composition over mixed-delay children."""
    env = Environment()
    rounds = [0]

    def fan():
        for index in range(2000):
            children = [
                env.timeout(1e-6 * (1 + ((index + k) % 5)), value=k)
                for k in range(8)
            ]
            values = yield env.all_of(children)
            assert sorted(values) == list(range(8))
            first = yield env.any_of(
                [env.timeout(2e-6, "slow"), env.timeout(1e-6, "fast")]
            )
            assert first[1] == "fast"
            rounds[0] += 1

    env.process(fan())
    env.run()
    _RESULTS["fan_in"] = env.scheduled_count
    assert env.scheduled_count == 24001
    assert rounds[0] == 2000


def test_same_tick_storm():
    """Ready-deque path: bursts of zero-delay triggers at one timestamp."""
    env = Environment()
    woken = [0]

    def waiter(gate):
        yield gate
        woken[0] += 1

    def storm():
        for _ in range(400):
            gates = [env.event() for _ in range(100)]
            procs = [env.process(waiter(gate)) for gate in gates]
            # Everything below happens at the same simulated instant.
            for gate in gates:
                gate.succeed()
            yield env.all_of(procs)

    env.process(storm())
    env.run()
    _RESULTS["same_tick_storm"] = env.scheduled_count
    assert env.scheduled_count == 120401
    assert woken[0] == 400 * 100
