"""Tests for the simulation tracing facility."""

import pytest

from repro.sim import Environment, EventLog


def test_trace_records_every_processed_event():
    log = EventLog()
    env = Environment(trace=log)

    def worker(env):
        yield env.timeout(1)
        yield env.timeout(2)

    env.process(worker(env))
    env.run()
    assert len(log) >= 3  # bootstrap + two timeouts + completion
    assert sum(r.kind == "timeout" for r in log) == 2


def test_records_carry_time_and_kind():
    log = EventLog()
    env = Environment(trace=log)

    def worker(env):
        yield env.timeout(5)

    env.process(worker(env))
    env.run()
    (timeout_record,) = [r for r in log if r.kind == "timeout"]
    assert timeout_record.time == 5.0
    assert any(r.kind == "process" and r.name == "worker" for r in log)


def test_between_filters_by_time():
    log = EventLog()
    env = Environment(trace=log)

    def worker(env):
        for _ in range(5):
            yield env.timeout(1)

    env.process(worker(env))
    env.run()
    window = log.between(1.5, 3.5)
    assert all(1.5 <= r.time < 3.5 for r in window)
    assert len([r for r in window if r.kind == "timeout"]) == 2


def test_capacity_bounds_memory():
    log = EventLog(capacity=3)
    env = Environment(trace=log)

    def worker(env):
        for _ in range(10):
            yield env.timeout(1)

    env.process(worker(env))
    env.run()
    assert len(log) == 3
    assert log.dropped > 0


def test_clear_resets():
    log = EventLog()
    env = Environment(trace=log)
    env.timeout(1)
    env.run()
    assert len(log) == 1
    log.clear()
    assert len(log) == 0 and log.dropped == 0


def test_invalid_capacity():
    with pytest.raises(ValueError):
        EventLog(capacity=0)


def test_untraced_environment_pays_nothing():
    env = Environment()
    assert env.trace is None
    env.timeout(1)
    env.run()  # no error, no tracing
