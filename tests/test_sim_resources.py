"""Unit tests for the Resource and Store primitives."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Resource, SimulationError, Store

from .conftest import settle
from .reference_datapath import held


class TestResource:
    def test_grants_up_to_capacity(self):
        env = Environment()
        res = Resource(env, capacity=2)
        a, b, c = res.request(), res.request(), res.request()
        settle(env)
        assert a.triggered and b.triggered and not c.triggered
        assert res.in_use == 2

    def test_release_wakes_fifo_waiter(self):
        env = Environment()
        res = Resource(env, capacity=1)
        res.request()
        first, second = res.request(), res.request()
        res.release()
        settle(env)
        assert first.triggered and not second.triggered

    def test_release_without_request_rejected(self):
        env = Environment()
        res = Resource(env)
        with pytest.raises(SimulationError):
            res.release()

    def test_invalid_capacity_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_serializes_concurrent_holders(self):
        env = Environment()
        res = Resource(env, capacity=1)
        spans = []

        def worker(env):
            grant = res.request()
            yield grant
            start = env.now
            yield env.timeout(2)
            res.release()
            spans.append((start, env.now))

        for _ in range(3):
            env.process(worker(env))
        env.run()
        assert spans == [(0.0, 2.0), (2.0, 4.0), (4.0, 6.0)]


def _serve(capacity, jobs, booked):
    """Run ``jobs`` (arrival, duration) through one resource; returns
    ``(job, completion instant, busy time so far)`` per completion."""
    env = Environment()
    resource = Resource(env, capacity)
    busy = [0.0]
    completions = []

    def job(index, arrival, duration):
        yield env.timeout_at(arrival)
        if booked:
            yield resource.hold(duration)
        else:
            yield from held(resource, duration)
        busy[0] += duration
        completions.append((index, env.now, busy[0]))

    for index, (arrival, duration) in enumerate(jobs):
        env.process(job(index, arrival, duration))
    env.run()
    return completions


#: Gaps and durations off a coarse lattice collide all the time (an
#: arrival at the exact instant a unit frees, two units freeing at
#: once); the odd decimals make the sums inexact, so that a regrouped
#: addition would show.
_STEPS = st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 1.0, 1.7, 2.0])


class TestBookedHold:
    """``hold()`` against the loop it replaced (request, sleep, release)."""

    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.integers(1, 48),
        steps=st.lists(st.tuples(_STEPS, _STEPS), min_size=1, max_size=96),
    )
    def test_completes_when_the_requested_hold_would(self, capacity, steps):
        jobs, arrival = [], 0.0
        for gap, duration in steps:
            arrival += gap
            jobs.append((arrival, duration))
        booked = _serve(capacity, jobs, booked=True)
        requested = _serve(capacity, jobs, booked=False)
        # Same instants as floats, same completion order, and so the
        # same busy time at every completion.
        assert booked == requested
        if capacity == 1:
            # One unit serves in arrival order, back to back.
            assert [index for index, _, _ in booked] == list(range(len(jobs)))

    def test_a_burst_queues_behind_all_48_units(self):
        """The host's 48-core pool under bursts four times its width:
        every booking waits for the earliest-free unit."""
        durations = (0.1, 0.25, 0.3, 1.7, 0.0)
        jobs = [(i // 200 * 0.5, durations[i % 5]) for i in range(600)]
        assert _serve(48, jobs, booked=True) == _serve(48, jobs, booked=False)

    def test_zero_length_hold_keeps_its_place_in_the_queue(self):
        env = Environment()
        resource = Resource(env)
        order = []
        for name, duration in [("a", 2.0), ("b", 0.0), ("c", 1.0)]:
            resource.hold(duration).add_callback(
                lambda _event, name=name: order.append((name, env.now))
            )
        env.run()
        assert order == [("a", 2.0), ("b", 2.0), ("c", 3.0)]

    def test_hold_at_the_instant_a_unit_frees(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        ends = []

        def worker(duration, again):
            yield resource.hold(duration)
            ends.append(env.now)
            yield resource.hold(again)  # requested as this unit frees
            ends.append(env.now)

        env.process(worker(0.1, 0.2))
        env.process(worker(0.3, 0.3))
        env.run()
        assert ends == [0.1, 0.3, 0.1 + 0.2, 0.3 + 0.3]
        assert resource.in_use == 0

    def test_occupancy_counts_bookings_that_have_not_ended(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        resource.hold(1.0)
        resource.hold(3.0)
        resource.hold(1.0)  # queued behind the first
        assert resource.in_use == 2
        env.run(until=2.0)  # an end at exactly `now` has ended
        assert resource.in_use == 1
        env.run()
        assert resource.in_use == 0

    def test_booked_or_requested_never_both(self):
        env = Environment()
        booked = Resource(env)
        booked.hold(1.0)
        with pytest.raises(SimulationError):
            booked.request()
        requested = Resource(env)
        requested.request()
        with pytest.raises(SimulationError):
            requested.hold(1.0)
        with pytest.raises(ValueError):
            Resource(env).hold(-1.0)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        store.try_put("a")
        got = store.get()
        settle(env)
        assert got.triggered and got.value == "a"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def getter(env):
            item = yield store.get()
            got.append((env.now, item))

        def putter(env):
            yield env.timeout(3)
            store.try_put("late")

        env.process(getter(env))
        env.process(putter(env))
        env.run()
        assert got == [(3.0, "late")]

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        for i in range(5):
            store.try_put(i)
        out = [store.try_get() for _ in range(5)]
        assert out == [0, 1, 2, 3, 4]

    def test_try_put_respects_capacity(self):
        env = Environment()
        store = Store(env, capacity=1)
        assert store.try_put("a")
        assert not store.try_put("b")

    def test_try_get_empty_returns_none(self):
        env = Environment()
        assert Store(env).try_get() is None

    def test_put_hands_directly_to_waiting_getter(self):
        env = Environment()
        store = Store(env, capacity=1)
        got = store.get()
        settle(env)
        assert not got.triggered
        assert store.try_put("direct")
        settle(env)
        assert got.triggered and got.value == "direct"
        assert len(store) == 0
