"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import Environment, Interrupt, SimulationError


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 5.0
    assert env.now == 5.0


def test_zero_delay_timeout_runs_same_timestamp():
    env = Environment()

    def proc(env):
        yield env.timeout(0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 0.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1, value="hello")
        return got

    p = env.process(proc(env))
    env.run()
    assert p.value == "hello"


def test_processes_interleave_in_time_order():
    env = Environment()
    order = []

    def proc(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(env, 3, "c"))
    env.process(proc(env, 1, "a"))
    env.process(proc(env, 2, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_waits_on_another_process():
    env = Environment()

    def child(env):
        yield env.timeout(4)
        return 42

    def parent(env):
        result = yield env.process(child(env))
        return result + 1

    p = env.process(parent(env))
    env.run()
    assert p.value == 43


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    def waiter(env):
        value = yield gate
        log.append((env.now, value))

    def opener(env):
        yield env.timeout(2)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert log == [(2.0, "open")]


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_propagates_into_process():
    env = Environment()
    gate = env.event()

    def waiter(env):
        try:
            yield gate
        except RuntimeError as exc:
            return f"caught {exc}"

    def failer(env):
        yield env.timeout(1)
        gate.fail(RuntimeError("boom"))

    p = env.process(waiter(env))
    env.process(failer(env))
    env.run()
    assert p.value == "caught boom"


def test_unwatched_process_failure_raises():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("unwatched")

    env.process(bad(env))
    with pytest.raises(ValueError, match="unwatched"):
        env.run()


def test_watched_process_failure_delivered_to_waiter():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("delivered")

    def parent(env):
        try:
            yield env.process(bad(env))
        except ValueError:
            return "handled"

    p = env.process(parent(env))
    env.run()
    assert p.value == "handled"


def test_run_until_time_stops_clock_there():
    env = Environment()
    ticks = []

    def ticker(env):
        while True:
            yield env.timeout(1)
            ticks.append(env.now)

    env.process(ticker(env))
    env.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    assert env.now == 3.5


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(7)
        return "done"

    p = env.process(proc(env))
    assert env.run(until=p) == "done"


def test_run_until_event_deadlock_detected():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=never)


def test_run_until_event_stops_right_after_the_events_step():
    """Same-instant work queued behind the awaited event's completion
    waits for the next run; a run that ended otherwise leaves nothing
    behind that could stop a later one."""
    env = Environment()
    log = []

    def first():
        yield env.timeout(1)
        log.append("first")
        return "done"

    def second():
        yield env.timeout(1)
        log.append("second")
        yield env.timeout(0)  # queued behind first's completion
        log.append("second again")

    proc = env.process(first())
    env.process(second())
    assert env.run(until=proc) == "done"
    assert (log, env.now, env.scheduled_count) == (
        ["first", "second"], 1.0, 6,
    )
    never = env.event()
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=never)
    assert log == ["first", "second", "second again"]
    never.succeed()
    late = env.timeout(2)
    env.run(until=5)
    assert late.triggered and env.now == 5.0


def test_all_of_collects_values_in_order():
    env = Environment()

    def proc(env, delay, value):
        yield env.timeout(delay)
        return value

    def main(env):
        events = [
            env.process(proc(env, 3, "x")),
            env.process(proc(env, 1, "y")),
        ]
        values = yield env.all_of(events)
        return values

    p = env.process(main(env))
    env.run()
    assert p.value == ["x", "y"]
    assert env.now == 3.0


def test_all_of_empty_triggers_immediately():
    env = Environment()
    joined = env.all_of([])
    env.run()
    assert joined.triggered and joined.value == []


def test_any_of_returns_first():
    env = Environment()

    def proc(env, delay, value):
        yield env.timeout(delay)
        return value

    def main(env):
        fast = env.process(proc(env, 1, "fast"))
        slow = env.process(proc(env, 9, "slow"))
        event, value = yield env.any_of([fast, slow])
        return value

    p = env.process(main(env))
    env.run()
    assert p.value == "fast"


def test_yielding_non_event_is_an_error():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="must yield Event"):
        env.run()


def test_interrupt_thrown_into_process():
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, env.now)

    def interrupter(env, victim):
        yield env.timeout(2)
        victim.interrupt(cause="wakeup")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert victim.value == ("interrupted", "wakeup", 2.0)


def test_interrupt_deregisters_callback_from_wait_target():
    """Regression (ISSUE 6): an interrupted process must not stay
    registered on its original wait target — long-lived events would
    otherwise accumulate dead callbacks (a leak plus a stale resume)."""
    env = Environment()
    gate = env.event()
    outcomes = []

    def sleeper(env):
        try:
            yield gate
            outcomes.append("gate")
        except Interrupt:
            outcomes.append("interrupted")
            yield env.timeout(50)
            outcomes.append("slept")

    def interrupter(env, victim):
        yield env.timeout(2)
        victim.interrupt()
        assert gate.callbacks == []  # deregistered, not leaked

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run(until=5)
    # The gate firing later must NOT resume the victim at the stale
    # yield point (it is sleeping inside the except branch).
    gate.succeed()
    env.run()
    assert outcomes == ["interrupted", "slept"]


def test_interrupt_cancels_pending_same_tick_poke():
    """An interrupt racing a same-tick resume: the poke for the
    already-triggered target must be cancelled, and only the Interrupt
    may be delivered."""
    env = Environment()
    outcomes = []

    def sleeper(env):
        try:
            # Already-triggered target: resume is scheduled as a
            # same-tick poke, which the interrupt below must cancel.
            yield env.timeout(0)
            outcomes.append("poked")
        except Interrupt:
            outcomes.append("interrupted")

    def interrupter(env, victim):
        victim.interrupt()
        return
        yield  # pragma: no cover - make this a generator

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert outcomes == ["interrupted"]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(4)
    assert env.peek() == 4.0
    env2 = Environment()
    assert env2.peek() == float("inf")


def test_deterministic_fifo_at_same_timestamp():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in range(10):
        env.process(proc(env, tag))
    env.run()
    assert order == list(range(10))


# ----------------------------------------------------------------------
# in-place completions (DESIGN.md §11)
# ----------------------------------------------------------------------
def _returns_after(env, delay, value):
    yield env.timeout(delay)
    return value


def test_unwaited_process_takes_its_value_the_instant_it_returns():
    env = Environment()
    seen = []

    def watcher(env, proc):
        # Due at the same instant, scheduled after the child's timeout:
        # it runs right after the child's generator returned, ahead of
        # anything the return could have put on the queue.
        yield env.timeout(3)
        seen.append((proc.triggered, proc.is_alive, proc.ok, proc.value))

    proc = env.process(_returns_after(env, 3, "v"))
    env.process(watcher(env, proc))
    env.run()
    assert seen == [(True, False, True, "v")]


def test_late_waiters_take_a_finished_process_value_in_the_same_instant():
    env = Environment()
    proc = env.process(_returns_after(env, 2, "v"))
    env.run(until=5)
    assert proc.triggered
    assert env.run(until=proc) == "v"

    def late(env):
        started = env.now
        value = yield proc
        joined = yield env.all_of([proc, env.timeout(0, "t")])
        which, first = yield env.any_of([proc, env.event()])
        return value, joined, which is proc, first, env.now - started

    waiter = env.process(late(env))
    env.run()
    assert waiter.value == ("v", ["v", "t"], True, "v", 0.0)


def test_waited_on_process_still_completes_through_the_queue():
    """Its waiter resumes after everything that was already ready at
    that instant, as it always has."""
    env = Environment()
    order = []

    def child(env):
        yield env.timeout(1)
        order.append("child")

    def parent(env):
        yield env.process(child(env))
        order.append("parent")

    def other(env):
        yield env.timeout(0.5)
        yield env.timeout(0.5)  # due with the child's, scheduled after it
        order.append("other")

    env.process(parent(env))
    env.process(other(env))
    env.run()
    assert env.now == 1.0
    assert order == ["child", "other", "parent"]


def test_interrupting_a_process_that_finished_in_place_is_an_error():
    env = Environment()
    proc = env.process(_returns_after(env, 1, None))
    env.run()
    with pytest.raises(SimulationError, match="finished process"):
        proc.interrupt()


def test_interrupt_supersedes_what_the_process_was_about_to_receive():
    """Whatever was on its way — the first resume, an earlier interrupt
    of the same instant — the process takes the latest interrupt and
    nothing else."""
    env = Environment()
    outcomes = []

    def sleeper(env):
        try:
            yield env.timeout(10)
        except Interrupt as interrupt:
            outcomes.append(interrupt.cause)
            yield env.timeout(1)
            outcomes.append("slept")

    def never_started(env):
        outcomes.append("started")  # pragma: no cover - must not run
        yield env.timeout(1)

    victim = env.process(sleeper(env))
    env.run(until=2)
    victim.interrupt("first")
    victim.interrupt("second")
    env.run()
    assert outcomes == ["second", "slept"]

    stillborn = env.process(never_started(env))
    stillborn.interrupt("early")
    with pytest.raises(Interrupt):
        env.run()
    assert outcomes == ["second", "slept"] and not stillborn.ok


# ----------------------------------------------------------------------
# timed waits: a yielded float is the instant the process resumes at
# ----------------------------------------------------------------------
def test_a_yielded_instant_resumes_at_exactly_that_float():
    env = Environment()
    woke = []
    instants = [0.1 + 0.2, 0.30000000000000004 + 1e-17, 7.0]

    def sleeper(env):
        for when in instants:
            value = yield when
            woke.append((env.now, value))

    env.process(sleeper(env))
    env.run()
    # 0.1 + 0.2 is not 0.3; the clock lands on the float as yielded.
    assert woke == [(when, None) for when in instants]
    assert all(now.__class__ is float for now, _ in woke)


def test_an_instant_due_now_takes_the_ready_deque_in_seq_order():
    env = Environment()
    order = []

    def instant_first(env):
        yield 1.0
        order.append("instant at 1")
        yield env.now  # due now: after the older heap entry below
        order.append("instant now")

    def event_second(env):
        yield env.timeout(1.0)
        order.append("event at 1")
        yield env.timeout(0)  # taken after the instant's seq
        order.append("event now")

    env.process(instant_first(env))
    env.process(event_second(env))
    env.run()
    assert order == ["instant at 1", "event at 1", "instant now", "event now"]
    assert env.now == 1.0


@pytest.mark.parametrize("when", [-1e-9, float("nan")])
def test_a_past_or_nan_instant_raises_timeout_ats_error(when):
    env = Environment()
    with pytest.raises(ValueError, match="in the past"):
        env.timeout_at(env.now + when)

    def late(env):
        yield env.now + when

    env.process(late(env))
    with pytest.raises(ValueError, match="in the past"):
        env.run()

    caught = []

    def catches(env):
        try:
            yield env.now + when
        except ValueError:
            caught.append(env.now)
        yield env.now + 1.0
        caught.append(env.now)

    env.process(catches(env))
    env.run()
    assert caught == [0.0, 1.0]


def test_an_interrupt_during_an_instant_wait_drops_the_stale_wake():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.now + 5.0
            log.append(("woke", env.now))
        except Interrupt as interrupt:
            log.append(("interrupted", env.now, interrupt.cause))
        yield env.now + 2.0  # ends before the stale wake at 5.0
        log.append(("slept", env.now))
        yield env.now + 10.0  # spans it
        log.append(("slept", env.now))

    victim = env.process(sleeper(env))
    env.run(until=1.0)
    victim.interrupt("early")
    env.run()
    assert log == [
        ("interrupted", 1.0, "early"), ("slept", 3.0), ("slept", 13.0)
    ]

    # A wake already on the ready deque (an instant due now) is
    # dropped too.
    def due_now(env):
        try:
            yield env.now
            log.append("resumed")
        except Interrupt:
            log.append("interrupted now")

    def interrupter(env):
        victim.interrupt()  # after both bootstraps: both wake-ups queued
        yield env.now

    log.clear()
    env.process(due_now(env))
    victim = env.process(due_now(env))
    env.process(interrupter(env))
    env.run()
    assert log == ["resumed", "interrupted now"]
    assert victim.ok and env.now == 13.0


# ----------------------------------------------------------------------
# what each primitive costs, in sequence numbers
# ----------------------------------------------------------------------
def _cost(env, action):
    """Sequence numbers consumed by ``action`` and the run after it."""
    before = env.scheduled_count
    action()
    env.run()
    return env.scheduled_count - before


def test_exact_sequence_cost_of_spawn_hold_and_lane_timeout():
    from repro.sim import Resource

    def nothing(env):
        return "done"
        yield  # pragma: no cover - make this a generator

    def joins(env):
        yield env.process(nothing(env))

    env = Environment()
    # Spawn and finish, nobody waiting: the bootstrap, nothing else.
    assert _cost(env, lambda: env.process(nothing(env))) == 1
    # With a waiter: bootstrap + completion, for the child and for the
    # parent nobody waits on just its bootstrap.
    assert _cost(env, lambda: env.process(joins(env))) == 1 + 2
    # A booking is bookkeeping: nothing is scheduled until it is waited
    # on, and the yielded instant costs one (its wake-up), as the
    # ``timeout_at`` event it replaces did.
    core = Resource(env)
    pool = Resource(env, capacity=3)
    for resource in (core, core, pool):  # first booking, booked, pool
        assert _cost(env, lambda: resource.book(1.0)) == 0

    def holds(env, resource):
        yield resource.book(1.0)

    for resource in (core, pool):
        assert _cost(env, lambda: env.process(holds(env, resource))) == 1 + 1

    def sleeps(env):
        yield env.now + 1.0
        yield env.now  # due at once: the ready deque, still one

    assert _cost(env, lambda: env.process(sleeps(env))) == 1 + 2
    lane = env.reserve_seq()
    assert _cost(env, lambda: env.timeout_at(env.now + 1, seq=lane)) == 0
    assert _cost(env, lambda: env.timeout_at(env.now)) == 1
