"""Shared test helpers."""

from repro.sim import Environment


def settle(env: Environment) -> None:
    """Process every event scheduled at (or before) the current time.

    Triggering an event (``succeed``/``fail``) enqueues its outcome; this
    drains zero-delay deliveries so tests can assert on post-trigger
    state without advancing the clock.
    """
    env.run(until=env.now)


def run(env: Environment, generator):
    """Run ``generator`` as a process to completion; return its value."""
    proc = env.process(generator)
    env.run(until=proc)
    return proc.value
