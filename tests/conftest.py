"""Shared test helpers."""

from functools import lru_cache

import pytest

from repro.bench.harness import HOST_PATH, REPLICATED, differential
from repro.sim import Environment

from .reference_datapath import REFERENCES

#: The kit's two differential scenarios, under their historical test ids.
scenarios = pytest.mark.parametrize(
    "scenario", [HOST_PATH, REPLICATED],
    ids=["_host_path", "_replicated"],
)


@pytest.fixture(scope="session")
def canary():
    """``canary(scenario)``: seeds 1–3 against every reference, run once
    per scenario so one shipped run per seed serves all three canaries
    (``benchmarks/test_differential.py`` runs 300 seeds)."""
    return lru_cache()(
        lambda scenario: differential(scenario, REFERENCES, (1, 2, 3))
    )


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
