"""Deterministic interleaving tests for the cuckoo cache table (§6.1).

The reader guarantee under test is Table 2's: a key that has been
inserted and not deleted is visible to a lock-free reader at *every*
schedule point.  ``_BuggyDisplacementTable`` reverts ``_place`` to the
pre-fix forward walk — whose displacement continue-path parks the victim
outside the table for a whole kick iteration — and the harness must
deterministically reproduce the resulting reader miss (fail-before),
while the fixed table survives the same schedules (pass-after).
"""

import threading

import pytest

from repro.concurrency import (
    ExplorationFailure,
    explore_bounded,
    explore_random,
    replay_seed,
)
from repro.concurrency.explore import Scenario
from repro.concurrency.hooks import yield_point
from repro.concurrency.invariants import CuckooVisibilityChecker
from repro.structures import CuckooCacheTable


class _BuggyDisplacementTable(CuckooCacheTable):
    """CuckooCacheTable with the pre-fix ``_place`` (forward walk).

    This is the exact displacement algorithm this PR removed: on the
    continue-path it overwrites ``bucket[0]`` with the carried item
    *before* the victim has been re-inserted anywhere, so the victim is
    invisible to readers until the next kick lands it.
    """

    def _place(self, key, value):
        index1, index2 = self._index1(key), self._index2(key)
        for index in (index1, index2):
            if self._bucket_len(index) < self.slots_per_bucket:
                yield_point("cuckoo.bucket_append", self._bucket_key(index))
                self._materialize(index).append((key, value))
                return
        index = index1
        carried_key, carried_value = key, value
        for _kick in range(self.max_kicks):
            bucket = self._buckets[index]
            victim_key, victim_value = bucket[0]
            alternate = self._alternate(victim_key, index)
            if self._bucket_len(alternate) < self.slots_per_bucket:
                yield_point(
                    "cuckoo.bucket_append", self._bucket_key(alternate)
                )
                self._materialize(alternate).append(
                    (victim_key, victim_value)
                )
                yield_point(
                    "cuckoo.bucket_update", self._bucket_key(index)
                )
                bucket[0] = (carried_key, carried_value)
                self.stats.displacements += 1
                return
            # BUG: the victim leaves the table here and is not placed
            # anywhere until the next loop iteration appends it.
            yield_point("cuckoo.bucket_update", self._bucket_key(index))
            bucket[0] = (carried_key, carried_value)
            carried_key, carried_value = victim_key, victim_value
            index = alternate
            self.stats.displacements += 1
        yield_point(
            "cuckoo.bucket_append",
            self._bucket_key(self._index1(carried_key)),
        )
        self._materialize(self._index1(carried_key)).append(
            (carried_key, carried_value)
        )
        self.stats.chained_inserts += 1


def _displacement_setup(table_cls):
    """Deterministically build (seed keys, trigger key) for ``table_cls``.

    The seed keys fill a slots-per-bucket=1 table so that inserting the
    trigger key finds both its buckets full *and* the victim's alternate
    full — forcing the displacement continue-path where the old code
    loses the victim.  Depends only on the (stable) int hash and table
    geometry, so it yields the same keys on every run.
    """
    table = table_cls(16, slots_per_bucket=1, max_kicks=8)
    seeds = []
    key = 0
    while len(seeds) < 14 and key < 2000:
        one, two = table._index1(key), table._index2(key)
        if not table._buckets.get(one) or not table._buckets.get(two):
            table.insert(key, key)
            seeds.append(key)
        key += 1
    for trigger in range(10_000, 30_000):
        one, two = table._index1(trigger), table._index2(trigger)
        if not table._buckets.get(one) or not table._buckets.get(two):
            continue
        victim_key = table._buckets.get(one)[0][0]
        if table._buckets.get(table._alternate(victim_key, one)):
            return seeds, trigger
    raise RuntimeError("no displacement trigger found")  # pragma: no cover


def _displacement_scenario(table_cls):
    seeds, trigger = _displacement_setup(table_cls)

    def build():
        table = table_cls(16, slots_per_bucket=1, max_kicks=8)
        checker = CuckooVisibilityChecker(table)
        for key in seeds:
            table.insert(key, key)
            checker.note_inserted(key, key)

        def writer():
            if table.insert(trigger, trigger):
                checker.note_inserted(trigger, trigger)

        def reader():
            for key in seeds[:3]:
                table.lookup(key)

        return (
            [("writer", writer), ("reader", reader)],
            checker.check,
            checker.finish,
        )

    return Scenario(f"cuckoo-displacement[{table_cls.__name__}]", build)


def test_harness_reproduces_reverted_displacement_bug():
    """Fail-before: the pre-fix _place loses the victim mid-displacement."""
    scenario = _displacement_scenario(_BuggyDisplacementTable)
    with pytest.raises(ExplorationFailure) as excinfo:
        explore_random(scenario, schedules=50, base_seed=0)
    assert "missed key" in str(excinfo.value)
    kind, seed = excinfo.value.replay
    assert kind == "seed"
    # The failure is deterministic: the printed seed replays it exactly.
    with pytest.raises(Exception, match="missed key"):
        replay_seed(scenario, seed)


def test_bounded_exploration_also_finds_reverted_bug():
    scenario = _displacement_scenario(_BuggyDisplacementTable)
    with pytest.raises(ExplorationFailure, match="missed key"):
        explore_bounded(scenario, preemption_bound=2, max_schedules=200)


def test_fixed_displacement_passes_thousand_schedules():
    """Pass-after: ≥1000 explored schedules, fixed seed, zero misses."""
    scenario = _displacement_scenario(CuckooCacheTable)
    stats = explore_random(scenario, schedules=1000, base_seed=0)
    assert stats.schedules == 1000


def test_fixed_displacement_survives_bounded_exploration():
    scenario = _displacement_scenario(CuckooCacheTable)
    stats = explore_bounded(
        scenario, preemption_bound=3, max_schedules=300
    )
    assert stats.schedules > 0


def test_churn_with_deletes_keeps_expected_keys_visible():
    """Writer churn (insert+delete) under a reader, all interleavings."""

    def build():
        table = CuckooCacheTable(32, slots_per_bucket=2, max_kicks=8)
        checker = CuckooVisibilityChecker(table)
        for key in range(6):
            table.insert(key, key)
            checker.note_inserted(key, key)

        def writer():
            for key in (100, 101):
                if table.insert(key, key):
                    checker.note_inserted(key, key)
            checker.note_deleting(100)
            table.delete(100)
            checker.note_deleting(3)
            table.delete(3)

        def reader():
            for key in (0, 1, 2, 100):
                table.lookup(key)

        return (
            [("writer", writer), ("reader", reader)],
            checker.check,
            checker.finish,
        )

    stats = explore_random(Scenario("cuckoo-churn", build), schedules=1000)
    assert stats.schedules == 1000


def test_read_side_stats_are_exact_under_real_threads():
    """Satellite regression: lookups/hits/probe_entries use atomic adds.

    With the old non-atomic ``+=`` on the shared stats object, parallel
    readers dropped updates; the counters must now account for every
    lookup exactly.
    """
    table = CuckooCacheTable(64)
    for key in range(32):
        table.insert(key, key)
    readers, per_reader = 4, 2000

    def read_loop():
        for i in range(per_reader):
            table.lookup(i % 64)

    threads = [threading.Thread(target=read_loop) for _ in range(readers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    expected_hits = readers * sum(
        1 for i in range(per_reader) if i % 64 < 32
    )
    assert table.stats.lookups == readers * per_reader
    assert table.stats.hits == expected_hits
    assert table.stats.probe_entries >= table.stats.hits


def test_stats_exactness_contract_documented():
    stats_doc = type(CuckooCacheTable(1).stats).__doc__
    assert "exact" in stats_doc
    assert "Writer-side" in stats_doc
