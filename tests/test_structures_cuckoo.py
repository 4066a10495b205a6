"""Tests for the cuckoo cache table (§6.1)."""

import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures import CuckooCacheTable


def test_insert_lookup_roundtrip():
    table = CuckooCacheTable(100)
    assert table.insert("key", "value")
    assert table.lookup("key") == "value"
    assert "key" in table and len(table) == 1


def test_lookup_missing_returns_default():
    table = CuckooCacheTable(10)
    assert table.lookup("nope") is None
    assert table.lookup("nope", default="fallback") == "fallback"


def test_insert_updates_in_place():
    table = CuckooCacheTable(10)
    table.insert("k", 1)
    table.insert("k", 2)
    assert table.lookup("k") == 2
    assert len(table) == 1


def test_delete_removes_entry():
    table = CuckooCacheTable(10)
    table.insert("k", 1)
    assert table.delete("k")
    assert "k" not in table
    assert not table.delete("k")


def test_capacity_is_enforced_without_resizing():
    table = CuckooCacheTable(50)
    for i in range(50):
        assert table.insert(i, i)
    assert not table.insert("overflow", 1)
    assert table.stats.rejected_full == 1
    # Updates to existing keys still succeed at capacity.
    assert table.insert(0, "updated")
    assert table.lookup(0) == "updated"


def test_update_at_capacity_does_not_grow():
    table = CuckooCacheTable(10)
    for i in range(10):
        table.insert(i, i)
    table.insert(5, "x")
    assert len(table) == 10


def test_high_load_factor_keeps_all_items():
    table = CuckooCacheTable(2000, slots_per_bucket=4)
    for i in range(2000):
        assert table.insert(f"key-{i}", i)
    assert len(table) == 2000 == table.max_items
    for i in range(2000):
        assert table.lookup(f"key-{i}") == i


def test_chaining_absorbs_displacement_failures():
    # A tiny bucket array with many items forces displacement cycles;
    # chaining must keep every insert successful.
    table = CuckooCacheTable(64, slots_per_bucket=1, max_kicks=2)
    for i in range(64):
        assert table.insert(i, i)
    assert len(table) == 64
    for i in range(64):
        assert table.lookup(i) == i


def test_stats_track_operations():
    table = CuckooCacheTable(100)
    table.insert("a", 1)
    table.lookup("a")
    table.lookup("missing")
    table.delete("a")
    s = table.stats
    assert s.inserts == 1 and s.deletes == 1
    assert s.lookups == 2 and s.hits == 1
    assert s.hit_rate == 0.5


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        CuckooCacheTable(0)
    with pytest.raises(ValueError):
        CuckooCacheTable(10, slots_per_bucket=0)


def test_mixed_key_types():
    table = CuckooCacheTable(100)
    table.insert(("page", 7), "tuple-key")
    table.insert(42, "int-key")
    table.insert("s", "str-key")
    assert table.lookup(("page", 7)) == "tuple-key"
    assert table.lookup(42) == "int-key"
    assert table.lookup("s") == "str-key"


def test_single_writer_concurrent_readers():
    """Table 2's concurrency model: readers never see a missing key."""
    table = CuckooCacheTable(5000)
    keys = [f"stable-{i}" for i in range(500)]
    for key in keys:
        table.insert(key, key)
    misses = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            for key in keys:
                if table.lookup(key) != key:
                    misses.append(key)
                    return

    def writer():
        for i in range(3000):
            table.insert(f"churn-{i}", i)
            if i % 3 == 0:
                table.delete(f"churn-{i}")

    readers = [threading.Thread(target=reader) for _ in range(4)]
    for t in readers:
        t.start()
    writer_thread = threading.Thread(target=writer)
    writer_thread.start()
    writer_thread.join()
    stop.set()
    for t in readers:
        t.join()
    assert misses == []


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "lookup"]),
            st.integers(min_value=0, max_value=40),
        ),
        max_size=300,
    )
)
@settings(max_examples=80, deadline=None)
def test_property_matches_dict_semantics(ops):
    """The cache table behaves as a capacity-bounded dict."""
    table = CuckooCacheTable(30)
    model = {}
    for op, key in ops:
        if op == "insert":
            ok = table.insert(key, key * 2)
            if key in model or len(model) < 30:
                assert ok
                model[key] = key * 2
            else:
                assert not ok
        elif op == "delete":
            assert table.delete(key) == (key in model)
            model.pop(key, None)
        else:
            assert table.lookup(key) == model.get(key)
    assert len(table) == len(model)
    assert sorted(table.items()) == sorted(model.items())


def test_fresh_table_commits_no_bucket_memory():
    """Declared capacity is geometry, not memory: a fresh million-item
    table allocates no per-bucket storage."""
    tracemalloc.start()
    try:
        table = CuckooCacheTable(1 << 20)
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.insert("k", 1)
    assert allocated < 64 << 10


def _bucket_of(table, key):
    """The one of ``key``'s two buckets that holds it."""
    one = table._index1(key)
    if any(entry_key == key for entry_key, _ in table._buckets.get(one, ())):
        return one
    return table._index2(key)


@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=40)),
        max_size=200,
    )
)
@settings(max_examples=80, deadline=None)
def test_property_items_walk_buckets_in_ascending_order(ops):
    """One slot per bucket forces displacement and chaining; ``items()``
    still yields the live contents once each, bucket by bucket in
    ascending index order, whatever order the buckets were written in."""
    table = CuckooCacheTable(12, slots_per_bucket=1, max_kicks=4)
    model = {}
    for insert, key in ops:
        if insert:
            if table.insert(key, -key):
                model[key] = -key
        else:
            table.delete(key)
            model.pop(key, None)
    entries = list(table.items())
    assert len(entries) == len(model) and dict(entries) == model
    indices = [_bucket_of(table, key) for key, _value in entries]
    assert indices == sorted(indices)
