"""Lockset/happens-before sanitizer (DDS401) tests.

The acceptance contract: the sanitizer must flag a seeded intentional
race (with both stack traces) while staying silent on the shipped
structures under real OS threads.  Because detection is lockset- and
vector-clock-based, the positive tests do not depend on the race
actually firing in a particular interleaving — only on the accesses
being unordered and unguarded.
"""

import threading

import pytest

from repro.analysis import LocksetSanitizer
from repro.concurrency.hooks import get_scheduler_hook, yield_point
from repro.structures import (
    BufferPool,
    CuckooCacheTable,
    LockRing,
    ProgressRing,
    ResponseBuffer,
    ResponseStatus,
)
from repro.structures.atomics import AtomicCounter


def _run_concurrently(*targets):
    """Start all targets together (distinct thread idents) and join."""
    barrier = threading.Barrier(len(targets))

    def wrap(target):
        def runner():
            barrier.wait()
            target()

        return runner

    threads = [threading.Thread(target=wrap(t)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# ----------------------------------------------------------------------
# positive: the seeded intentional race
# ----------------------------------------------------------------------
def test_sanitizer_flags_seeded_unguarded_race():
    counter = {"value": 0}

    def worker():
        for _ in range(3):
            yield_point("seeded.write", ("seeded", 0))
            counter["value"] += 1

    with LocksetSanitizer() as sanitizer:
        _run_concurrently(worker, worker)

    assert len(sanitizer.reports) == 1  # deduped by (key, label, label)
    report = sanitizer.reports[0]
    assert report.key == ("seeded", 0)
    assert report.first.thread_id != report.second.thread_id
    assert report.first.is_write and report.second.is_write


def test_race_report_carries_both_stacks():
    def worker():
        yield_point("seeded.write", ("stacks", 0))

    with LocksetSanitizer() as sanitizer:
        _run_concurrently(worker, worker)

    (report,) = sanitizer.reports
    assert report.first.stack and report.second.stack
    text = report.format()
    assert "DDS401" in text
    assert "seeded.write" in text
    # The sanitizer's own frames are trimmed; the worker's remain.
    assert "analysis/sanitizer.py" not in text
    assert "test_sanitizer.py" in text


def test_read_read_pairs_do_not_race():
    def worker():
        yield_point("ring.read_batch", ("rr", 0))  # registered read label

    with LocksetSanitizer() as sanitizer:
        _run_concurrently(worker, worker)
    assert sanitizer.reports == []


# ----------------------------------------------------------------------
# negative: locksets and happens-before silence the same shape
# ----------------------------------------------------------------------
def test_tracked_lock_guards_silence_the_race():
    sanitizer = LocksetSanitizer()
    lock = sanitizer.lock("guard")
    counter = {"value": 0}

    def worker():
        for _ in range(3):
            with lock:
                yield_point("seeded.write", ("guarded", 0))
                counter["value"] += 1

    with sanitizer:
        _run_concurrently(worker, worker)
    assert sanitizer.reports == []


def test_atomic_sync_establishes_happens_before():
    atom = AtomicCounter(0)
    data = {"value": 0}
    handoff = threading.Event()

    def writer():
        yield_point("hb.data", ("hb", 0))
        data["value"] = 1
        atom.store(1)  # release: publishes the writer's clock
        handoff.set()

    def reader():
        handoff.wait()
        atom.load()  # acquire: joins the location's clock
        yield_point("hb.data", ("hb", 0))
        data["value"] = 2

    with LocksetSanitizer() as sanitizer:
        _run_concurrently(writer, reader)
    assert sanitizer.reports == []


def test_without_the_sync_the_same_shape_is_reported():
    data = {"value": 0}
    handoff = threading.Event()

    def writer():
        yield_point("hb.data", ("nohb", 0))
        data["value"] = 1
        handoff.set()

    def reader():
        handoff.wait()
        yield_point("hb.data", ("nohb", 0))
        data["value"] = 2

    with LocksetSanitizer() as sanitizer:
        _run_concurrently(writer, reader)
    assert len(sanitizer.reports) == 1


# ----------------------------------------------------------------------
# installation plumbing
# ----------------------------------------------------------------------
def test_install_chains_and_restores_previous_hook():
    seen = []

    def previous(label, key):
        seen.append((label, key))

    from repro.concurrency.hooks import set_scheduler_hook

    set_scheduler_hook(previous)
    try:
        with LocksetSanitizer():
            yield_point("chained", ("chain", 0))
        assert seen == [("chained", ("chain", 0))]
        assert get_scheduler_hook() is previous
    finally:
        set_scheduler_hook(None)


def test_double_install_is_rejected():
    sanitizer = LocksetSanitizer()
    with sanitizer:
        with pytest.raises(RuntimeError, match="already installed"):
            sanitizer.install()
    assert get_scheduler_hook() is None


# ----------------------------------------------------------------------
# the shipped structures stay silent under real threads
# ----------------------------------------------------------------------
def test_progress_ring_is_silent_under_sanitizer():
    ring = ProgressRing(1 << 14)
    per_producer = 60

    def producer(tag):
        def run():
            for n in range(per_producer):
                while not ring.try_enqueue(b"%c%03d" % (tag, n)):
                    pass

        return run

    consumed = []

    def consumer():
        while len(consumed) < 2 * per_producer:
            batch = ring.try_consume()
            if batch:
                consumed.extend(batch)

    with LocksetSanitizer() as sanitizer:
        _run_concurrently(producer(ord("a")), producer(ord("b")), consumer)
    assert len(consumed) == 2 * per_producer
    assert sanitizer.reports == [], [
        r.format() for r in sanitizer.reports
    ]


def test_cuckoo_single_writer_multi_reader_is_silent():
    table = CuckooCacheTable(256)

    def writer():
        for key in range(120):
            table.insert(key, key)
        for key in range(0, 120, 3):
            table.delete(key)

    def reader():
        for _sweep in range(4):
            for key in range(120):
                table.lookup(key)

    with LocksetSanitizer() as sanitizer:
        _run_concurrently(writer, reader, reader)
    assert sanitizer.reports == [], [
        r.format() for r in sanitizer.reports
    ]


def test_buffer_pool_is_silent_under_sanitizer():
    pool = BufferPool(1 << 20)

    def churn():
        for size in (100, 600, 3000, 100):
            for _ in range(20):
                buffer = pool.allocate(size)
                assert buffer is not None
                buffer.release()

    with LocksetSanitizer() as sanitizer:
        _run_concurrently(churn, churn)
    assert sanitizer.reports == []
    assert pool.stats.bytes_in_use == 0


def test_lock_ring_is_silent_under_sanitizer():
    ring = LockRing(1 << 14)
    per_producer = 40

    def producer():
        for n in range(per_producer):
            while not ring.try_enqueue(b"x%02d" % n):
                pass

    consumed = []

    def consumer():
        while len(consumed) < 2 * per_producer:
            batch = ring.try_consume()
            if batch:
                consumed.extend(batch)

    with LocksetSanitizer() as sanitizer:
        _run_concurrently(producer, producer, consumer)
    assert len(consumed) == 2 * per_producer
    assert sanitizer.reports == []


def test_response_buffer_pipeline_is_silent():
    buffer = ResponseBuffer(1 << 16, delivery_batch=64)
    count = 24
    responses = [buffer.allocate(i, 32) for i in range(count)]
    assert all(r is not None for r in responses)
    delivered = []

    def completer():
        for response in responses:
            response.complete(ResponseStatus.SUCCESS, b"d" * 32)

    def harvester():
        while len(delivered) < count:
            buffer.harvest()
            batch = buffer.take_delivery(force=True)
            if batch:
                buffer.mark_delivered(batch)
                delivered.extend(batch)

    with LocksetSanitizer() as sanitizer:
        _run_concurrently(completer, harvester)
    assert [r.request_id for r in delivered] == list(range(count))
    assert sanitizer.reports == [], [
        r.format() for r in sanitizer.reports
    ]
