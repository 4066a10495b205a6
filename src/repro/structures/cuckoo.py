"""The DDS cache table: a cuckoo hash table with bucket chaining (§6.1).

Design requirements from Table 2: lookups must not compromise DPU packet
processing (tens of millions of ops/s => worst-case constant lookups,
which cuckoo hashing provides by probing exactly two buckets), while
inserts arrive at file-write rate (millions of ops/s => collisions on
insert are absorbed by *chaining* extra items in a bucket rather than
failing or resizing).  Capacity is fixed up front — the user declares the
maximum number of cache items so the DPU memory can be reserved and the
table never resizes at runtime.

Concurrency model (Table 2): a single writer (the file service executing
``Cache``/``Invalidate``) and multiple readers (traffic director and
offload engine executing ``OffPred``/``OffFunc``).  Writes take the
writer lock; reads are lock-free.  The reader guarantee is: **a key that
has been inserted and not deleted is visible to every lookup**, at every
instant.  Three mechanisms uphold it:

* Cuckoo displacement precomputes the whole displacement path, then
  executes the moves *backwards* — each displaced item is appended to
  its destination bucket before its source slot is overwritten (the
  MemC3/libcuckoo discipline).  A reader may transiently see a key in
  both buckets, which lookup tolerates; it can never see it in neither.
  (The original forward walk parked the carried victim outside the table
  for a full kick iteration; the deterministic interleaving harness in
  :mod:`repro.concurrency` reproduces that reader-miss from a seed.)
* Deletion replaces the bucket list wholesale (copy-on-write) instead of
  ``del bucket[i]``, which would shift entries under a concurrent
  reader's iterator and make it skip an unrelated key.
* Read-side stats are accumulated locally per call and published with
  :class:`~repro.structures.atomics.AtomicCounter` adds, so concurrent
  readers don't corrupt them (see :class:`CacheTableStats` for the
  exact-vs-approximate contract).

All shared-state accesses pass a ``yield_point`` schedule hook (no-op in
production) so the interleaving harness can context-switch there.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, Iterator, List, Optional, Tuple

from repro.concurrency.hooks import yield_point

from .atomics import AtomicCounter

__all__ = ["CacheTableStats", "CuckooCacheTable"]

_SALT1 = 0x9E3779B97F4A7C15
_SALT2 = 0xC2B2AE3D27D4EB4F


class CacheTableStats:
    """Operation counters for one cache table.

    Exactness contract:

    * **Writer-side counters are exact** — ``inserts``, ``deletes``,
      ``displacements``, ``chained_inserts``, ``rejected_full`` are only
      mutated under the writer lock.
    * **Read-side counters are exact but published per call** —
      ``lookups`` and ``hits`` are decided during a lookup and published
      at its end with atomic adds, so concurrent readers never lose
      updates.  A reader mid-lookup has not published yet, so a snapshot
      taken *during* concurrent reads can trail reality by up to one
      lookup per in-flight reader; ratios like :attr:`hit_rate` are
      therefore momentarily approximate, and exact once readers quiesce.
    """

    __slots__ = (
        "inserts",
        "deletes",
        "displacements",
        "chained_inserts",
        "rejected_full",
        "_lookups",
        "_hits",
    )

    def __init__(self) -> None:
        self.inserts = 0
        self.deletes = 0
        self.displacements = 0
        self.chained_inserts = 0
        self.rejected_full = 0
        self._lookups = AtomicCounter(0)
        self._hits = AtomicCounter(0)

    # -- read-side counters (atomic) -----------------------------------
    @property
    def lookups(self) -> int:
        return self._lookups.load()

    @property
    def hits(self) -> int:
        return self._hits.load()

    def record_lookup(self, hit: bool) -> None:
        """Publish one lookup's counters."""
        self._lookups.fetch_add(1)
        if hit:
            self._hits.fetch_add(1)

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def __repr__(self) -> str:
        return (
            f"CacheTableStats(inserts={self.inserts}, "
            f"lookups={self.lookups}, hits={self.hits}, "
            f"deletes={self.deletes}, displacements={self.displacements}, "
            f"chained_inserts={self.chained_inserts}, "
            f"rejected_full={self.rejected_full})"
        )


class CuckooCacheTable:
    """Fixed-capacity 2-choice cuckoo hash table with bucket chaining."""

    _DDSLINT_EXEMPT = {
        "_buckets": (
            "mutated only in _place/_update_in_place, which run under "
            "the writer lock held by their sole callers insert/delete; "
            "lock-free readers are protected by the append-before-erase "
            "and copy-on-write move order, checked per schedule by "
            "CuckooVisibilityChecker"
        ),
        "stats": (
            "writer-side counters are mutated only under the writer "
            "lock (directly or in _place); read-side counters go "
            "through AtomicCounter in CacheTableStats"
        ),
    }

    def __init__(
        self,
        max_items: int,
        slots_per_bucket: int = 4,
        max_kicks: int = 32,
    ) -> None:
        if max_items < 1:
            raise ValueError("max_items must be >= 1")
        if slots_per_bucket < 1:
            raise ValueError("slots_per_bucket must be >= 1")
        self.max_items = max_items
        self.slots_per_bucket = slots_per_bucket
        self.max_kicks = max_kicks
        # Size the bucket array for ~70% nominal load at capacity, with a
        # floor so tiny tables still have two distinct buckets to probe.
        nominal = max(2, int(max_items / (0.7 * slots_per_bucket)) + 1)
        self._nbuckets = nominal
        # Only written buckets exist: the table costs what it holds, so
        # a fresh million-item table commits no per-bucket memory.  A
        # missing index reads as an empty bucket everywhere.
        self._buckets: Dict[int, List[Tuple[Hashable, Any]]] = {}
        self._count = 0
        self._writer_lock = threading.Lock()
        self.stats = CacheTableStats()
        self._key = ("cuckoo", id(self))

    # ------------------------------------------------------------------
    # hashing
    # ------------------------------------------------------------------
    def _index1(self, key: Hashable) -> int:
        return (hash(key) ^ _SALT1) % self._nbuckets

    def _index2(self, key: Hashable) -> int:
        return ((hash(key) * 0x100000001B3) ^ _SALT2) % self._nbuckets

    def _alternate(self, key: Hashable, index: int) -> int:
        one, two = self._index1(key), self._index2(key)
        return two if index == one else one

    def _bucket_key(self, index: int) -> Tuple[str, int, int]:
        """DPOR location key for one bucket's contents."""
        return ("cuckoo.bucket", id(self), index)

    # ------------------------------------------------------------------
    # reads (lock-free)
    # ------------------------------------------------------------------
    def lookup(self, key: Hashable, default: Any = None) -> Any:
        """Worst-case constant-time lookup: probes exactly two buckets.

        Stats are accumulated locally and published once at the end, so
        any number of concurrent readers keep the counters exact.
        """
        found = False
        result = default
        for index in (self._index1(key), self._index2(key)):
            yield_point("cuckoo.probe", self._bucket_key(index))
            bucket = self._buckets.get(index, ())
            for entry_key, entry_value in bucket:
                if entry_key == key:
                    found = True
                    result = entry_value
                    break
            if found:
                break
        self.stats.record_lookup(found)
        return result

    def __contains__(self, key: Hashable) -> bool:
        sentinel = object()
        return self.lookup(key, sentinel) is not sentinel

    def __len__(self) -> int:
        return self._count

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """Entries in bucket-index order (test/debug; not concurrency-safe)."""
        for index in sorted(self._buckets):
            yield from self._buckets[index]

    # ------------------------------------------------------------------
    # writes (single writer)
    # ------------------------------------------------------------------
    def insert(self, key: Hashable, value: Any) -> bool:
        """Insert or update; False when the table is at declared capacity."""
        yield_point("cuckoo.insert", self._key)
        with self._writer_lock:
            self.stats.inserts += 1
            if self._update_in_place(key, value):
                return True
            if self._count >= self.max_items:
                self.stats.rejected_full += 1
                return False
            self._place(key, value)
            self._count += 1
            return True

    def delete(self, key: Hashable) -> bool:
        """Remove ``key``; True if it was present.

        The bucket list is replaced wholesale rather than edited with
        ``del``: a lock-free reader mid-iteration keeps its consistent
        snapshot, instead of having entries shift underneath it (which
        could make it skip — and "miss" — a key unrelated to the one
        being deleted).
        """
        yield_point("cuckoo.delete", self._key)
        with self._writer_lock:
            self.stats.deletes += 1
            for index in (self._index1(key), self._index2(key)):
                bucket = self._buckets.get(index, ())
                for position, (entry_key, _val) in enumerate(bucket):
                    if entry_key == key:
                        yield_point(
                            "cuckoo.bucket_replace", self._bucket_key(index)
                        )
                        self._buckets[index] = (
                            bucket[:position] + bucket[position + 1 :]
                        )
                        self._count -= 1
                        return True
            return False

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _bucket_len(self, index: int) -> int:
        return len(self._buckets.get(index, ()))

    def _materialize(self, index: int) -> List[Tuple[Hashable, Any]]:
        """The bucket list at ``index``, created on first write.

        The first store under a new key happens under the writer lock and
        is atomic for lock-free readers (a missing index reads as empty).
        """
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = []
            # ddslint: disable=DDS201 -- atomic first store under a new key, invisible to readers; callers yield first
            self._buckets[index] = bucket
        return bucket

    def _update_in_place(self, key: Hashable, value: Any) -> bool:
        for index in (self._index1(key), self._index2(key)):
            bucket = self._buckets.get(index, ())
            for position, (entry_key, _val) in enumerate(bucket):
                if entry_key == key:
                    # Single-slot tuple swap: atomic for readers.
                    yield_point(
                        "cuckoo.bucket_update", self._bucket_key(index)
                    )
                    bucket[position] = (key, value)
                    return True
        return False

    def _find_path(self, start: int) -> Optional[List[int]]:
        """Walk victims from ``start`` to a bucket with nominal space.

        Read-only: returns the bucket index chain ``[start, ..., free]``
        or None when no free bucket is reachable within ``max_kicks``
        (or the walk revisits a bucket, which the backward-move executor
        does not support).  Victims are always slot 0, matching the
        eviction choice of the original forward walk.
        """
        path = [start]
        seen = {start}
        index = start
        for _kick in range(self.max_kicks):
            victim_key, _victim_value = self._buckets[index][0]
            alternate = self._alternate(victim_key, index)
            if alternate in seen:
                return None
            path.append(alternate)
            if self._bucket_len(alternate) < self.slots_per_bucket:
                return path
            seen.add(alternate)
            index = alternate
        return None

    def _place(self, key: Hashable, value: Any) -> None:
        """Cuckoo placement with lock-free-reader-safe move order.

        The displacement path is precomputed (reads only), then executed
        *backwards*: the item nearest the free slot moves first, and
        every move appends to the destination bucket **before** erasing
        the source slot.  Readers can transiently observe an item in two
        buckets (benign — lookup returns the first match and both carry
        the same value) but never in zero buckets.  Chaining (appending
        past the nominal slot count) bounds insert latency when no path
        exists, at the cost of slightly longer probes in that bucket —
        the trade §6.1 describes.
        """
        index1, index2 = self._index1(key), self._index2(key)
        for index in (index1, index2):
            if self._bucket_len(index) < self.slots_per_bucket:
                yield_point("cuckoo.bucket_append", self._bucket_key(index))
                self._materialize(index).append((key, value))
                return

        path = self._find_path(index1)
        if path is None:
            # No displacement path: chain the *new* item in its first
            # bucket.  Nothing is ever removed, so readers are unaffected.
            yield_point("cuckoo.bucket_append", self._bucket_key(index1))
            self._materialize(index1).append((key, value))
            self.stats.chained_inserts += 1
            return

        # Execute moves from the free end backwards.  For each hop
        # src -> dst: copy src's slot-0 item into dst, then rebuild src
        # without slot 0 (copy-on-write, like delete()).  After the final
        # hop, path[0] has nominal space for the new key.
        for hop in range(len(path) - 2, -1, -1):
            src, dst = path[hop], path[hop + 1]
            moved = self._buckets[src][0]
            yield_point("cuckoo.bucket_append", self._bucket_key(dst))
            self._materialize(dst).append(moved)
            yield_point("cuckoo.bucket_replace", self._bucket_key(src))
            self._buckets[src] = self._buckets[src][1:]
            self.stats.displacements += 1
        yield_point("cuckoo.bucket_append", self._bucket_key(index1))
        self._materialize(index1).append((key, value))
