"""Log server and compute server for the §9.1 architecture.

The paper's Hyperscale-like deployment has three machines: a *compute
server* executing queries over a buffer pool, a *page server* storing
the partition, and a *log server* that decouples logging from data
storage.  The primary ships log to the log server; page servers pull
record batches from it for replay; compute servers send GetPage@LSN
only on buffer-pool misses.

:class:`LogServer` produces a totally-ordered log and serves batched
pulls (each pull pays one network round trip on the shared link).
:class:`ComputeServer` wraps a storage server with an LRU buffer pool:
hits are memory-speed, misses become GetPage@LSN requests tagged with
the compute server's *applied LSN* — the freshness contract §9.1's
offload predicate enforces.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Generator, List, Optional

from ..core.messages import IoRequest, IoResponse, OpCode
from ..hardware.nic import NetworkLink
from ..hardware.specs import MICROSECOND
from ..net.packet import FiveTuple
from ..sim import Environment, SeededRng, Store
from .pageserver import PAGE_BYTES

__all__ = ["LogRecord", "LogServer", "ComputeServer"]


@dataclass(frozen=True)
class LogRecord:
    """One log record: which page it touches and its LSN."""

    lsn: int
    page_id: int
    payload_bytes: int = 96  # typical small log record


class LogServer:
    """Orders the primary's log and serves batched pulls to replayers."""

    #: Network cost of one pull (request + response headers).
    PULL_OVERHEAD_BYTES = 64

    def __init__(
        self,
        env: Environment,
        link: NetworkLink,
        pages: int,
        record_rate: float,
    ) -> None:
        if record_rate < 0:
            raise ValueError("record rate must be non-negative")
        self.env = env
        self.link = link
        self.pages = pages
        self.record_rate = record_rate
        self.rng = SeededRng(41)
        self.head_lsn = 0           # newest record produced
        self._queue: Store = Store(env)
        self.records_produced = 0
        self.records_shipped = 0
        if record_rate > 0:
            env.process(self._producer())

    def _producer(self) -> Generator:
        """The primary's log stream arriving at the log server."""
        while True:
            yield self.env.timeout(self.rng.exponential(1 / self.record_rate))
            self.head_lsn += 1
            record = LogRecord(
                lsn=self.head_lsn,
                page_id=self.rng.randrange(self.pages),
            )
            self._queue.try_put(record)
            self.records_produced += 1

    def pull_batch(self, max_records: int = 32) -> Generator:
        """One page-server pull: blocks until at least one record.

        Returns up to ``max_records`` in LSN order, charging the network
        for the shipped bytes.
        """
        if max_records < 1:
            raise ValueError("max_records must be >= 1")
        first = yield self._queue.get()
        batch: List[LogRecord] = [first]
        while len(batch) < max_records:
            record = self._queue.try_get()
            if record is None:
                break
            batch.append(record)
        shipped = self.PULL_OVERHEAD_BYTES + sum(
            r.payload_bytes for r in batch
        )
        yield from self.link.transmit("server_to_client", shipped)
        self.records_shipped += len(batch)
        return batch


class ComputeServer:
    """A compute node: LRU buffer pool in front of GetPage@LSN misses."""

    #: CPU-free memory access time for a buffer-pool hit.
    HIT_TIME = 0.5 * MICROSECOND

    def __init__(
        self,
        env: Environment,
        storage_server,
        rbpex_file_id: int,
        pool_pages: int,
        applied_lsn_of=None,
        flow: Optional[FiveTuple] = None,
    ) -> None:
        if pool_pages < 1:
            raise ValueError("buffer pool needs at least one page")
        self.env = env
        self.storage_server = storage_server
        self.rbpex_file_id = rbpex_file_id
        self.pool_pages = pool_pages
        #: Callable returning the LSN this compute server has observed
        #: from the log (what a GetPage@LSN request demands).  Defaults
        #: to 0 (any page version acceptable).
        self.applied_lsn_of = applied_lsn_of or (lambda page_id: 0)
        self.flow = flow or FiveTuple("10.0.0.3", 41_000, "10.0.0.1", 5000)
        self._pool: "OrderedDict[int, bytes]" = OrderedDict()
        self._next_request_id = 1
        self.hits = 0
        self.misses = 0
        self.failed_fetches = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def invalidate(self, page_id: int) -> None:
        """Drop a cached page (e.g., after observing a log record)."""
        self._pool.pop(page_id, None)

    def access(self, page_id: int) -> Generator:
        """Read one page through the buffer pool; returns its bytes."""
        cached = self._pool.get(page_id)
        if cached is not None:
            self._pool.move_to_end(page_id)
            self.hits += 1
            yield self.env.timeout(self.HIT_TIME)
            return cached
        self.misses += 1
        page = yield from self._fetch(page_id)
        if page is not None:
            self._pool[page_id] = page
            if len(self._pool) > self.pool_pages:
                self._pool.popitem(last=False)  # evict LRU
        return page

    def _fetch(self, page_id: int) -> Generator:
        request = IoRequest(
            OpCode.READ,
            self._take_request_id(),
            self.rbpex_file_id,
            page_id * PAGE_BYTES,
            PAGE_BYTES,
            tag=self.applied_lsn_of(page_id),
        )
        responses: List[IoResponse] = []
        done = self.storage_server.submit(
            self.flow, [request], responses.append
        )
        yield done
        response = responses[0]
        if not response.ok:
            self.failed_fetches += 1
            return None
        return response.data

    def _take_request_id(self) -> int:
        request_id = self._next_request_id
        self._next_request_id += 1
        return request_id
