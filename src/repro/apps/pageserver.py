"""A Hyperscale-like page server (§9.1, Figures 2 and 24).

The page server stores a partition of the database in an RBPEX file on
local SSDs and continuously *replays log records* to refresh pages
(here a Poisson stream of records onto random pages, standing in for
the log server's feed).  Compute servers send **GetPage@LSN** requests
on cache misses: the returned page must reflect all updates up to the
requested LSN.

Pages are 8 KiB and self-describing: the first 16 bytes hold
``page_lsn(8) | page_id(8)``, which is what the cache-on-write hook
parses.  The DDS integration (the paper's "hundreds of lines"):

* ``Cache`` — on every RBPEX write, cache ``{page_id -> (lsn, offset)}``;
* ``Invalidate`` — when the host reads a page to replay log onto it,
  drop its entry so remote reads of the in-flux page divert to the host;
* ``OffPred`` — offload a GetPage@LSN iff the cached LSN >= requested;
* ``OffFunc`` — build the RBPEX read from the cached offset.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..bench.harness import AppResult, bring_up, measure_app
from ..core.api import OffloadCallbacks, ReadOp, WriteOp
from ..core.client import ClientConfig
from ..core.messages import IoRequest, IoResponse, OpCode
from ..hardware.cpu import CpuPool
from ..hardware.specs import HOST_APP_NET, MICROSECOND
from ..sim import Environment, SeededRng
from ..topology.registry import build_server

__all__ = [
    "PAGE_BYTES",
    "PAGE_HEADER",
    "make_page",
    "parse_page_header",
    "pageserver_callbacks",
    "PageServerCluster",
    "build_pageserver_cluster",
    "run_pageserver_experiment",
]

PAGE_BYTES = 8192
#: The §9.1 partition (128 MiB, a scaled-down 128 GB) and its log
#: replay rate (pages/s).
PAGES = 16_384
REPLAY_RATE = 2_000.0
PAGE_HEADER = struct.Struct("<QQ")  # page_lsn, page_id


def make_page(page_id: int, lsn: int) -> bytes:
    """Materialize one page image with its self-describing header."""
    header = PAGE_HEADER.pack(lsn, page_id)
    return header + bytes(PAGE_BYTES - PAGE_HEADER.size)


def parse_page_header(page: bytes) -> Tuple[int, int]:
    """(lsn, page_id) from a page image."""
    return PAGE_HEADER.unpack_from(page)


def pageserver_callbacks(rbpex_file_id: int) -> OffloadCallbacks:
    """The §9.1 offload plan for GetPage@LSN."""

    def cache(write_op: WriteOp) -> List[Tuple[tuple, tuple]]:
        page = write_op.context
        if page is None or len(page) < PAGE_HEADER.size:
            return []
        items = []
        # A write may carry several pages (log replay batches them).
        for start in range(0, len(page) - PAGE_BYTES + 1, PAGE_BYTES):
            lsn, page_id = PAGE_HEADER.unpack_from(page, start)
            items.append(
                (("page", page_id), (lsn, write_op.offset + start))
            )
        return items

    def invalidate(read_op: ReadOp) -> List[tuple]:
        # The host reads pages only to replay log onto them; every page
        # in the range is about to be stale.
        first = read_op.offset // PAGE_BYTES
        last = (read_op.offset + max(read_op.size, 1) - 1) // PAGE_BYTES
        return [("page", page_id) for page_id in range(first, last + 1)]

    def off_pred(
        requests: Sequence[IoRequest], table
    ) -> Tuple[List[IoRequest], List[IoRequest]]:
        host: List[IoRequest] = []
        dpu: List[IoRequest] = []
        for request in requests:
            entry = None
            if request.op is OpCode.READ:
                entry = table.lookup(("page", request.offset // PAGE_BYTES))
            # Offload iff the cached page is fresh enough for the
            # requested LSN (request.tag).
            if entry is not None and entry[0] >= request.tag:
                dpu.append(request)
            else:
                host.append(request)
        return host, dpu

    def off_func(request: IoRequest, table) -> Optional[ReadOp]:
        entry = table.lookup(("page", request.offset // PAGE_BYTES))
        if entry is None or entry[0] < request.tag:
            return None
        _lsn, offset = entry
        return ReadOp(request.file_id, offset, PAGE_BYTES)

    return OffloadCallbacks(
        off_pred=off_pred,
        off_func=off_func,
        cache=cache,
        invalidate=invalidate,
    )


class _PageServerApp:
    """Host-side page-server logic shared by both deployments.

    Tracks per-page LSNs, runs the log-replay loop, and answers
    GetPage@LSN requests that reach the host (waiting for replay when
    the requested LSN is ahead of the page).
    """

    #: Serialized SQL-stack work per served page (the I/O dispatch /
    #: completion thread), which caps the baseline's page rate.
    SQL_DISPATCH_COST = 6.0 * MICROSECOND
    #: Parallel SQL-stack work per served page (buffer manager, checks).
    SQL_PAGE_COST = 8.0 * MICROSECOND
    #: CPU to apply one log record to a page.
    REPLAY_APPLY_COST = 4.0 * MICROSECOND

    def __init__(
        self,
        env: Environment,
        host_pool,
        rbpex_file_id: int,
        pages: int,
        device,
        rng: SeededRng,
    ) -> None:
        self.env = env
        self.host_pool = host_pool
        self.rbpex_file_id = rbpex_file_id
        self.pages = pages
        #: The RBPEX file's ``IDevice`` (OS files or the DDS library).
        self.device = device
        self.rng = rng
        self.page_lsns: Dict[int, int] = {p: 0 for p in range(pages)}
        self.current_lsn = 0
        self.dispatch_core = CpuPool(env, speed=1.0, name="sql-dispatch")
        self._lsn_waiters: List[tuple] = []
        self.pages_served = 0
        self.records_replayed = 0

    # ------------------------------------------------------------------
    # log replay
    # ------------------------------------------------------------------
    def start_replay(self, records_per_second: float) -> None:
        """Continuously replay log records onto random pages."""
        if records_per_second > 0:
            self.env.process(self._replay_loop(records_per_second))

    def _replay_loop(self, rate: float) -> Generator:
        while True:
            yield self.env.now + self.rng.exponential(1.0 / rate)
            page_id = self.rng.randrange(self.pages)
            self.current_lsn += 1
            lsn = self.current_lsn
            yield from self._replay_one(page_id, lsn)

    def _replay_one(self, page_id: int, lsn: int) -> Generator:
        offset = page_id * PAGE_BYTES
        # Read the page (invalidate-on-read fires in the file service),
        # apply the record, write it back (cache-on-write re-caches it).
        yield from self.device.read(offset, PAGE_BYTES)
        yield from self.host_pool.execute(self.REPLAY_APPLY_COST)
        yield from self.device.write(offset, make_page(page_id, lsn))
        self.page_lsns[page_id] = lsn
        self.records_replayed += 1
        still_waiting = []
        for waited_page, waited_lsn, event in self._lsn_waiters:
            if waited_page == page_id and lsn >= waited_lsn:
                event.succeed()
            else:
                still_waiting.append((waited_page, waited_lsn, event))
        self._lsn_waiters = still_waiting

    # ------------------------------------------------------------------
    # GetPage@LSN (host path)
    # ------------------------------------------------------------------
    def get_page(self, request: IoRequest) -> Generator:
        """Serve one GetPage@LSN on the host."""
        page_id = request.offset // PAGE_BYTES
        wanted_lsn = request.tag
        yield from self.dispatch_core.execute(self.SQL_DISPATCH_COST)
        yield from self.host_pool.execute(self.SQL_PAGE_COST)
        if self.page_lsns.get(page_id, 0) < wanted_lsn:
            # The page is behind the requested LSN: wait for replay.
            gate = self.env.event()
            self._lsn_waiters.append((page_id, wanted_lsn, gate))
            yield gate
        data = yield from self.device.read(page_id * PAGE_BYTES, PAGE_BYTES)
        self.pages_served += 1
        return IoResponse(request.request_id, True, data)


@dataclass
class PageServerCluster:
    """A ready-to-drive page-server deployment."""

    env: Environment
    server: object
    app: _PageServerApp
    rbpex_file_id: int
    pages: int


def build_pageserver_cluster(
    kind: str, pages: int = PAGES, replay_rate: float = REPLAY_RATE
) -> PageServerCluster:
    """Assemble the §9.1 setup: RBPEX on local SSD, replay, GetPage@LSN."""
    if kind not in ("baseline", "dds"):
        raise ValueError(f"unknown page-server deployment: {kind!r}")
    offload = kind == "dds"
    env, fs, link = bring_up(pages * PAGE_BYTES + (64 << 20))
    fs.create_directory("rbpex")
    rbpex = fs.create_file("rbpex", "data")
    # Materialize every page at LSN 0.
    fs.preallocate(rbpex, pages * PAGE_BYTES)
    for page_id in range(pages):
        fs.write_sync(
            rbpex,
            page_id * PAGE_BYTES,
            PAGE_HEADER.pack(0, page_id),
        )

    server = build_server(
        "dds-offload" if offload else "baseline", env, link, fs,
        callbacks=pageserver_callbacks(rbpex),
        host_app=lambda request: app.get_page(request),  # built below
        app_net_spec=HOST_APP_NET,
    )
    backend = server.shards[0].backend if offload else server.execution
    app = _PageServerApp(
        env, server.host_pool, rbpex, pages, backend.device(rbpex),
        SeededRng(23),
    )
    if offload:
        # Seed the cache table: every page is clean at LSN 0.
        for page_id in range(pages):
            server.shards[0].cache_table.insert(
                ("page", page_id), (0, page_id * PAGE_BYTES)
            )
    app.start_replay(replay_rate)
    return PageServerCluster(
        env=env, server=server, app=app, rbpex_file_id=rbpex, pages=pages
    )


def run_pageserver_experiment(
    kind: str,
    offered_pages: float,
    total_requests: int = 6_000,
    max_outstanding: int = 128,
) -> AppResult:
    """Drive GetPage@LSN traffic at one offered rate (messages of two
    requests, seed 23).

    Requests ask for the page's current LSN (the common case: the
    compute server read the log up to what the page server replayed);
    pages being replayed at that instant divert to the host.
    """
    cluster = build_pageserver_cluster(
        kind, pages=PAGES, replay_rate=REPLAY_RATE
    )
    app = cluster.app
    rng = SeededRng(24)

    def factory(request_id: int, _rng) -> IoRequest:
        page_id = rng.randrange(cluster.pages)
        wanted = app.page_lsns.get(page_id, 0)
        return IoRequest(
            OpCode.READ,
            request_id,
            cluster.rbpex_file_id,
            page_id * PAGE_BYTES,
            PAGE_BYTES,
            tag=wanted,
        )

    config = ClientConfig(
        offered_iops=offered_pages,
        total_requests=total_requests,
        io_size=PAGE_BYTES,
        batch=2,
        max_outstanding=max_outstanding,
        seed=25,
    )
    point = measure_app(
        kind, cluster.env, cluster.server, cluster.rbpex_file_id, config,
        factory,
    )
    if kind == "baseline":
        # Figure 2's split of the host's cores; the SQL dispatch thread
        # is a core of the app's own, outside the server's roll-up.
        elapsed = point.elapsed
        dispatch = app.dispatch_core.cores_consumed(elapsed)
        _wire, os_tcp, app_net, execution, _egress = cluster.server.stages
        point.breakdown = {
            "dbms-network": app_net.layer.cores_consumed(elapsed),
            "os-network": os_tcp.layer.cores_consumed(elapsed),
            "filesystem": execution.osfs.layer.cores_consumed(elapsed)
            + execution.osfs.serializer.cores_consumed(elapsed),
            "dbms-other": execution.app_other.cores_consumed(elapsed)
            + dispatch,
        }
        point.host_cores += dispatch
    return point
