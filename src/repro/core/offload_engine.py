"""The offload engine (§6, Figure 13): executing reads entirely on the DPU.

For each offloadable request the engine (1) applies the user's
``off_func`` to produce a file :class:`~repro.core.api.ReadOp`, (2) leases
a read buffer from the pre-allocated DMA pool so the SSD writes straight
into what will become the packet payload (Figure 12's zero-copy), and
(3) book-keeps the operation in a fixed-size *context ring* that enforces
response ordering: completions are only released from the head, so
responses leave in request order even though the device completes out of
order.

Backpressure follows Figure 13 lines 5-7: when the context ring (or the
buffer pool) is exhausted, ``handle`` returns False and the traffic
director forwards the request to the host instead.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Generator, List, Optional

from ..concurrency.hooks import yield_point
from ..hardware.cpu import CpuPool
from ..hardware.specs import MICROSECOND
from ..sim import Environment, Store
from ..structures.atomics import AtomicCounter
from ..structures.cuckoo import CuckooCacheTable
from ..structures.memory import BufferPool, DmaBuffer
from ..structures.response import ResponseStatus
from .api import OffloadCallbacks
from .file_service import DpuFileService
from .messages import IoRequest, IoResponse

__all__ = ["OffloadEngine", "ContextStatus", "Context"]


class ContextStatus(Enum):
    """Completion status of one context-ring slot."""

    PENDING = "pending"
    COMPLETE = "complete"
    FAILED = "failed"


class Context:
    """Book-keeping for one in-flight offloaded read (Figure 13)."""

    __slots__ = ("request", "read_op", "buffer", "respond", "status", "data")

    def __init__(
        self,
        request: IoRequest,
        read_op,
        buffer: Optional[DmaBuffer],
        respond: Callable,
    ) -> None:
        self.request = request
        self.read_op = read_op
        self.buffer = buffer
        self.respond = respond
        self.status = ContextStatus.PENDING
        self.data: Optional[bytes] = None


class OffloadEngine:
    """Context-ring execution of offloaded reads with zero-copy buffers."""

    _DDSLINT_EXEMPT = {
        "_ring": (
            "slot ownership: intake writes the slot whose index it "
            "reserved with the tail fetch_add; the completion walker "
            "clears only [head, tail) slots whose status has published"
        ),
    }

    #: Host-core-seconds to run OffFunc + bookkeeping per request.
    OFFFUNC_COST = 0.06 * MICROSECOND
    #: Host-core-seconds to build indirect packet buffers per response.
    CREATE_PKTS_COST = 0.06 * MICROSECOND
    #: copy_mode only: straw-man per-byte copy between file service and
    #: packet buffers (§6.2's rejected design, ablated in Figure 23).
    COPY_COST_PER_BYTE = 0.20e-9

    def __init__(
        self,
        env: Environment,
        core: CpuPool,
        file_service: DpuFileService,
        callbacks: OffloadCallbacks,
        cache_table: CuckooCacheTable,
        pool: Optional[BufferPool] = None,
        context_slots: int = 512,
        copy_mode: bool = False,
    ) -> None:
        if context_slots < 1:
            raise ValueError("context ring needs at least one slot")
        self.env = env
        self.core = core
        self.file_service = file_service
        self.callbacks = callbacks
        self.cache_table = cache_table
        self.pool = pool if pool is not None else BufferPool(256 << 20)
        self.context_slots = context_slots
        self.copy_mode = copy_mode
        self._ring: List[Optional[Context]] = [None] * context_slots
        self._head = AtomicCounter(0)
        self._tail = AtomicCounter(0)
        self._completing = False  # re-entrancy guard for _complete_ready
        self._crashed = False
        # Bumped on every crash: completion walkers that resumed from a
        # yield across a crash observe the bump and stand down instead
        # of touching the (cleared) ring.
        self._epoch = AtomicCounter(0)
        self._notify: Store = Store(env)
        env.process(self._completion_pump())

    # ------------------------------------------------------------------
    # crash / restart (chaos layer)
    # ------------------------------------------------------------------
    @property
    def crashed(self) -> bool:
        """True while the engine is down (intake rejects everything)."""
        return self._crashed

    def crash(self) -> int:
        """Kill the engine: every in-flight context is lost, unanswered.

        Models a DPU software crash — the context ring, the leased DMA
        buffers, and the pending responses all vanish.  Returns how many
        contexts were dropped (their clients recover via retry).  The
        engine object itself survives so :meth:`restart` can bring it
        back with an empty ring.
        """
        if self._crashed:
            raise RuntimeError("offload engine is already crashed")
        self._crashed = True
        self._epoch.fetch_add(1)
        dropped = 0
        for slot in range(self.context_slots):
            context = self._ring[slot]
            if context is None:
                continue
            yield_point("engine.ctx_slot", ("engine.ring", id(self), slot))
            self._ring[slot] = None
            if context.buffer is not None:
                context.buffer.release()
            dropped += 1
        # Head catches up to tail: the ring restarts empty.
        self._head.store(self._tail.load())
        return dropped

    def restart(self) -> None:
        """Bring a crashed engine back with an empty context ring."""
        if not self._crashed:
            raise RuntimeError("offload engine is not crashed")
        self._crashed = False

    # ------------------------------------------------------------------
    # request intake (runs on the director's core)
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self._tail.load() - self._head.load()

    def handle(
        self,
        request: IoRequest,
        respond: Callable,
        on_bounce: Optional[Callable[[str], None]] = None,
    ) -> Generator:
        """Try to execute ``request`` on the DPU; False -> host fallback.

        ``respond(IoResponse)`` is invoked (via the traffic director) when
        this request's turn at the head of the context ring comes up.
        ``on_bounce`` (optional) is called synchronously with the bounce
        kind — ``"off-func"`` (policy declined), ``"no-buffer"`` or
        ``"ring-full"`` (capacity) — so the caller can tell a saturated
        engine from one that simply does not want the request.
        """
        if self._crashed:
            return False  # dead engine: no cost, immediate host fallback
        if not self._completing:  # the walk's own guard, before building it
            yield from self._complete_ready()
        yield from self.core.execute(self.OFFFUNC_COST)
        if self._crashed:
            # The engine died while this intake was on the core.
            return False
        read_op = self.callbacks.off_func(request, self.cache_table)
        if read_op is None:
            if on_bounce is not None:
                on_bounce("off-func")
            return False
        size = max(1, read_op.size)
        # A read no size class holds gets no lease, like an empty pool.
        buffer = (
            self.pool.allocate(size) if size <= self.pool.MAX_CLASS else None
        )
        if buffer is None:
            if on_bounce is not None:
                on_bounce("no-buffer")
            return False
        # The capacity check and the slot insert must not be separated
        # by a simulation yield: concurrent handle() calls would
        # otherwise both pass the check and overwrite a live slot.  The
        # tail fetch_add *reserves* the slot index (like ProgressRing's
        # tail CAS), so the subsequent slot write is exclusively owned.
        if self.in_flight >= self.context_slots:
            buffer.release()
            if on_bounce is not None:
                on_bounce("ring-full")
            return False
        context = Context(request, read_op, buffer, respond)
        tail = self._tail.fetch_add(1)
        slot = tail % self.context_slots
        yield_point("engine.ctx_slot", ("engine.ring", id(self), slot))
        self._ring[slot] = context
        self.env.process(
            self.file_service.execute_offloaded(
                read_op, self._completion_callback(context)
            )
        )
        return True

    def _completion_callback(self, context: Context) -> Callable:
        def on_complete(status: ResponseStatus, data: Optional[bytes]):
            if status is ResponseStatus.SUCCESS:
                context.status = ContextStatus.COMPLETE
                context.data = data
            else:
                context.status = ContextStatus.FAILED
            self._notify.try_put(True)

        return on_complete

    # ------------------------------------------------------------------
    # ordered completion (Figure 13, CompletePending)
    # ------------------------------------------------------------------
    def _completion_pump(self) -> Generator:
        """Continually process completions (Figure 13 line 16)."""
        while True:
            yield self._notify.get()
            yield from self._complete_ready()

    def _complete_ready(self) -> Generator:
        """Release completed contexts from the head, preserving order.

        Both the intake path and the completion pump call this; the
        guard ensures only one walker advances the head at a time (the
        engine is single-core, so concurrent walkers would model a data
        race that the real single-threaded engine cannot have).
        """
        if self._completing:
            return
        self._completing = True
        epoch = self._epoch.load()
        try:
            while True:
                head = self._head.load()
                if head >= self._tail.load():
                    break
                slot = head % self.context_slots
                context = self._ring[slot]
                if context is None or context.status is ContextStatus.PENDING:
                    # None: tail was reserved but the slot write has not
                    # landed yet — treat like a pending read and stop.
                    break  # stop at the first pending read: ordering
                yield from self.core.execute(self.CREATE_PKTS_COST)
                if self.copy_mode and context.data is not None:
                    yield from self.core.execute(
                        self.COPY_COST_PER_BYTE * len(context.data)
                    )
                if self._epoch.load() != epoch:
                    # The engine crashed across the yield: the ring was
                    # cleared (and this context's buffer released) under
                    # us.  Its response dies with the engine.
                    return
                response = IoResponse(
                    context.request.request_id,
                    context.status is ContextStatus.COMPLETE,
                    context.data,
                )
                yield_point("engine.ctx_slot", ("engine.ring", id(self), slot))
                self._ring[slot] = None
                self._head.fetch_add(1)
                context.buffer.release()
                context.respond(response)
        finally:
            self._completing = False
