"""The DDS host file library (§4.2): a familiar file API, DPU execution.

The library is intentionally thin — everything CPU-heavy moved to the
DPU.  It offers the paper's API surface: ``CreateDirectory``,
``CreateFile``, ``CreatePoll`` / ``PollAdd`` notification groups,
non-blocking ``ReadFile`` / ``WriteFile`` (plus gathered writes and
scattered reads), and ``PollWait`` in *non-blocking* and *sleeping*
modes.

Issuing a request costs ~1 us of host core time (bookkeeping + a local
ring insert); the request then travels to the DPU by DPU-issued DMA with
zero host involvement.  Completions are polled from the response ring,
which the DPU fills by DMA write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence

from ..hardware.cpu import CpuPool
from ..hardware.pcie import DmaEngine
from ..hardware.specs import DDS_FILE_LIBRARY
from ..sim import Environment
from .dma_ring import DmaRingChannel
from .file_service import DpuFileService
from .messages import IoRequest, IoResponse, OpCode

__all__ = ["NotificationGroup", "DdsFileLibrary", "PollMode"]


class PollMode:
    """PollWait behaviours (§4.2)."""

    NON_BLOCKING = "non-blocking"
    SLEEPING = "sleeping"


@dataclass
class _PendingOp:
    """Book-kept state of one issued operation."""

    request_id: int
    op: OpCode
    file_id: int
    scatter_sizes: Optional[List[int]] = None


@dataclass
class NotificationGroup:
    """An epoll-like completion group owning one ring channel."""

    group_id: int
    channel: DmaRingChannel
    files: set = field(default_factory=set)
    pending: Dict[int, _PendingOp] = field(default_factory=dict)


class DdsFileLibrary:
    """Userspace front end issuing file operations to the DPU service."""

    spec = DDS_FILE_LIBRARY
    ring_capacity = 1 << 20

    def __init__(
        self,
        env: Environment,
        host_cpu: CpuPool,
        file_service: DpuFileService,
        dma: DmaEngine,
    ) -> None:
        self.env = env
        self.host_cpu = host_cpu
        self.file_service = file_service
        self.dma = dma
        self._groups: Dict[int, NotificationGroup] = {}
        self._file_group: Dict[int, int] = {}
        self._next_group_id = 1
        self._next_request_id = 1
        self.operations_issued = 0
        self.completions_polled = 0

    # ------------------------------------------------------------------
    # cost accounting
    # ------------------------------------------------------------------
    def _charge(self, size: int) -> Generator:
        yield from self.host_cpu.execute(
            self.spec.per_message_core_time
            + size * self.spec.per_byte_core_time
        )

    # ------------------------------------------------------------------
    # namespace (control path, executed via the file service's metadata)
    # ------------------------------------------------------------------
    def create_directory(self, name: str) -> Generator:
        """CreateDirectory: make a flat directory."""
        yield from self._charge(0)
        self.file_service.filesystem.create_directory(name)

    def create_file(self, directory: str, name: str) -> Generator:
        """CreateFile: returns the new file's handle (file id)."""
        yield from self._charge(0)
        return self.file_service.filesystem.create_file(directory, name)

    # ------------------------------------------------------------------
    # notification groups
    # ------------------------------------------------------------------
    def create_poll(self) -> NotificationGroup:
        """CreatePoll: allocate a group with DMA-registered rings."""
        channel = DmaRingChannel(self.env, self.dma, self.ring_capacity)
        self.file_service.register_channel(channel)
        group = NotificationGroup(self._next_group_id, channel)
        self._groups[group.group_id] = group
        self._next_group_id += 1
        return group

    def poll_add(self, group: NotificationGroup, file_id: int) -> None:
        """PollAdd: route a file's completions to this group."""
        if file_id in self._file_group:
            raise ValueError(f"file {file_id} already belongs to a group")
        group.files.add(file_id)
        self._file_group[file_id] = group.group_id

    def _group_for(self, file_id: int) -> NotificationGroup:
        group_id = self._file_group.get(file_id)
        if group_id is None:
            raise ValueError(
                f"file {file_id} is not in any notification group; "
                "call poll_add first"
            )
        return self._groups[group_id]

    # ------------------------------------------------------------------
    # data path: non-blocking issue
    # ------------------------------------------------------------------
    def read_file(
        self, file_id: int, offset: int, size: int
    ) -> Generator:
        """ReadFile: non-blocking issue; returns the request id."""
        return (
            yield from self._issue(
                IoRequest(
                    OpCode.READ,
                    self._take_request_id(),
                    file_id,
                    offset,
                    size,
                )
            )
        )

    def write_file(
        self, file_id: int, offset: int, data: bytes
    ) -> Generator:
        """WriteFile: non-blocking issue; data is inlined in the request."""
        return (
            yield from self._issue(
                IoRequest(
                    OpCode.WRITE,
                    self._take_request_id(),
                    file_id,
                    offset,
                    len(data),
                    data,
                )
            )
        )

    def write_gather(
        self, file_id: int, offset: int, buffers: Sequence[bytes]
    ) -> Generator:
        """Gathered write: one file I/O from an array of source buffers."""
        return (yield from self.write_file(file_id, offset, b"".join(buffers)))

    def read_scatter(
        self, file_id: int, offset: int, sizes: Sequence[int]
    ) -> Generator:
        """Scattered read: one file I/O split into destination buffers.

        The response of the single I/O is split back into ``sizes``
        chunks when polled.
        """
        request_id = yield from self.read_file(file_id, offset, sum(sizes))
        group = self._group_for(file_id)
        group.pending[request_id].scatter_sizes = list(sizes)
        return request_id

    def _take_request_id(self) -> int:
        request_id = self._next_request_id
        self._next_request_id += 1
        return request_id

    def _issue(self, request: IoRequest) -> Generator:
        group = self._group_for(request.file_id)
        yield from self._charge(request.wire_size)
        encoded = request.encode()
        while not group.channel.try_insert(encoded):
            # RETRY from the ring: producers are outpacing the DPU.
            yield self.env.now + self.spec.per_message_latency
        group.pending[request.request_id] = _PendingOp(
            request.request_id, request.op, request.file_id
        )
        self.operations_issued += 1
        return request.request_id

    # ------------------------------------------------------------------
    # data path: completion polling
    # ------------------------------------------------------------------
    def poll_wait(
        self,
        group: NotificationGroup,
        mode: str = PollMode.SLEEPING,
    ) -> Generator:
        """PollWait: next completion in the group.

        Sleeping mode parks until the DPU delivers (zero CPU burn,
        modelled on DPU driver interrupts); non-blocking mode returns
        None immediately when no completion is ready.
        """
        if mode == PollMode.NON_BLOCKING:
            encoded = group.channel.try_poll_response()
            if encoded is None:
                return None
        elif mode == PollMode.SLEEPING:
            encoded = yield group.channel.poll_response()
        else:
            raise ValueError(f"unknown poll mode: {mode!r}")
        yield from self._charge(0)
        response = IoResponse.decode(encoded)
        pending = group.pending.pop(response.request_id, None)
        if pending is None:
            raise RuntimeError(
                f"completion for unknown request {response.request_id}"
            )
        self.completions_polled += 1
        if pending.scatter_sizes and response.data is not None:
            chunks: List[bytes] = []
            cursor = 0
            for size in pending.scatter_sizes:
                chunks.append(response.data[cursor : cursor + size])
                cursor += size
            return response.request_id, response.ok, chunks
        return response.request_id, response.ok, response.data
