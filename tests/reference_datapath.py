"""The engine and datapath as they were before each event-eliding change.

Tests-only references (DESIGN.md §11), one site list each in
:data:`REFERENCES` for :func:`repro.bench.harness.differential`; the
shipped code has no switch back:

* ``always-poll`` ("Idle-poll elision"): the DMA thread never parks.
* ``old-datapath`` ("Booked holds and inlined I/O"): every
  known-duration hold is request → grant event → ``timeout`` → release
  (:func:`held`), one per model as it was, and every layer of one I/O
  is a process of its own, joined on the spot
  (``yield env.process(...)``); a filesystem read or write submits each
  physical run as a process and joins them with ``all_of`` even when
  there is only one.  It covers the models on the DDS datapath (the
  host path through the DMA rings, the offloaded read, the steering
  hand-off); the baseline servers' OS-file path is not covered, and the
  relay between shards is still spawned in the shipped code.  A
  resource is either booked or requested for life, so a hold site
  missing from the reference fails loudly rather than half-applying it.
* ``every-completion`` ("In-place completions"), for the engine rather
  than the models: every process completes through the queue, as all
  of them did before a process nobody waits on took its value in place.
"""

from repro.core.file_library import PollMode
from repro.core.file_service import DpuFileService
from repro.core.messages import IoResponse, OpCode
from repro.core.server import PipelineServer
from repro.hardware.accelerators import HardwareAccelerator
from repro.hardware.cpu import CpuPool
from repro.hardware.nic import NetworkLink
from repro.hardware.pcie import DmaEngine
from repro.hardware.ssd import DeviceError, NvmeDevice
from repro.sim import Process
from repro.storage.filesystem import (
    DdsFileSystem,
    FileSystemError,
    StorageFullError,
)
from repro.structures.response import ResponseStatus
from repro.topology.stages import CompletionRouter

__all__ = ["REFERENCES", "held"]


def held(resource, duration):
    """The old idiom: wait for a grant, sleep, release."""
    grant = resource.request()
    yield grant
    try:
        yield resource.env.timeout(duration)
    finally:
        resource.release()


# ----------------------------------------------------------------------
# holds: request / timeout / release
# ----------------------------------------------------------------------
def _core_execute(self, core_time):
    if core_time < 0:
        raise ValueError("core_time must be non-negative")
    duration = core_time / self.speed
    yield from held(self._resource, duration)
    self.busy_time += duration


def _link_transmit(self, direction, payload_bytes):
    if direction not in self._tx:
        raise ValueError(f"unknown direction: {direction!r}")
    wire = self.wire_bytes(payload_bytes)
    yield from held(self._tx[direction], wire / self.spec.bandwidth)
    yield self.env.timeout(self.spec.propagation)
    stats = self.stats[direction]
    stats.packets += self.packets_for(payload_bytes)
    stats.bytes += wire


def _dma_transfer(self, nbytes):
    if nbytes < 0:
        raise ValueError("DMA size must be non-negative")
    yield from held(self._channels, self.transfer_time(nbytes))


def _ssd_service(self, size, base, bandwidth, is_write):
    if size <= 0:
        raise ValueError("I/O size must be positive")
    grant = self._slots.request()
    yield grant
    try:
        jitter = self.rng.bounded_exponential(
            base * self.JITTER_FRACTION, self.JITTER_CAP
        )
        yield self.env.timeout(base + jitter + self._spike_delay())
        self._maybe_fail()
        yield from held(self._bus, size / bandwidth)
        if is_write:
            self.stats.writes += 1
            self.stats.write_bytes += size
        else:
            self.stats.reads += 1
            self.stats.read_bytes += size
    finally:
        self._slots.release()


def _accelerator_process(self, nbytes):
    if nbytes < 0:
        raise ValueError("job size must be non-negative")
    if self.software_core is not None:
        yield from self.software_core.execute(
            self.job_time(nbytes) * self.software_core.speed
        )
    else:
        yield from held(self._channels, self.job_time(nbytes))
    self.jobs += 1
    self.bytes_processed += nbytes


# ----------------------------------------------------------------------
# a process per layer
# ----------------------------------------------------------------------
def _fs_read(self, file_id, offset, size):
    meta = self._meta(file_id)
    if offset < 0 or size < 0:
        raise FileSystemError("negative offset or size")
    if offset + size > meta.size:
        raise FileSystemError(
            f"read [{offset}, {offset + size}) beyond EOF at {meta.size}"
        )
    completions = [
        self.bdev.submit_read(run.disk_offset, run.length)
        for run in meta.extents.translate(offset, size)
    ]
    if not completions:
        return b""
    try:
        results = yield self.env.all_of(completions)
    except DeviceError as exc:
        raise FileSystemError(f"device read failed: {exc}") from exc
    return b"".join(results)


def _fs_write(self, file_id, offset, data):
    meta = self._meta(file_id)
    if offset < 0:
        raise FileSystemError("negative offset")
    end = offset + len(data)
    while meta.extents.capacity < end:
        try:
            meta.extents.append_segment(self.allocator.allocate())
        except StorageFullError as exc:
            raise FileSystemError("device is full") from exc
    completions = []
    cursor = 0
    for run in meta.extents.translate(offset, len(data)):
        chunk = data[cursor : cursor + run.length]
        completions.append(self.bdev.submit_write(run.disk_offset, chunk))
        cursor += run.length
    if completions:
        try:
            yield self.env.all_of(completions)
        except DeviceError as exc:
            raise FileSystemError(f"device write failed: {exc}") from exc
    meta.size = max(meta.size, end)


def _service_execute(self, request, response):
    self._apply_cache_hooks(request)
    try:
        if request.op is OpCode.READ:
            data = yield self.env.process(
                self.filesystem.read(
                    request.file_id, request.offset, request.size
                )
            )
            response.complete(ResponseStatus.SUCCESS, data)
        else:
            yield self.env.process(
                self.filesystem.write(
                    request.file_id, request.offset, request.payload
                )
            )
            response.complete(ResponseStatus.SUCCESS)
        self.requests_executed += 1
    except FileSystemError:
        response.complete(ResponseStatus.IO_ERROR)
        self.request_errors += 1
    self._ring_doorbell()


def _service_execute_offloaded(self, read_op, on_complete):
    yield from self.spdk_core.execute(self.SUBMIT_COST)
    if self.copy_mode:
        yield from self.spdk_core.execute(
            self.COPY_ALLOC_COST + self.COPY_COST_PER_BYTE * read_op.size
        )
    try:
        data = yield self.env.process(
            self.filesystem.read(
                read_op.file_id, read_op.offset, read_op.size
            )
        )
    except FileSystemError:
        self.request_errors += 1
        on_complete(ResponseStatus.IO_ERROR, None)
        return
    self.requests_executed += 1
    on_complete(ResponseStatus.SUCCESS, data)


def _steered_ingress(shipped):
    def _ingress(self, flow, requests, arrived):
        if self._steering is None:
            yield from shipped(self, flow, requests, arrived)
            return
        message_bytes = sum(r.wire_size for r in requests)
        for stage in self._inbound:
            yield from stage.inbound(flow, message_bytes)
        yield self.env.process(self._steering.steer(flow, requests, arrived))
        self.requests_served += len(requests)

    return _ingress


def _host_completion_pump(self):
    while True:
        completion = yield self.env.process(
            self.library.poll_wait(self.group, PollMode.SLEEPING)
        )
        request_id, ok, data = completion
        waiter = self._waiters.pop(request_id, None)
        if waiter is not None:
            waiter.succeed(IoResponse(request_id, ok, data))


# ----------------------------------------------------------------------
# a completion event for every process
# ----------------------------------------------------------------------
def _born_waited_on(shipped):
    """Every process is born waited on by a waiter that does nothing, so
    each completes through the queue.  (A failure the shipped engine
    would raise out of ``run()`` is delivered to this waiter instead;
    the scenarios have none.)"""

    def __init__(self, env, generator):
        shipped(self, env, generator)
        self.add_callback(lambda _event: None)

    return __init__


#: Each reference, by name: the sites ``(owner, attribute, replacement)``
#: that swap it in, for :func:`repro.bench.harness.differential`.
REFERENCES = {
    "always-poll": [(DpuFileService, "_can_park", lambda self: False)],
    "old-datapath": [
        (CpuPool, "execute", _core_execute),
        (NetworkLink, "transmit", _link_transmit),
        (DmaEngine, "_transfer", _dma_transfer),
        (NvmeDevice, "_service", _ssd_service),
        (HardwareAccelerator, "process", _accelerator_process),
        (DdsFileSystem, "read", _fs_read),
        (DdsFileSystem, "write", _fs_write),
        (DpuFileService, "_execute", _service_execute),
        (DpuFileService, "execute_offloaded", _service_execute_offloaded),
        (PipelineServer, "_ingress", _steered_ingress(PipelineServer._ingress)),
        (CompletionRouter, "_pump", _host_completion_pump),
    ],
    "every-completion": [(Process, "__init__", _born_waited_on(Process.__init__))],
}
