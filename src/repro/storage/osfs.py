"""Baseline host OS filesystem (the paper's NTFS + kernel block layer).

The baseline storage servers (§8.1) perform file I/O through the OS: each
operation pays a syscall + filesystem + block-layer CPU cost on the host
and extra kernel-path latency before reaching the same NVMe device.  This
wrapper composes those costs (``HOST_OS_FS``) around a
:class:`~repro.storage.filesystem.DdsFileSystem` used purely as the
file-layout engine, so the baseline and DDS move identical bytes and
differ only in who does the work and where.
"""

from __future__ import annotations

from typing import Generator

from ..core.messages import IoRequest, IoResponse, OpCode
from ..hardware.cpu import CpuPool
from ..hardware.specs import HOST_OS_FS, MICROSECOND
from ..net.stack import StackLayer
from ..sim import Environment
from .filesystem import DdsFileSystem

__all__ = ["OsFileSystem"]


class OsFileSystem:
    """Kernel-path file I/O: OS CPU cost + latency around the same layout.

    Besides the parallel per-op CPU cost, the kernel I/O path has a
    *serialized* section (storage-stack locks, interrupt steering, NTFS
    journalling for writes) modelled as a dedicated single "core": its
    capacity caps the baseline's throughput the way the paper's Windows
    baseline peaks at ~390 K read / ~210 K write IOPS (Figures 14-15),
    and queueing on it produces the baseline's latency blow-up near
    saturation.
    """

    #: Serialized kernel time per read / write (host-core-seconds).
    READ_SERIAL = 2.5 * MICROSECOND
    WRITE_SERIAL = 4.8 * MICROSECOND

    def __init__(
        self,
        env: Environment,
        inner: DdsFileSystem,
        host_cpu: CpuPool,
    ) -> None:
        self.env = env
        self.inner = inner
        self.layer = StackLayer(env, HOST_OS_FS, host_cpu)
        self.serializer = CpuPool(env, speed=1.0, name="kernel-io-serial")

    # Namespace operations go straight through (metadata cost is charged
    # as one op's worth of kernel work).
    def create_directory(self, name: str) -> None:
        """Kernel-path mkdir (one op of metadata CPU)."""
        self.layer.charge_only(0)
        self.inner.create_directory(name)

    def create_file(self, directory: str, name: str) -> int:
        """Kernel-path create; returns the file id."""
        self.layer.charge_only(0)
        return self.inner.create_file(directory, name)

    def file_size(self, file_id: int) -> int:
        """Logical file size (metadata read, no kernel charge)."""
        return self.inner.file_size(file_id)

    def read(self, file_id: int, offset: int, size: int) -> Generator:
        """Kernel read: syscall + FS CPU, kernel latency, device I/O."""
        yield from self.layer.process(size)
        yield from self.serializer.execute(self.READ_SERIAL)
        return (yield from self.inner.read(file_id, offset, size))

    def write(self, file_id: int, offset: int, data: bytes) -> Generator:
        """Kernel write: syscall + FS CPU, kernel latency, device I/O."""
        yield from self.layer.process(len(data))
        yield from self.serializer.execute(self.WRITE_SERIAL)
        yield from self.inner.write(file_id, offset, data)

    def serve(self, request: IoRequest) -> Generator:
        """Plain file semantics for one request: the kernel read or
        write, answered (a failed I/O raises ``FileSystemError``)."""
        if request.op is OpCode.READ:
            data = yield from self.read(
                request.file_id, request.offset, request.size
            )
            return IoResponse(request.request_id, True, data)
        yield from self.write(request.file_id, request.offset, request.payload)
        return IoResponse(request.request_id, True)
