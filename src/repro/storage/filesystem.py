"""The DDS file system: flat directories over fixed-length segments (§4.3).

Files are vectors of fixed-length segments; directories are flat (no
nesting); segment 0 persistently stores all metadata — the directory
table, the file table, and every file's segment mapping — so the
filesystem can be recovered from the raw disk after a restart.

All data-path operations are simulation-process generators (they consume
device time through the SPDK bdev) *and* move real bytes (through the
RamDisk), so correctness and performance are tested against the same
implementation.  The filesystem itself charges no CPU: the caller (DPU
file service, or the OS-filesystem baseline wrapper) owns CPU accounting.
"""

from __future__ import annotations

import json
from typing import Dict, Generator, List, Optional, Tuple

from ..digest import blake2b
from ..hardware.ssd import DeviceError
from ..sim import Environment
from .disk import SpdkBdev
from .layout import FileExtentMap, SegmentAllocator, StorageFullError

__all__ = [
    "FileSystemError",
    "FileMeta",
    "DdsFileSystem",
    "DEFAULT_SEGMENT_SIZE",
]

DEFAULT_SEGMENT_SIZE = 1 << 20  # 1 MiB, block-aligned
_METADATA_MAGIC = "dds-fs-v2"
#: blake2b digest trailing each metadata slot (torn-write detection).
_DIGEST_SIZE = 16
_SLOT_HEADER = 8


class FileSystemError(Exception):
    """Invalid filesystem operation (unknown file, bad range, ...)."""


class FileMeta:
    """Metadata of one file: identity, size, and its extent map."""

    __slots__ = ("file_id", "name", "directory", "size", "extents")

    def __init__(
        self,
        file_id: int,
        name: str,
        directory: str,
        segment_size: int,
        segments: Optional[List[int]] = None,
        size: int = 0,
    ) -> None:
        self.file_id = file_id
        self.name = name
        self.directory = directory
        self.size = size
        self.extents = FileExtentMap(segment_size, segments)

    def to_record(self) -> dict:
        """JSON-serializable metadata record."""
        return {
            "id": self.file_id,
            "name": self.name,
            "dir": self.directory,
            "size": self.size,
            "segments": list(self.extents),
        }

    @classmethod
    def from_record(cls, record: dict, segment_size: int) -> "FileMeta":
        return cls(
            file_id=record["id"],
            name=record["name"],
            directory=record["dir"],
            segment_size=segment_size,
            segments=record["segments"],
            size=record["size"],
        )


class DdsFileSystem:
    """Flat-directory filesystem over segments, backed by an SPDK bdev."""

    def __init__(
        self,
        env: Environment,
        bdev: SpdkBdev,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
    ) -> None:
        total_segments = bdev.disk.size // segment_size
        self.env = env
        self.bdev = bdev
        self.segment_size = segment_size
        self.allocator = SegmentAllocator(total_segments, segment_size)
        self._directories: Dict[str, List[int]] = {}
        self._files: Dict[int, FileMeta] = {}
        self._next_file_id = 1
        #: Sequence number of the last durably flushed metadata image.
        self._meta_seq = 0

    # ------------------------------------------------------------------
    # namespace operations
    # ------------------------------------------------------------------
    def create_directory(self, name: str) -> None:
        """Make a new flat directory."""
        if not name:
            raise FileSystemError("directory name must be non-empty")
        if name in self._directories:
            raise FileSystemError(f"directory {name!r} already exists")
        self._directories[name] = []

    def list_directory(self, name: str) -> List[int]:
        """File ids in a directory."""
        if name not in self._directories:
            raise FileSystemError(f"no such directory: {name!r}")
        return list(self._directories[name])

    def create_file(self, directory: str, name: str) -> int:
        """Create an empty file; returns its file id."""
        if directory not in self._directories:
            raise FileSystemError(f"no such directory: {directory!r}")
        for file_id in self._directories[directory]:
            if self._files[file_id].name == name:
                raise FileSystemError(
                    f"file {name!r} already exists in {directory!r}"
                )
        file_id = self._next_file_id
        self._next_file_id += 1
        meta = FileMeta(file_id, name, directory, self.segment_size)
        self._files[file_id] = meta
        self._directories[directory].append(file_id)
        return file_id

    def delete_file(self, file_id: int) -> None:
        """Remove a file and free its segments."""
        meta = self._meta(file_id)
        for segment in meta.extents:
            self.allocator.free(segment)
        self._directories[meta.directory].remove(file_id)
        del self._files[file_id]

    def file_size(self, file_id: int) -> int:
        """Current logical size of the file in bytes."""
        return self._meta(file_id).size

    def file_ids(self) -> List[int]:
        """Every file id in the namespace, sorted (deterministic order
        for whole-namespace sweeps like resharding plans)."""
        return sorted(self._files)

    def _meta(self, file_id: int) -> FileMeta:
        meta = self._files.get(file_id)
        if meta is None:
            raise FileSystemError(f"no such file id: {file_id}")
        return meta

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def write(self, file_id: int, offset: int, data: bytes) -> Generator:
        """Write ``data`` at ``offset``, extending the file as needed.

        Physical runs are submitted to the device concurrently and the
        write completes when all of them do.
        """
        meta = self._meta(file_id)
        if offset < 0:
            raise FileSystemError("negative offset")
        end = offset + len(data)
        if meta.extents.capacity < end:
            self._extend(meta, end)
        runs = meta.extents.translate(offset, len(data))
        try:
            if len(runs) == 1:
                # One run, the common case: nothing to fork or join.
                yield from self.bdev.write(runs[0].disk_offset, data)
            elif runs:
                completions = []
                cursor = 0
                for run in runs:
                    chunk = data[cursor : cursor + run.length]
                    completions.append(
                        self.bdev.submit_write(run.disk_offset, chunk)
                    )
                    cursor += run.length
                yield self.env.all_of(completions)
        except DeviceError as exc:
            raise FileSystemError(f"device write failed: {exc}") from exc
        meta.size = max(meta.size, end)

    def preallocate(self, file_id: int, size: int) -> None:
        """Extend a file to ``size`` bytes without writing (fallocate).

        Benchmark databases are materialized this way: segments are
        allocated and the logical size set, with content left zeroed.
        """
        meta = self._meta(file_id)
        self._extend(meta, size)
        meta.size = max(meta.size, size)

    def _extend(self, meta: FileMeta, size: int) -> None:
        """Attach segments until ``meta`` can hold ``size`` bytes.

        A free segment may still hold what a deleted file, or an earlier
        life of the disk, wrote there; it is zeroed as it joins, so a
        file reads zeros wherever it was never written.  (Zeroing at
        :meth:`delete_file` instead would lose the bytes of a file that
        a crash before the next metadata flush recovers.)
        """
        disk = self.bdev.disk
        while meta.extents.capacity < size:
            try:
                segment = self.allocator.allocate()
            except StorageFullError as exc:
                raise FileSystemError("device is full") from exc
            base = segment * self.segment_size
            for offset, length in disk.written_runs(base, self.segment_size):
                disk.write(offset, bytes(length))
            meta.extents.append_segment(segment)

    def write_sync(self, file_id: int, offset: int, data: bytes) -> None:
        """Setup-time write: move the bytes with zero simulated time.

        Experiment loaders use this to materialize databases and KV logs
        without charging device time to the measurement window.
        """
        meta = self._meta(file_id)
        end = offset + len(data)
        self.preallocate(file_id, end)
        cursor = 0
        for run in meta.extents.translate(offset, len(data)):
            self.bdev.disk.write(
                run.disk_offset, data[cursor : cursor + run.length]
            )
            cursor += run.length
        meta.size = max(meta.size, end)

    def read_sync(self, file_id: int, offset: int, size: int) -> bytes:
        """Setup-time read: fetch the bytes with zero simulated time.

        The counterpart of :meth:`write_sync`, used when cloning a
        namespace into shard filesystems at deployment bring-up.
        """
        meta = self._meta(file_id)
        if offset < 0 or size < 0:
            raise FileSystemError("negative offset or size")
        if offset + size > meta.size:
            raise FileSystemError(
                f"read [{offset}, {offset + size}) beyond EOF at {meta.size}"
            )
        return b"".join(
            self.bdev.disk.read(run.disk_offset, run.length)
            for run in meta.extents.translate(offset, size)
        )

    def clone_into(self, other: "DdsFileSystem") -> None:
        """Replicate this namespace and its contents into ``other``.

        ``other`` must be empty.  File ids are preserved exactly (shard
        filesystems must agree with the primary on ids, since the shard
        map hashes them), and content is copied with zero simulated time
        — this is deployment bring-up, not measured I/O.  Only extents
        that were ever written are copied: a preallocated database is
        all zeros on both sides already.
        """
        if other._files or other._directories:
            raise FileSystemError("clone target must be an empty filesystem")
        for directory in self._directories:
            other.create_directory(directory)
        for file_id in sorted(self._files):
            meta = self._files[file_id]
            other._next_file_id = file_id
            created = other.create_file(meta.directory, meta.name)
            assert created == file_id
            other.preallocate(file_id, meta.size)
            for offset, length in self._written_ranges(file_id):
                other.write_sync(
                    file_id, offset, self.read_sync(file_id, offset, length)
                )
        other._next_file_id = self._next_file_id

    def _written_ranges(self, file_id: int) -> List[Tuple[int, int]]:
        """``(file offset, length)`` ranges whose disk extents were ever
        written, each within one segment."""
        meta = self._files[file_id]
        disk = self.bdev.disk
        ranges: List[Tuple[int, int]] = []
        for base in range(0, meta.size, self.segment_size):
            span = min(self.segment_size, meta.size - base)
            (run,) = meta.extents.translate(base, span)
            ranges.extend(
                (base + start - run.disk_offset, length)
                for start, length in disk.written_runs(
                    run.disk_offset, run.length
                )
            )
        return ranges

    def read(self, file_id: int, offset: int, size: int) -> Generator:
        """Read ``size`` bytes at ``offset``; returns the data."""
        meta = self._meta(file_id)
        if offset < 0 or size < 0:
            raise FileSystemError("negative offset or size")
        if offset + size > meta.size:
            raise FileSystemError(
                f"read [{offset}, {offset + size}) beyond EOF at {meta.size}"
            )
        runs = meta.extents.translate(offset, size)
        if not runs:
            return b""
        try:
            if len(runs) == 1:
                return (
                    yield from self.bdev.read(runs[0].disk_offset, size)
                )
            results = yield self.env.all_of(
                [self.bdev.submit_read(r.disk_offset, r.length) for r in runs]
            )
        except DeviceError as exc:
            raise FileSystemError(f"device read failed: {exc}") from exc
        return b"".join(results)

    # ------------------------------------------------------------------
    # metadata persistence (segment 0, two alternating slots)
    # ------------------------------------------------------------------
    # The metadata segment holds TWO slots: A at offset 0, B at half the
    # segment.  Each flush writes the slot the *previous* flush did not,
    # so a crash mid-flush can tear at most the slot being written — the
    # other still holds a complete earlier image.  A slot is
    # ``length || json-payload || blake2b-16(payload)``: the digest makes
    # torn and truncated writes detectable, and the payload's
    # monotonically increasing ``seq`` picks the newer of two valid
    # slots at recovery.  Recovery therefore lands on exactly the
    # last-synced state or the new one, never a hybrid.

    @property
    def metadata_seq(self) -> int:
        """Sequence number of the last durably flushed metadata image."""
        return self._meta_seq

    def _slot_capacity(self) -> int:
        return self.segment_size // 2

    def _slot_offset(self, seq: int) -> int:
        base = SegmentAllocator.METADATA_SEGMENT * self.segment_size
        return base + (seq % 2) * self._slot_capacity()

    def _encode_slot(self, seq: int) -> bytes:
        payload = json.dumps(
            {
                "magic": _METADATA_MAGIC,
                "seq": seq,
                "segment_size": self.segment_size,
                "next_file_id": self._next_file_id,
                "directories": {
                    name: files for name, files in self._directories.items()
                },
                "files": [meta.to_record() for meta in self._files.values()],
            }
        ).encode()
        image = (
            len(payload).to_bytes(_SLOT_HEADER, "little")
            + payload
            + blake2b(payload, digest_size=_DIGEST_SIZE).digest()
        )
        if len(image) > self._slot_capacity():
            raise FileSystemError(
                "metadata no longer fits in its half of the reserved segment"
            )
        return image

    def serialize_metadata(self) -> bytes:
        """Encode the slot image the next flush would write."""
        return self._encode_slot(self._meta_seq + 1)

    def flush_metadata(self) -> Generator:
        """Persist metadata (device-timed) to the alternate slot."""
        seq = self._meta_seq + 1
        yield from self.bdev.write(
            self._slot_offset(seq), self._encode_slot(seq)
        )
        self._meta_seq = seq

    def flush_metadata_sync(self) -> None:
        """Bring-up flush: persist metadata with zero simulated time.

        Deployment constructors use this to establish the durability
        point a mid-run crash recovers to, without charging device time
        outside the measurement window.
        """
        seq = self._meta_seq + 1
        self.bdev.disk.write(self._slot_offset(seq), self._encode_slot(seq))
        self._meta_seq = seq

    @staticmethod
    def _decode_slot(disk, offset: int, capacity: int) -> Optional[dict]:
        """Parse one metadata slot; None if absent, torn, or corrupt."""
        length = int.from_bytes(disk.read(offset, _SLOT_HEADER), "little")
        if length == 0 or length + _SLOT_HEADER + _DIGEST_SIZE > capacity:
            return None
        payload = disk.read(offset + _SLOT_HEADER, length)
        digest = disk.read(offset + _SLOT_HEADER + length, _DIGEST_SIZE)
        if blake2b(payload, digest_size=_DIGEST_SIZE).digest() != (
            digest
        ):
            return None
        try:
            decoded = json.loads(payload.decode())
        except (UnicodeDecodeError, ValueError):
            return None
        if not isinstance(decoded, dict):
            return None
        if decoded.get("magic") != _METADATA_MAGIC:
            return None
        if not isinstance(decoded.get("seq"), int):
            return None
        return decoded

    @classmethod
    def recover(
        cls,
        env: Environment,
        bdev: SpdkBdev,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
    ) -> "DdsFileSystem":
        """Rebuild a filesystem from the newest valid metadata slot."""
        base = SegmentAllocator.METADATA_SEGMENT * segment_size
        half = segment_size // 2
        best: Optional[dict] = None
        for slot in range(2):
            decoded = cls._decode_slot(bdev.disk, base + slot * half, half)
            if decoded is not None and (
                best is None or decoded["seq"] > best["seq"]
            ):
                best = decoded
        if best is None:
            raise FileSystemError("no valid metadata segment on this disk")
        fs = cls(env, bdev, segment_size=best["segment_size"])
        fs._meta_seq = best["seq"]
        fs._next_file_id = best["next_file_id"]
        fs._directories = {
            name: list(files)
            for name, files in best["directories"].items()
        }
        for record in best["files"]:
            meta = FileMeta.from_record(record, fs.segment_size)
            fs._files[meta.file_id] = meta
            for segment in meta.extents:
                fs.allocator.mark_allocated(segment)
        return fs
