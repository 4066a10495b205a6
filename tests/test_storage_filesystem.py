"""Tests for the DDS filesystem: namespace, data path, persistence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import HOST_CPU, CpuPool
from repro.sim import Environment
from repro.storage import (
    DdsFileSystem,
    FileSystemError,
    OsFileSystem,
    RamDisk,
    SpdkBdev,
)

from .conftest import run

SEGMENT = 1 << 16  # small segments so tests cross boundaries cheaply


def make_fs(disk_size=16 << 20, disk=None):
    env = Environment()
    disk = disk if disk is not None else RamDisk(disk_size)
    bdev = SpdkBdev(env, disk)
    return env, disk, DdsFileSystem(env, bdev, segment_size=SEGMENT)


class TestNamespace:
    def test_create_directory_and_file(self):
        env, _disk, fs = make_fs()
        fs.create_directory("db")
        fid = fs.create_file("db", "pages")
        assert fs.list_directory("db") == [fid]
        assert fs.file_size(fid) == 0

    def test_duplicate_directory_rejected(self):
        env, _disk, fs = make_fs()
        fs.create_directory("db")
        with pytest.raises(FileSystemError):
            fs.create_directory("db")

    def test_duplicate_filename_in_directory_rejected(self):
        env, _disk, fs = make_fs()
        fs.create_directory("db")
        fs.create_file("db", "f")
        with pytest.raises(FileSystemError):
            fs.create_file("db", "f")

    def test_same_name_in_different_directories_ok(self):
        env, _disk, fs = make_fs()
        fs.create_directory("a")
        fs.create_directory("b")
        assert fs.create_file("a", "f") != fs.create_file("b", "f")

    def test_missing_directory_rejected(self):
        env, _disk, fs = make_fs()
        with pytest.raises(FileSystemError):
            fs.create_file("nope", "f")
        with pytest.raises(FileSystemError):
            fs.list_directory("nope")

    def test_delete_file_frees_segments(self):
        env, _disk, fs = make_fs()
        fs.create_directory("db")
        fid = fs.create_file("db", "f")
        run(env, fs.write(fid, 0, b"x" * (3 * SEGMENT)))
        free_before = fs.allocator.free_segments
        fs.delete_file(fid)
        assert fs.allocator.free_segments == free_before + 3
        with pytest.raises(FileSystemError):
            fs.file_size(fid)
        assert fs.list_directory("db") == []


    @pytest.mark.parametrize("extend", ["preallocate", "write"])
    def test_a_recycled_segment_reads_as_zeros(self, extend):
        """A deleted file's segment joins the next file zeroed, by
        either way of growing a file."""
        env, _disk, fs = make_fs(disk_size=4 << 20)
        fs.create_directory("db")
        secret = fs.create_file("db", "a")
        fs.write_sync(secret, 0, b"SECRET" * (SEGMENT // 6))
        filler = fs.create_file("db", "filler")
        fs.preallocate(filler, fs.allocator.free_segments * SEGMENT)
        fs.delete_file(secret)
        fid = fs.create_file("db", "b")
        if extend == "preallocate":
            fs.preallocate(fid, 60)
        else:
            run(env, fs.write(fid, 30, b"new"))
        assert fs.read_sync(fid, 0, 12) == bytes(12)


class TestDataPath:
    def test_write_read_roundtrip(self):
        env, _disk, fs = make_fs()
        fs.create_directory("db")
        fid = fs.create_file("db", "f")
        payload = bytes(range(256)) * 8
        run(env, fs.write(fid, 0, payload))
        assert run(env, fs.read(fid, 0, len(payload))) == payload

    def test_write_extends_file_across_segments(self):
        env, _disk, fs = make_fs()
        fs.create_directory("db")
        fid = fs.create_file("db", "f")
        payload = b"A" * (SEGMENT + 100)
        run(env, fs.write(fid, 0, payload))
        assert fs.file_size(fid) == SEGMENT + 100
        # Two segments beside the metadata segment.
        assert fs.allocator.free_segments == fs.allocator.total_segments - 3
        assert run(env, fs.read(fid, SEGMENT - 50, 150)) == b"A" * 150

    def test_sparse_write_reads_zeros_in_gap(self):
        env, _disk, fs = make_fs()
        fs.create_directory("db")
        fid = fs.create_file("db", "f")
        run(env, fs.write(fid, 2 * SEGMENT, b"end"))
        assert fs.file_size(fid) == 2 * SEGMENT + 3
        assert run(env, fs.read(fid, 100, 10)) == bytes(10)

    def test_overwrite_in_place(self):
        env, _disk, fs = make_fs()
        fs.create_directory("db")
        fid = fs.create_file("db", "f")
        run(env, fs.write(fid, 0, b"aaaaaaaaaa"))
        run(env, fs.write(fid, 3, b"BBB"))
        assert run(env, fs.read(fid, 0, 10)) == b"aaaBBBaaaa"
        assert fs.file_size(fid) == 10

    def test_read_beyond_eof_rejected(self):
        env, _disk, fs = make_fs()
        fs.create_directory("db")
        fid = fs.create_file("db", "f")
        run(env, fs.write(fid, 0, b"12345"))
        with pytest.raises(FileSystemError):
            run(env, fs.read(fid, 0, 6))

    def test_read_sync_beyond_eof_rejected(self):
        _env, _disk, fs = make_fs()
        fs.create_directory("db")
        fid = fs.create_file("db", "f")
        fs.write_sync(fid, 0, b"12345")
        assert fs.read_sync(fid, 1, 4) == b"2345"
        with pytest.raises(FileSystemError, match="beyond EOF"):
            fs.read_sync(fid, 1, 5)

    def test_read_sync_at_negative_offset_rejected(self):
        _env, _disk, fs = make_fs()
        fs.create_directory("db")
        fid = fs.create_file("db", "f")
        fs.write_sync(fid, 0, b"12345")
        with pytest.raises(FileSystemError, match="negative"):
            fs.read_sync(fid, -1, 2)

    def test_zero_byte_read(self):
        env, _disk, fs = make_fs()
        fs.create_directory("db")
        fid = fs.create_file("db", "f")
        run(env, fs.write(fid, 0, b"x"))
        assert run(env, fs.read(fid, 0, 0)) == b""

    def test_device_full_write_rejected(self):
        env, _disk, fs = make_fs(disk_size=4 * SEGMENT)
        fs.create_directory("db")
        fid = fs.create_file("db", "f")
        with pytest.raises(FileSystemError, match="full"):
            run(env, fs.write(fid, 0, b"x" * (4 * SEGMENT)))

    def test_preallocate_sets_size_without_io(self):
        env, disk, fs = make_fs()
        fs.create_directory("db")
        fid = fs.create_file("db", "f")
        fs.preallocate(fid, 5 * SEGMENT)
        assert fs.file_size(fid) == 5 * SEGMENT
        assert env.now == 0.0  # no device time consumed
        assert run(env, fs.read(fid, SEGMENT, 16)) == bytes(16)

    def test_io_takes_simulated_time(self):
        env, _disk, fs = make_fs()
        fs.create_directory("db")
        fid = fs.create_file("db", "f")
        run(env, fs.write(fid, 0, b"x" * 1024))
        t_after_write = env.now
        assert t_after_write > 0
        run(env, fs.read(fid, 0, 1024))
        assert env.now > t_after_write

    @given(
        writes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3 * SEGMENT),
                st.binary(min_size=1, max_size=512),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_reference_model(self, writes):
        """The filesystem agrees with a flat bytearray reference."""
        env, _disk, fs = make_fs()
        fs.create_directory("db")
        fid = fs.create_file("db", "f")
        reference = bytearray()
        for offset, data in writes:
            run(env, fs.write(fid, offset, data))
            if len(reference) < offset + len(data):
                reference.extend(
                    bytes(offset + len(data) - len(reference))
                )
            reference[offset : offset + len(data)] = data
        assert fs.file_size(fid) == len(reference)
        got = run(env, fs.read(fid, 0, len(reference)))
        assert got == bytes(reference)


class TestPersistence:
    def test_metadata_roundtrip_through_disk(self):
        env, disk, fs = make_fs()
        fs.create_directory("db")
        fid = fs.create_file("db", "pages")
        run(env, fs.write(fid, 0, b"persistent!" * 100))
        run(env, fs.flush_metadata())

        env2 = Environment()
        recovered = DdsFileSystem.recover(
            env2, SpdkBdev(env2, disk), segment_size=SEGMENT
        )
        assert recovered.file_size(fid) == 1100
        assert recovered.list_directory("db") == [fid]
        proc = env2.process(recovered.read(fid, 0, 11))
        env2.run(until=proc)
        assert proc.value == b"persistent!"

    def test_recovery_preserves_allocator_state(self):
        env, disk, fs = make_fs()
        fs.create_directory("db")
        fid = fs.create_file("db", "f")
        run(env, fs.write(fid, 0, b"z" * (2 * SEGMENT)))
        run(env, fs.flush_metadata())
        used = fs.allocator.total_segments - fs.allocator.free_segments

        env2 = Environment()
        recovered = DdsFileSystem.recover(
            env2, SpdkBdev(env2, disk), segment_size=SEGMENT
        )
        assert (
            recovered.allocator.total_segments
            - recovered.allocator.free_segments
            == used
        )
        # New allocations must not collide with recovered extents.
        other = recovered.create_file("db", "g")
        recovered.write_sync(other, 0, b"y" * (2 * SEGMENT))
        assert recovered.read_sync(fid, 0, 2 * SEGMENT) == b"z" * (2 * SEGMENT)

    def test_recovery_of_blank_disk_fails(self):
        env = Environment()
        bdev = SpdkBdev(env, RamDisk(4 << 20))
        with pytest.raises(FileSystemError):
            DdsFileSystem.recover(env, bdev, segment_size=SEGMENT)

    def test_new_files_after_recovery_get_fresh_ids(self):
        env, disk, fs = make_fs()
        fs.create_directory("db")
        fid = fs.create_file("db", "f")
        run(env, fs.flush_metadata())
        env2 = Environment()
        recovered = DdsFileSystem.recover(
            env2, SpdkBdev(env2, disk), segment_size=SEGMENT
        )
        assert recovered.create_file("db", "g") != fid


class TestOsFileSystem:
    def test_charges_host_cpu_and_serializes(self):
        env = Environment()
        disk = RamDisk(8 << 20)
        fs = DdsFileSystem(env, SpdkBdev(env, disk), segment_size=SEGMENT)
        fs.create_directory("db")
        fid = fs.create_file("db", "f")
        pool = CpuPool(env, HOST_CPU)
        osfs = OsFileSystem(env, fs, pool)

        def main():
            yield self_env.process(osfs.write(fid, 0, b"k" * 1024))
            data = yield self_env.process(osfs.read(fid, 0, 1024))
            return data

        self_env = env
        proc = env.process(main())
        env.run(until=proc)
        assert proc.value == b"k" * 1024
        assert pool.busy_time > 0
        assert osfs.serializer.busy_time > 0

    def test_slower_than_raw_filesystem(self):
        def timed(use_os):
            env = Environment()
            fs = DdsFileSystem(
                env, SpdkBdev(env, RamDisk(8 << 20)), segment_size=SEGMENT
            )
            fs.create_directory("db")
            fid = fs.create_file("db", "f")
            target = (
                OsFileSystem(env, fs, CpuPool(env, HOST_CPU))
                if use_os
                else fs
            )

            def main():
                yield env.process(target.write(fid, 0, b"x" * 1024))
                yield env.process(target.read(fid, 0, 1024))

            proc = env.process(main())
            env.run(until=proc)
            return env.now

        assert timed(use_os=True) > timed(use_os=False)


class TestSparseClone:
    """``clone_into`` copies written extents only (and zeroes a dirty
    target's), so a mirror of a preallocated database costs nothing."""

    EXTENT = RamDisk.EXTENT_BYTES

    def test_written_runs_cover_exactly_the_written_extents(self):
        disk = RamDisk(1 << 20)
        assert disk.written_runs(0, disk.size) == []
        disk.write(self.EXTENT + 10, b"a")
        disk.write(4 * self.EXTENT - 1, b"bc")  # straddles extents 3 and 4
        disk.write(6 * self.EXTENT, b"")  # nothing written
        assert disk.written_runs(0, disk.size) == [
            (self.EXTENT, self.EXTENT),
            (3 * self.EXTENT, 2 * self.EXTENT),
        ]
        # Clipped to the range asked about.
        assert disk.written_runs(self.EXTENT + 5, 10) == [(self.EXTENT + 5, 10)]
        assert disk.written_runs(4 * self.EXTENT + 7, self.EXTENT) == [
            (4 * self.EXTENT + 7, self.EXTENT - 7)
        ]
        assert disk.written_runs(5 * self.EXTENT, 3 * self.EXTENT) == []

    def test_an_empty_range_has_no_written_runs(self):
        disk = RamDisk(1 << 20)
        disk.write(0, b"x")
        assert disk.written_runs(100, 0) == []
        assert disk.written_runs(self.EXTENT, 0) == []
        assert disk.written_runs(0, 0) == []

    def test_reading_never_written_extents_touches_no_page(self):
        """A read before any write is zeros off the ever-written map,
        not a slice of the (shared, anonymous) mmap: slicing faults the
        pages in, which made a read-only run on a preallocated file as
        resident as a written one."""
        disk = RamDisk(8 << 20)

        class Untouchable:
            def __getitem__(self, _key):
                raise AssertionError("read sliced the backing buffer")

        backing, disk._data = disk._data, Untouchable()
        assert disk.read(0, 4096) == bytes(4096)
        assert disk.read(3 * self.EXTENT - 7, 2 * self.EXTENT) == bytes(
            2 * self.EXTENT
        )
        assert disk.read(5, 0) == b""
        assert disk.written_runs(0, disk.size) == []
        disk._data = backing
        # A range that straddles a written extent is the real bytes.
        disk.write(2 * self.EXTENT - 2, b"abcd")
        assert disk.read(2 * self.EXTENT - 4, 8) == b"\0\0abcd\0\0"

    def test_never_written_reads_of_one_size_are_one_object(self):
        """``bytes`` is immutable, so every never-written read of a size
        is the same zeros object — an open-loop run otherwise parked
        thousands of fresh 64 KiB payloads in the dedup window."""
        disk, other = RamDisk(1 << 20), RamDisk(1 << 20)
        for size in (0, 1, 512, 4096, self.EXTENT, 3 * self.EXTENT + 5):
            zeros = disk.read(7, size)
            assert zeros == bytes(size)
            assert disk.read(self.EXTENT + 9, size) is zeros
            assert other.read(0, size) is zeros
        # Sharing is for request-sized reads; it pins nothing big.
        disk = RamDisk(4 << 20)
        huge = disk.read(0, (1 << 20) + 1)
        assert huge == bytes((1 << 20) + 1)
        assert disk.read(0, (1 << 20) + 1) is not huge
        # Anything that overlaps a written extent is that disk's bytes.
        disk.write(2 * self.EXTENT - 2, b"abcd")
        straddling = disk.read(2 * self.EXTENT - 4, 8)
        assert straddling == b"\0\0abcd\0\0"
        assert straddling is not other.read(2 * self.EXTENT - 4, 8)
        disk.write(5 * self.EXTENT, b"x" * 4096)
        assert disk.read(5 * self.EXTENT, 4096) == b"x" * 4096
        assert disk.read(7 * self.EXTENT, 4096) is other.read(0, 4096)
        assert disk.read(self.EXTENT - 1, self.EXTENT + 1)[-3:] == b"\0ab"
        assert disk.read(0, self.EXTENT) == bytes(self.EXTENT)

    def test_the_ever_written_map_is_page_sized(self):
        """A small write marks the one page it lands in, so a read of
        the page beside it stays on the never-written path (with 64 KiB
        extents, scattered 1 KiB writes made nearly every read fault a
        real page of the shared mapping)."""
        page = 4096
        assert self.EXTENT == page
        disk = RamDisk(256 << 20)
        assert len(disk._written) == 64 << 10
        disk.write(5 * page + 100, b"k" * 1024)
        assert disk._written.count(1) == 1 and disk._written[5] == 1
        assert disk.written_runs(0, disk.size) == [(5 * page, page)]
        # Clipped to pages, then to the range asked about.
        assert disk.written_runs(5 * page + 50, 2 * page) == [
            (5 * page + 50, page - 50)
        ]
        for neighbour in (4 * page, 6 * page):
            assert disk.read(neighbour, page) is RamDisk(page).read(0, page)
        straddling = disk.read(4 * page, 2 * page)
        assert straddling[page + 100 : page + 1124] == b"k" * 1024
        assert straddling.count(0) == 2 * page - 1024

    def _namespace(self):
        env, disk, fs = make_fs(disk_size=32 << 20)
        fs.create_directory("db")
        files = [fs.create_file("db", f"f{i}") for i in range(3)]
        for fid in files:
            fs.preallocate(fid, 6 * SEGMENT + 1234)
        fs.write_sync(files[0], 0, b"head" * 100)
        fs.write_sync(files[0], 6 * SEGMENT + 1000, b"tail" * 58)
        fs.write_sync(files[1], 2 * SEGMENT - 3, b"straddle")
        # files[2] is never written.
        return env, fs, files

    def test_clone_is_byte_equal_and_leaves_the_rest_untouched(self):
        env, fs, files = self._namespace()
        mirror_disk = RamDisk(32 << 20)
        mirror = DdsFileSystem(
            env, SpdkBdev(env, mirror_disk), segment_size=SEGMENT
        )
        fs.clone_into(mirror)
        for fid in files:
            size = fs.file_size(fid)
            assert mirror.file_size(fid) == size
            assert mirror.read_sync(fid, 0, size) == fs.read_sync(fid, 0, size)
        written = sum(
            length for _start, length in mirror_disk.written_runs(
                0, mirror_disk.size
            )
        )
        # Four small writes, one of them across a segment boundary.
        assert 0 < written <= 5 * self.EXTENT
        assert mirror._written_ranges(files[2]) == []

    def test_clone_zeroes_what_the_target_disk_held_before(self):
        env, fs, files = self._namespace()
        dirty = RamDisk(32 << 20)
        dirty.write(0, b"\xff" * dirty.size)
        mirror = DdsFileSystem(env, SpdkBdev(env, dirty), segment_size=SEGMENT)
        fs.clone_into(mirror)
        for fid in files:
            size = fs.file_size(fid)
            assert mirror.read_sync(fid, 0, size) == fs.read_sync(fid, 0, size)

    def test_a_clone_adopts_a_loaded_file_without_a_second_copy(self):
        env, disk, fs = make_fs(disk_size=32 << 20)
        fs.create_directory("db")
        fid = fs.create_file("db", "table")
        size = 3 * SEGMENT  # one object across three segments
        image = (bytes(range(1, 252)) * 800)[:size]
        fs.write_sync(fid, 0, image)
        fs.flush_metadata_sync()
        mirror_disk = RamDisk(32 << 20)
        mirror = DdsFileSystem(
            env, SpdkBdev(env, mirror_disk), segment_size=SEGMENT
        )
        fs.clone_into(mirror)
        assert mirror.read_sync(fid, 0, size) == image
        assert mirror_disk._slots == {}
        ((_start, _stop, source, _at),) = mirror_disk._adopted
        assert source is image
        # A write on either side stays on that side.
        run(env, fs.write(fid, 10, b"source"))
        mirror.write_sync(fid, SEGMENT + 2000, b"mirror")
        assert fs.read_sync(fid, 0, size) == (
            image[:10] + b"source" + image[16:]
        )
        assert mirror.read_sync(fid, 0, size) == (
            image[: SEGMENT + 2000] + b"mirror" + image[SEGMENT + 2006 :]
        )
        # The metadata segment is copied, never adopted, and recovers.
        assert all(
            start * RamDisk.BLOCK_BYTES >= SEGMENT
            for start in disk._adopted_starts
        )
        env2 = Environment()
        recovered = DdsFileSystem.recover(
            env2, SpdkBdev(env2, disk), segment_size=SEGMENT
        )
        assert recovered.read_sync(fid, 0, size) == fs.read_sync(
            fid, 0, size
        )


class TestPackedBlockStore:
    """``RamDisk`` packs written blocks into slots; against a flat
    ``bytearray`` of the whole disk it must answer every ``read`` and
    ``written_runs`` the same, and hold one slot per block written."""

    BLOCK = RamDisk.BLOCK_BYTES
    EXTENT = RamDisk.EXTENT_BYTES
    SIZES = (0, 1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, EXTENT,
             2 * EXTENT + 3, 9 * BLOCK)
    #: No zeros, and a period prime to the block: a byte written to the
    #: wrong place shows.
    PATTERN = bytes(range(1, 252)) * 40

    def _range(self, disk_size, anchor, skew, size):
        """Near a block (so also an extent) boundary, mostly low on the
        disk so that writes and reads overlap; anchor 25 is the last."""
        anchor = disk_size // self.BLOCK if anchor == 25 else anchor
        offset = min(max(anchor * self.BLOCK + skew, 0), disk_size)
        return offset, min(size, disk_size - offset)

    def _reference_runs(self, written, offset, size):
        runs = []
        extent = self.EXTENT
        for index in range(offset // extent, -(-(offset + size) // extent)):
            start = max(offset, index * extent)
            stop = min(offset + size, (index + 1) * extent)
            if index not in written or stop <= start:
                continue
            if runs and sum(runs[-1]) == start:
                runs[-1] = (runs[-1][0], stop - runs[-1][0])
            else:
                runs.append((start, stop - start))
        return runs

    @settings(max_examples=300, deadline=None)
    @given(
        disk_size=st.sampled_from(
            [3 * BLOCK + 1, 5 * EXTENT + 517, (1 << 20) + 3]
        ),
        steps=st.lists(
            st.tuples(
                st.integers(0, 25), st.integers(-3, 3),
                st.sampled_from(SIZES), st.booleans(),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_matches_a_flat_bytearray(self, disk_size, steps):
        disk = RamDisk(disk_size)
        flat = bytearray(disk_size)
        written = set()
        for step, (anchor, skew, size, write) in enumerate(steps):
            offset, size = self._range(disk_size, anchor, skew, size)
            if write:
                payload = self.PATTERN[step : step + size]
                disk.write(offset, payload)
                flat[offset : offset + size] = payload
                if size:
                    written.update(range(
                        offset // self.EXTENT,
                        (offset + size - 1) // self.EXTENT + 1,
                    ))
            assert disk.read(offset, size) == flat[offset : offset + size]
            assert disk.written_runs(offset, size) == self._reference_runs(
                written, offset, size
            )
        assert disk.read(0, disk_size) == flat
        assert disk.written_runs(0, disk_size) == self._reference_runs(
            written, 0, disk_size
        )

    def test_a_written_block_costs_one_slot(self):
        disk = RamDisk(256 << 20)
        stride = 37 * self.EXTENT + self.BLOCK  # one block per page touched
        for i in range(1000):
            disk.write(i * stride, bytes([i % 255 + 1]) * self.BLOCK)
        assert len(disk._slots) == 1000
        assert all(
            disk._slots[i * stride // self.BLOCK] == i for i in range(1000)
        )
        # An all-new aligned 8 KiB write: one run of 8 fresh slots.
        page = bytes(range(256)) * 32
        at = 200 << 20
        disk.write(at, page)
        first = at // self.BLOCK
        assert [disk._slots[first + i] for i in range(8)] == list(
            range(1000, 1008)
        )
        assert disk._data[1000 * self.BLOCK : 1008 * self.BLOCK] == page
        # Rewrites land in their blocks' slots and allocate nothing.
        disk.write(at + 100, b"r" * 3000)
        disk.write(5 * stride + 3, b"s" * 10)
        assert len(disk._slots) == 1008
        assert disk.read(at, len(page)) == page[:100] + b"r" * 3000 + page[3100:]
        assert disk.read(5 * stride, 16) == b"\x06" * 3 + b"s" * 10 + b"\x06" * 3

    def _check_run_table(self, disk):
        """Adopted runs are sorted, disjoint, hold no slotted block and
        point only into immutable bytes."""
        runs = disk._adopted
        assert disk._adopted_starts == [run[0] for run in runs]
        for (start, stop, source, at), following in zip(
            runs, runs[1:] + [(disk.size, None, None, None)]
        ):
            assert start < stop <= following[0]
            assert isinstance(getattr(source, "obj", source), bytes)
            assert at + (stop - start) * self.BLOCK <= len(source)
            assert not disk._slots.keys() & range(start, stop)

    @settings(max_examples=500, deadline=None)
    @given(
        disk_size=st.sampled_from(
            [3 * BLOCK + 1, 5 * EXTENT + 517, (1 << 20) + 3]
        ),
        steps=st.lists(
            st.tuples(
                st.sampled_from(
                    ("load", "load", "write", "write", "read", "runs")
                ),
                # Anchors close together, so loads, writes and reads meet.
                st.sampled_from((*range(12), 25)), st.integers(-3, 3),
                st.sampled_from(SIZES),
                st.sampled_from(("bytes", "bytearray", "view", "again")),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_adopted_loads_match_a_flat_bytearray(self, disk_size, steps):
        """Loads in ``write_sync``'s style (aligned or not; ``bytes``,
        ``bytearray`` or a read-only view; one object loaded twice)
        between request writes that partly overwrite adopted blocks,
        reads across adopted, slot and never-written blocks, and
        ``written_runs``: every answer is the flat ``bytearray``'s."""
        disk = RamDisk(disk_size)
        flat = bytearray(disk_size)
        written = set()
        loaded = None
        for step, (kind, anchor, skew, size, buffer) in enumerate(steps):
            offset, size = self._range(disk_size, anchor, skew, size)
            if kind in ("load", "write"):
                payload = self.PATTERN[3 * step : 3 * step + size]
                if kind == "load":
                    if buffer == "again" and loaded is not None:
                        payload = loaded[: disk_size - offset]
                    elif buffer == "bytearray":
                        payload = bytearray(payload)
                    elif buffer == "view":
                        payload = memoryview(self.PATTERN)[step : step + size]
                    loaded = payload
                    disk.load(offset, payload)
                else:
                    disk.write(offset, payload[::-1])
                    payload = payload[::-1]
                size = len(payload)
                flat[offset : offset + size] = payload
                if size:
                    written.update(range(
                        offset // self.EXTENT,
                        (offset + size - 1) // self.EXTENT + 1,
                    ))
            if kind == "runs":
                assert disk.written_runs(offset, size) == self._reference_runs(
                    written, offset, size
                )
            else:
                got = disk.read(offset, size)
                assert type(got) is bytes
                assert got == flat[offset : offset + size]
                # ... and to the extent after it from each block boundary
                # of the extent before: across runs, slots and zeros.
                low = max(0, offset - self.EXTENT)
                stop = min(disk_size, offset + size + self.EXTENT)
                for start in range(low - low % self.BLOCK, stop, self.BLOCK):
                    assert disk.read(start, stop - start) == flat[start:stop]
            self._check_run_table(disk)
        assert disk.read(0, disk_size) == flat
        assert disk.written_runs(0, disk_size) == self._reference_runs(
            written, 0, disk_size
        )

    def test_an_adopted_load_costs_no_slot_and_a_dead_source_is_released(self):
        disk = RamDisk(1 << 20)
        image = (bytes(range(1, 252)) * 49)[: 12 * self.BLOCK]
        disk.load(3 * self.BLOCK, image)
        assert disk._slots == {}
        ((start, stop, source, at),) = disk._adopted
        assert (start, stop, at) == (3, 15, 0) and source is image
        # A read inside the run is one slice of the source.
        assert disk.read(3 * self.BLOCK, len(image)) is image
        # Unaligned, the ragged head and tail are copied into slots.
        disk.load(20 * self.BLOCK + 5, image)
        assert len(disk._slots) == 2
        assert [run[2] for run in disk._adopted] == [image, image]
        # Copy-on-write: a partly overwritten block keeps its other bytes.
        disk.write(4 * self.BLOCK + 10, b"w" * 20)
        assert len(disk._slots) == 3
        assert disk.read(4 * self.BLOCK, self.BLOCK) == (
            image[self.BLOCK : self.BLOCK + 10]
            + b"w" * 20
            + image[self.BLOCK + 30 : 2 * self.BLOCK]
        )
        # Overwriting every adopted block drops the source from the table.
        replacement = bytes(len(image))
        disk.write(3 * self.BLOCK, replacement)
        disk.write(20 * self.BLOCK + 5, replacement)
        assert disk._adopted == [] and disk._adopted_starts == []
        assert disk.read(3 * self.BLOCK, len(image)) == replacement
        # A new load over older adopted blocks replaces their run.
        disk.load(40 * self.BLOCK, image)
        disk.load(40 * self.BLOCK, image[: 4 * self.BLOCK][::-1])
        assert [run[:2] for run in disk._adopted] == [(40, 44), (44, 52)]
        disk.load(40 * self.BLOCK, bytes(12 * self.BLOCK))
        ((_start, _stop, source, _at),) = disk._adopted
        assert source is not image
