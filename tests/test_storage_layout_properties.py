"""Property tests for the §4.3 on-disk layout.

Two invariants the whole datapath leans on, exercised here with
hypothesis-generated operation sequences rather than hand-picked cases:

* the segment allocator never hands out a segment twice (and never hands
  out the reserved metadata segment), across any interleaving of
  allocations and frees;
* filesystem metadata round-trips: whatever namespace a run builds,
  flushing segment 0 and recovering from the raw disk reproduces it —
  ids, sizes, segment vectors, and file content.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.storage.disk import RamDisk, SpdkBdev
from repro.storage.filesystem import DdsFileSystem
from repro.storage.layout import (
    FileExtentMap,
    SegmentAllocator,
    StorageFullError,
)

SEGMENT_SIZE = 4096


# True → allocate, False → free one previously-allocated segment.
op_sequences = st.lists(st.booleans(), min_size=1, max_size=200)


class TestSegmentAllocatorProperties:
    @given(ops=op_sequences, total=st.integers(min_value=2, max_value=48))
    @settings(max_examples=200, deadline=None)
    def test_never_double_assigns(self, ops, total):
        allocator = SegmentAllocator(total, SEGMENT_SIZE)
        live = set()
        freed_order = []
        for is_alloc in ops:
            if is_alloc:
                if allocator.free_segments == 0:
                    with pytest.raises(StorageFullError):
                        allocator.allocate()
                    continue
                segment = allocator.allocate()
                assert segment != SegmentAllocator.METADATA_SEGMENT
                assert 0 < segment < total
                assert segment not in live  # the invariant
                live.add(segment)
            elif live:
                segment = live.pop()
                allocator.free(segment)
                freed_order.append(segment)
            # Accounting never drifts from the ground truth.
            assert allocator.free_segments == total - 1 - len(live)

    @given(total=st.integers(min_value=2, max_value=32))
    @settings(max_examples=50, deadline=None)
    def test_freed_segments_are_reusable(self, total):
        allocator = SegmentAllocator(total, SEGMENT_SIZE)
        everything = [allocator.allocate() for _ in range(total - 1)]
        assert allocator.free_segments == 0
        for segment in everything:
            allocator.free(segment)
        again = {allocator.allocate() for _ in range(total - 1)}
        assert again == set(everything)

    def test_invalid_frees_rejected(self):
        allocator = SegmentAllocator(8, SEGMENT_SIZE)
        with pytest.raises(ValueError, match="metadata"):
            allocator.free(SegmentAllocator.METADATA_SEGMENT)
        with pytest.raises(ValueError, match="out of range"):
            allocator.free(8)
        with pytest.raises(ValueError, match="not allocated"):
            allocator.free(3)


class TestFileExtentMapProperties:
    @given(
        segments=st.lists(
            st.integers(min_value=1, max_value=1000),
            min_size=1,
            max_size=16,
            unique=True,
        ),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_translate_covers_exactly_the_requested_range(
        self, segments, data
    ):
        extents = FileExtentMap(SEGMENT_SIZE, segments)
        offset = data.draw(
            st.integers(min_value=0, max_value=extents.capacity)
        )
        size = data.draw(
            st.integers(min_value=0, max_value=extents.capacity - offset)
        )
        runs = extents.translate(offset, size)
        assert sum(run.length for run in runs) == size
        position = offset
        for run in runs:
            index = position // SEGMENT_SIZE
            within = position % SEGMENT_SIZE
            assert run.disk_offset == \
                segments[index] * SEGMENT_SIZE + within
            # Merged runs may span several segments; each byte still maps
            # through the vector, which the offset check above pins for
            # the run start — advance and let the next run re-anchor.
            position += run.length
        assert position == offset + size


file_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # directory index
        st.integers(min_value=0, max_value=6),  # size in segments
    ),
    min_size=0,
    max_size=8,
)


class TestMetadataRoundTrip:
    @given(specs=file_specs, payload_seed=st.integers(0, 255))
    @settings(max_examples=50, deadline=None)
    def test_flush_then_recover_reproduces_namespace(
        self, specs, payload_seed
    ):
        env = Environment()
        disk = RamDisk(256 * SEGMENT_SIZE)
        fs = DdsFileSystem(env, SpdkBdev(env, disk), segment_size=SEGMENT_SIZE)
        directories = ["d0", "d1", "d2", "d3"]
        for name in directories:
            fs.create_directory(name)
        contents = {}
        for index, (dir_index, size_segments) in enumerate(specs):
            directory = directories[dir_index]
            file_id = fs.create_file(directory, f"f{index}")
            if size_segments:
                fs.preallocate(file_id, size_segments * SEGMENT_SIZE)
                blob = bytes(
                    (payload_seed + index + i) % 256
                    for i in range(size_segments * SEGMENT_SIZE)
                )
                fs.write_sync(file_id, 0, blob)
                contents[file_id] = blob
            else:
                contents[file_id] = b""
        env.run(until=env.process(fs.flush_metadata()))

        env2 = Environment()
        recovered = DdsFileSystem.recover(
            env2, SpdkBdev(env2, disk), segment_size=SEGMENT_SIZE
        )
        assert recovered._next_file_id == fs._next_file_id
        assert recovered._directories == fs._directories
        assert recovered.file_ids() == fs.file_ids()
        # Every file's size and segment vector: the whole image.
        assert recovered.serialize_metadata() == fs.serialize_metadata()
        for file_id, blob in contents.items():
            assert recovered.file_size(file_id) == fs.file_size(file_id)
            if blob:
                assert recovered.read_sync(file_id, 0, len(blob)) == blob
        # Recovery re-marks every persisted segment as allocated.
        assert recovered.allocator.free_segments == \
            fs.allocator.free_segments
