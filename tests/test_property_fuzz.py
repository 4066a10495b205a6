"""Extra property fuzzing: framing, namespace churn, cuckoo churn."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import LengthPrefixFramer, MSS, TcpReceiver, TcpSender
from repro.sim import Environment
from repro.storage import DdsFileSystem, RamDisk, SpdkBdev
from repro.structures import CuckooCacheTable

SEGMENT = 1 << 16


class TestFramerFuzz:
    @given(
        messages=st.lists(st.binary(max_size=200), max_size=30),
        chunk=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=80, deadline=None)
    def test_any_chunking_reassembles_exactly(self, messages, chunk):
        stream = b"".join(LengthPrefixFramer.encode(m) for m in messages)
        framer = LengthPrefixFramer()
        out = []
        for start in range(0, len(stream), chunk):
            out += framer.feed(stream[start : start + chunk])
        assert out == messages
        assert framer.pending_bytes == 0

    @given(
        messages=st.lists(
            st.binary(min_size=1, max_size=400), min_size=1, max_size=20
        ),
        seed=st.integers(min_value=0, max_value=1 << 16),
    )
    @settings(max_examples=40, deadline=None)
    def test_messages_survive_tcp_segmentation(self, messages, seed):
        """Framed messages pushed through the real TCP state machines
        arrive intact regardless of how segmentation slices them."""
        sender, receiver = TcpSender(), TcpReceiver()
        for message in messages:
            sender.write(LengthPrefixFramer.encode(message))
        for _ in range(100):
            segments = sender.transmit()
            if not segments and sender.bytes_in_flight == 0:
                break
            for segment in segments:
                sender.on_ack(receiver.on_segment(segment).ack)
        framer = LengthPrefixFramer()
        assert framer.feed(receiver.read()) == messages


class TestNamespaceChurn:
    @given(
        script=st.lists(
            st.tuples(
                st.sampled_from(["create", "delete", "write"]),
                st.integers(min_value=0, max_value=5),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_create_delete_cycles_never_leak_segments(self, script):
        """Files created, grown, and deleted in any order leave the
        allocator's free count exactly accounting for live extents."""
        env = Environment()
        fs = DdsFileSystem(
            env, SpdkBdev(env, RamDisk(16 << 20)), segment_size=SEGMENT
        )
        fs.create_directory("d")
        live = {}
        for action, slot in script:
            name = f"f{slot}"
            if action == "create" and slot not in live:
                live[slot] = fs.create_file("d", name)
            elif action == "delete" and slot in live:
                fs.delete_file(live.pop(slot))
            elif action == "write" and slot in live:
                proc = env.process(
                    fs.write(live[slot], 0, b"x" * (SEGMENT // 2))
                )
                env.run(until=proc)
        held = sum(
            -(-fs.file_size(fid) // SEGMENT) for fid in live.values()
        )
        total = fs.allocator.total_segments
        assert fs.allocator.free_segments == total - 1 - held  # -1: metadata
        # Recreating a deleted name always works.
        for slot in list(live):
            fs.delete_file(live.pop(slot))
        fs.create_file("d", "f0")


class TestCuckooChurn:
    @given(
        ops=st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=60),
            ),
            max_size=400,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_heavy_insert_delete_interleave(self, ops):
        """Delete/insert churn at high load factor keeps the table
        exactly consistent with a dict and never corrupts buckets."""
        table = CuckooCacheTable(40, slots_per_bucket=2, max_kicks=4)
        model = {}
        for is_delete, key in ops:
            if is_delete:
                assert table.delete(key) == (key in model)
                model.pop(key, None)
            else:
                ok = table.insert(key, key)
                if key in model or len(model) < 40:
                    assert ok
                    model[key] = key
                else:
                    assert not ok
        assert len(table) == len(model)
        for key, value in model.items():
            assert table.lookup(key) == value
        # Bucket contents cover exactly the model, no duplicates.
        entries = list(table.items())
        assert len(entries) == len(model)
        assert dict(entries) == model


class TestTcpWindowFuzz:
    @given(
        cwnd=st.integers(min_value=1, max_value=64),
        payload_segments=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_in_flight_never_exceeds_window(self, cwnd, payload_segments):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TcpSender, "INITIAL_SSTHRESH", cwnd)
            sender = TcpSender(initial_cwnd=cwnd)
        sender.write(b"x" * (payload_segments * MSS))
        receiver = TcpReceiver()
        for _ in range(payload_segments + 5):
            segments = sender.transmit()
            assert sender.bytes_in_flight <= sender.cwnd * sender.mss
            if not segments and sender.bytes_in_flight == 0:
                break
            for segment in segments:
                sender.on_ack(receiver.on_segment(segment).ack)
        assert receiver.stats.bytes_delivered == payload_segments * MSS
