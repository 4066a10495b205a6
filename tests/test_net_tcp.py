"""Tests for the TCP model and the Figure 11 transport-semantics story."""

from repro.net import (
    MSS,
    LengthPrefixFramer,
    NaiveOffloadPath,
    Segment,
    TcpReceiver,
    TcpSender,
    TcpSplittingPep,
)


def pump(sender: TcpSender, receiver: TcpReceiver) -> None:
    """Exchange segments/ACKs until the stream is fully delivered."""
    for _ in range(200):
        segments = sender.transmit()
        if not segments and sender.bytes_in_flight == 0:
            break
        for segment in segments:
            ack = receiver.on_segment(segment)
            for retransmit in sender.on_ack(ack.ack):
                receiver.on_segment(retransmit)


class TestTcpBasics:
    def test_stream_delivered_in_order(self):
        sender, receiver = TcpSender(), TcpReceiver()
        data = bytes(range(256)) * 100
        sender.write(data)
        pump(sender, receiver)
        assert receiver.read() == data
        assert receiver.stats.dup_acks_sent == 0
        assert sender.stats.retransmissions == 0

    def test_segments_respect_mss(self):
        sender = TcpSender()
        sender.write(b"x" * (3 * MSS + 10))
        segments = sender.transmit()
        assert all(s.payload_len <= MSS for s in segments)
        assert sum(s.payload_len for s in segments) == 3 * MSS + 10

    def test_window_limits_unacked_data(self):
        sender = TcpSender(initial_cwnd=2)
        sender.write(b"x" * (10 * MSS))
        first = sender.transmit()
        assert len(first) == 2  # cwnd caps the burst
        assert sender.transmit() == []  # nothing acked yet

    def test_slow_start_grows_window(self):
        sender = TcpSender(initial_cwnd=2)
        receiver = TcpReceiver()
        sender.write(b"x" * (40 * MSS))
        burst_sizes = []
        for _ in range(4):
            segments = sender.transmit()
            if not segments:
                break
            burst_sizes.append(len(segments))
            for segment in segments:
                sender.on_ack(receiver.on_segment(segment).ack)
        assert burst_sizes[0] < burst_sizes[-1]

    def test_out_of_order_buffered_and_reassembled(self):
        receiver = TcpReceiver()
        seg1 = Segment(seq=0, payload_len=4, data=b"aaaa")
        seg2 = Segment(seq=4, payload_len=4, data=b"bbbb")
        ack = receiver.on_segment(seg2)  # gap
        assert ack.ack == 0
        assert receiver.stats.dup_acks_sent == 1
        ack = receiver.on_segment(seg1)  # fills the gap
        assert ack.ack == 8
        assert receiver.read() == b"aaaabbbb"

    def test_duplicate_old_segment_reacked(self):
        receiver = TcpReceiver()
        seg = Segment(seq=0, payload_len=4, data=b"aaaa")
        receiver.on_segment(seg)
        ack = receiver.on_segment(seg)
        assert ack.ack == 4
        assert receiver.stats.bytes_delivered == 4  # not double-counted

    def test_triple_dup_ack_triggers_fast_retransmit(self):
        sender = TcpSender(initial_cwnd=10)
        receiver = TcpReceiver()
        sender.write(b"z" * (6 * MSS))
        segments = sender.transmit()
        lost, rest = segments[0], segments[1:]
        retransmits = []
        for segment in rest:
            retransmits += sender.on_ack(receiver.on_segment(segment).ack)
        assert sender.stats.fast_retransmits == 1
        assert any(r.seq == lost.seq for r in retransmits)
        cwnd_after = sender.cwnd
        assert cwnd_after < 10  # multiplicative decrease


class TestFigure11:
    """The paper's partial-offloading transport pathology and its fix."""

    def _client_with_messages(self, count=30, size=400):
        sender = TcpSender()
        messages = [
            bytes([65 + i % 26]) * size for i in range(count)
        ]
        for message in messages:
            sender.write(LengthPrefixFramer.encode(message))
        return sender, messages

    def test_naive_offload_triggers_spurious_retransmissions(self):
        """Silently consuming segments on the DPU makes the host TCP see
        gaps, emit duplicate ACKs, and the client resend offloaded data."""
        sender, _ = self._client_with_messages()
        segments = sender.transmit()
        offloaded = {segments[1].seq, segments[2].seq}
        path = NaiveOffloadPath(lambda s: s.seq in offloaded)
        retransmitted = []
        for segment in segments:
            ack = path.on_client_segment(segment)
            if ack is not None:
                retransmitted += sender.on_ack(ack.ack)
        assert path.host_receiver.stats.dup_acks_sent >= 3
        assert sender.stats.fast_retransmits >= 1
        # The client resent data the DPU had already consumed.
        resent_spans = {r.seq for r in retransmitted}
        assert offloaded & resent_spans

    def test_pep_split_connections_avoid_retransmissions(self):
        """TCP splitting keeps both connections gap-free."""
        sender, messages = self._client_with_messages()
        # Offload every other message (by leading byte parity).
        pep = TcpSplittingPep(lambda m: m[0] % 2 == 0)
        host_receiver = TcpReceiver()
        for _ in range(50):
            segments = sender.transmit()
            if not segments and sender.bytes_in_flight == 0:
                break
            for segment in segments:
                ack, host_segments = pep.on_client_segment(segment)
                sender.on_ack(ack.ack)
                for host_segment in host_segments:
                    host_ack = host_receiver.on_segment(host_segment)
                    pep.on_host_ack(host_ack)
        assert sender.stats.retransmissions == 0
        assert sender.stats.fast_retransmits == 0
        assert host_receiver.stats.dup_acks_sent == 0
        expected_offloaded = [m for m in messages if m[0] % 2 == 0]
        expected_forwarded = [m for m in messages if m[0] % 2 == 1]
        assert pep.offloaded == expected_offloaded
        assert pep.forwarded == expected_forwarded
        # The host received exactly the forwarded messages, reframed.
        framer = LengthPrefixFramer()
        assert framer.feed(host_receiver.read()) == expected_forwarded


class TestFramer:
    def test_messages_across_segment_boundaries(self):
        framer = LengthPrefixFramer()
        stream = b"".join(
            LengthPrefixFramer.encode(bytes([i]) * 100) for i in range(5)
        )
        out = []
        for i in range(0, len(stream), 7):  # awkward chunking
            out += framer.feed(stream[i : i + 7])
        assert out == [bytes([i]) * 100 for i in range(5)]
        assert framer.pending_bytes == 0

    def test_partial_message_stays_buffered(self):
        framer = LengthPrefixFramer()
        encoded = LengthPrefixFramer.encode(b"hello world")
        assert framer.feed(encoded[:6]) == []
        assert framer.pending_bytes == 6
        assert framer.feed(encoded[6:]) == [b"hello world"]

    def test_empty_message(self):
        framer = LengthPrefixFramer()
        assert framer.feed(LengthPrefixFramer.encode(b"")) == [b""]
