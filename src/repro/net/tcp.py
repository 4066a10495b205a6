"""A compact TCP model: sequence numbers, cumulative ACKs, congestion.

The model exists to reproduce §5.2's core problem (Figure 11): when a DPU
silently consumes ("offloads") some segments of a client→host connection,
the host's TCP sees a sequence-number gap, emits duplicate ACKs, and the
client fast-retransmits everything the DPU already handled.  DDS fixes
this with a TCP-splitting performance-enhancing proxy
(:mod:`repro.net.pep`).

The state machines are *pure* (no simulation clock): tests and the PEP
drive them by exchanging :class:`~repro.net.packet.Segment` objects, so
the retransmission behaviour is deterministic and directly assertable.
Congestion control is NewReno-flavoured: slow start, congestion
avoidance, triple-duplicate-ACK fast retransmit with window halving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .packet import Segment

__all__ = ["TcpSender", "TcpReceiver", "TcpStats", "MSS"]

#: Maximum segment size: MTU 1500 minus 40 bytes of IP+TCP headers.
MSS = 1460


@dataclass
class TcpStats:
    """Counters that the Figure 11 experiment asserts on."""

    segments_sent: int = 0
    retransmissions: int = 0
    fast_retransmits: int = 0
    dup_acks_received: int = 0
    dup_acks_sent: int = 0
    acks_sent: int = 0
    bytes_delivered: int = 0


class TcpSender:
    """Sender half: windowed transmission and fast retransmit.

    A loss inside a flight is repaired by triple-duplicate-ACK fast
    retransmit.  The model keeps no retransmission timer: the recovery
    Figure 11 studies is the duplicate-ACK kind.
    """

    #: Slow-start threshold before the first loss, in segments.
    INITIAL_SSTHRESH = 64
    mss = MSS

    def __init__(self, initial_cwnd: int = 10) -> None:
        self.snd_una = 0           # oldest unacknowledged byte
        self.snd_nxt = 0           # next new byte to send
        self.cwnd = initial_cwnd   # congestion window, in segments
        self.ssthresh = self.INITIAL_SSTHRESH
        self._dup_ack_count = 0
        self._last_ack = 0
        self._ca_credit = 0.0  # fractional cwnd growth in congestion avoidance
        self._queue: List[bytes] = []   # app bytes not yet segmented
        self._queued_bytes = 0
        self._sent: Dict[int, Segment] = {}  # seq -> in-flight segment
        self.stats = TcpStats()

    # ------------------------------------------------------------------
    # application side
    # ------------------------------------------------------------------
    def write(self, data: bytes) -> None:
        """Queue application bytes for transmission."""
        if data:
            self._queue.append(data)
            self._queued_bytes += len(data)

    @property
    def bytes_in_flight(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def window_bytes(self) -> int:
        """Unused congestion-window space, in bytes."""
        return max(0, self.cwnd * self.mss - self.bytes_in_flight)

    # ------------------------------------------------------------------
    # wire side
    # ------------------------------------------------------------------
    def transmit(self) -> List[Segment]:
        """Emit as many new segments as the window allows."""
        segments: List[Segment] = []
        budget = self.window_bytes
        pending = b"".join(self._queue)
        self._queue = [pending] if pending else []
        taken = 0
        while taken < len(pending) and budget > 0:
            size = min(self.mss, len(pending) - taken, budget)
            data = pending[taken : taken + size]
            segment = Segment(seq=self.snd_nxt, payload_len=size, data=data)
            self._sent[segment.seq] = segment
            self.snd_nxt += size
            segments.append(segment)
            self.stats.segments_sent += 1
            taken += size
            budget -= size
        remainder = pending[taken:]
        self._queue = [remainder] if remainder else []
        self._queued_bytes = len(remainder)
        return segments

    def on_ack(self, ack: int) -> List[Segment]:
        """Process a cumulative ACK; returns any retransmissions."""
        retransmits: List[Segment] = []
        if ack > self.snd_una:
            # New data acknowledged.
            for seq in [s for s in self._sent if s < ack]:
                del self._sent[seq]
            self.snd_una = ack
            self._dup_ack_count = 0
            if self.cwnd < self.ssthresh:
                self.cwnd += 1  # slow start
            else:
                # Congestion avoidance: +1 segment per window of ACKs.
                self._ca_credit += 1.0 / self.cwnd
                if self._ca_credit >= 1.0:
                    self.cwnd += 1
                    self._ca_credit -= 1.0
        elif ack == self._last_ack and ack < self.snd_nxt:
            # Duplicate ACK for outstanding data.
            self._dup_ack_count += 1
            self.stats.dup_acks_received += 1
            if self._dup_ack_count == 3:
                retransmits = self._fast_retransmit(ack)
        self._last_ack = ack
        return retransmits

    def _fast_retransmit(self, ack: int) -> List[Segment]:
        """Go-back from the gap: resend everything not yet acknowledged.

        Figure 11's pathology: 'the client will resend all the packets
        between the expected sequence number and the one received by the
        server' — i.e. the whole range the DPU already consumed.
        """
        self.ssthresh = max(2, self.cwnd // 2)
        self.cwnd = self.ssthresh
        self.stats.fast_retransmits += 1
        resent: List[Segment] = []
        for seq in sorted(self._sent):
            if seq >= ack:
                original = self._sent[seq]
                copy = Segment(
                    seq=original.seq,
                    payload_len=original.payload_len,
                    data=original.data,
                )
                resent.append(copy)
                self.stats.retransmissions += 1
        return resent


class TcpReceiver:
    """Receiver half: in-order delivery and duplicate-ACK generation."""

    def __init__(self) -> None:
        self.rcv_nxt = 0
        self._out_of_order: Dict[int, Segment] = {}
        self._delivered: List[bytes] = []
        self.stats = TcpStats()

    def on_segment(self, segment: Segment) -> Segment:
        """Accept one segment; returns the ACK to send back."""
        if segment.seq == self.rcv_nxt:
            self._deliver(segment)
            # Drain any buffered out-of-order segments that now fit.
            while self.rcv_nxt in self._out_of_order:
                self._deliver(self._out_of_order.pop(self.rcv_nxt))
            self.stats.acks_sent += 1
            return Segment(seq=0, payload_len=0, ack=self.rcv_nxt)
        if segment.seq > self.rcv_nxt:
            # Gap: buffer and send a duplicate ACK (triggers the sender's
            # fast retransmit after three of these).
            self._out_of_order.setdefault(segment.seq, segment)
            self.stats.dup_acks_sent += 1
            self.stats.acks_sent += 1
            return Segment(seq=0, payload_len=0, ack=self.rcv_nxt)
        # Entirely old data: re-ACK.
        self.stats.acks_sent += 1
        return Segment(seq=0, payload_len=0, ack=self.rcv_nxt)

    def _deliver(self, segment: Segment) -> None:
        self.rcv_nxt = segment.end_seq
        self.stats.bytes_delivered += segment.payload_len
        if segment.data is not None:
            self._delivered.append(segment.data)

    def read(self) -> bytes:
        """Drain the in-order byte stream delivered so far."""
        data = b"".join(self._delivered)
        self._delivered = []
        return data
