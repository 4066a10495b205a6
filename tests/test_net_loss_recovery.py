"""TCP delivery: property tests over reordering and duplicating channels."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import ClientConfig, DdsClient
from repro.faults import NetworkChaos
from repro.hardware.nic import NetworkLink
from repro.net import MSS, TcpReceiver, TcpSender
from repro.net.pep import LengthPrefixFramer, TcpSplittingPep
from repro.sim import Environment
from repro.sim.rng import SeededRng
from repro.storage.disk import RamDisk, SpdkBdev
from repro.storage.filesystem import DdsFileSystem
from repro.topology.registry import build_server


def reordering_exchange(data: bytes, seed: int, max_rounds: int = 400):
    """Drive a transfer over a channel that reorders every flight."""
    rng = random.Random(seed)
    sender, receiver = TcpSender(), TcpReceiver()
    sender.write(data)
    for _round in range(max_rounds):
        if receiver.stats.bytes_delivered >= len(data):
            break
        segments = sender.transmit()
        rng.shuffle(segments)
        for segment in segments:
            ack = receiver.on_segment(segment)
            for retransmit in sender.on_ack(ack.ack):
                receiver.on_segment(retransmit)
    return receiver


class TestLossyChannelProperties:
    @given(
        payload_kib=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_stream_always_delivered_in_order(self, payload_kib, seed):
        """Any reordering within a flight: the stream arrives complete,
        in order, exactly once."""
        data = bytes(
            (i * 31 + seed) & 0xFF for i in range(payload_kib * 1024)
        )
        receiver = reordering_exchange(data, seed)
        assert receiver.stats.bytes_delivered == len(data)
        assert receiver.read() == data

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_lossless_channel_never_retransmits(self, seed):
        data = bytes(seed % 251 for _ in range(8 * MSS))
        sender, receiver = TcpSender(), TcpReceiver()
        sender.write(data)
        for _ in range(50):
            segments = sender.transmit()
            if not segments and sender.bytes_in_flight == 0:
                break
            for segment in segments:
                sender.on_ack(receiver.on_segment(segment).ack)
        assert sender.stats.retransmissions == 0
        assert receiver.read() == data


def chaotic_pep_exchange(
    messages,
    duplicate_rate: float,
    reorder: bool,
    seed: int,
    max_rounds: int = 400,
):
    """Drive a PEP split over a wire that duplicates and reorders.

    The client leg misbehaves (segments may arrive twice and out of
    order); the PEP must still hand each user message to the offload
    engine or the host exactly once, in order.  Returns the PEP and the
    forwarded messages the host actually reassembled.
    """
    rng = random.Random(seed)
    sender = TcpSender()
    for message in messages:
        sender.write(LengthPrefixFramer.encode(message))
    pep = TcpSplittingPep(lambda m: m[0] % 2 == 0)
    host_receiver = TcpReceiver()
    host_framer = LengthPrefixFramer()
    forwarded = []
    for _round in range(max_rounds):
        if len(pep.offloaded) + len(forwarded) >= len(messages):
            break
        wire = []
        for segment in sender.transmit():
            wire.append(segment)
            if rng.random() < duplicate_rate:
                wire.append(segment)  # delivered twice
        if reorder and len(wire) > 1:
            rng.shuffle(wire)
        while wire:
            segment = wire.pop(0)
            ack, host_segments = pep.on_client_segment(segment)
            # Dup-ACK-triggered retransmissions rejoin the chaotic wire.
            wire.extend(sender.on_ack(ack.ack))
            while host_segments:
                host_ack = host_receiver.on_segment(host_segments.pop(0))
                host_segments.extend(pep.on_host_ack(host_ack))
            forwarded += host_framer.feed(host_receiver.read())
    return pep, forwarded


class TestChaoticPepDelivery:
    @given(
        duplicate_permille=st.integers(min_value=0, max_value=400),
        reorder=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_pep_delivers_exactly_once_in_order(
        self, duplicate_permille, reorder, seed
    ):
        """Duplicated + reordered client segments: each message reaches
        the engine or the host exactly once, in submission order."""
        messages = [bytes([65 + i % 26]) * 300 for i in range(24)]
        pep, forwarded = chaotic_pep_exchange(
            messages, duplicate_permille / 1000, reorder, seed
        )
        assert pep.offloaded == [m for m in messages if m[0] % 2 == 0]
        assert forwarded == [m for m in messages if m[0] % 2 == 1]


class TestDdsOffloadPathUnderChaos:
    def test_duplicated_reordered_delivery_completes_exactly_once(self):
        """The full DDS offload path rides through a duplicate+reorder
        window: every request settles once; retransmits are absorbed or
        replayed by the request-id dedup, never re-executed."""
        env = Environment()
        fs = DdsFileSystem(env, SpdkBdev(env, RamDisk(16 << 20)))
        fs.create_directory("bench")
        file_id = fs.create_file("bench", "db")
        fs.preallocate(file_id, 1 << 20)
        server = build_server("dds-offload", env, NetworkLink(env), fs)
        dedup = server.enable_resilience()
        chaos = NetworkChaos(
            env,
            SeededRng("net-loss-chaos"),
            duplicate=0.15,
            reorder=0.10,
        )
        server.network_chaos = chaos
        config = ClientConfig(
            offered_iops=200e3,
            total_requests=400,
            io_size=1024,
            batch=4,
            connections=4,
            max_outstanding=128,
            file_size=1 << 20,
            seed=5,
        )
        client = DdsClient(env, server, file_id, config)
        result = client.run()
        env.run(until=env.timeout(1e-3))  # drain replayed stragglers
        assert result.failed_requests == 0
        assert len(result.latencies) == 400
        assert chaos.duplicated > 0 and chaos.reordered > 0
        # The wire really delivered duplicates, and dedup ate them.
        assert dedup.hits + dedup.absorbed > 0
        assert dedup.double_applies == 0
