"""Tests for five-tuples, application signatures, and stack cost models."""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from repro.hardware import (
    DPU_TLDK,
    HOST_OS_TCP,
    CpuPool,
    HOST_CPU,
    NIC_100G,
    NetworkLink,
)
from repro.net import AppSignature, FiveTuple, Segment, StackLayer, WILDCARD
from repro.sim import Environment


class TestFiveTuple:
    def test_reversed_swaps_endpoints(self):
        flow = FiveTuple("1.1.1.1", 1000, "2.2.2.2", 5000)
        rev = flow.reversed()
        assert rev.client_ip == "2.2.2.2" and rev.server_port == 1000
        assert rev.reversed() == flow

    def test_rss_hash_is_symmetric(self):
        """Forward and reverse directions map to the same core (§7)."""
        flow = FiveTuple("1.1.1.1", 1234, "2.2.2.2", 5000)
        for buckets in (1, 2, 3, 8):
            assert flow.rss_hash(buckets) == flow.reversed().rss_hash(buckets)

    def test_rss_hash_spreads_flows(self):
        hashes = {
            FiveTuple("1.1.1.1", port, "2.2.2.2", 5000).rss_hash(8)
            for port in range(1000, 1200)
        }
        assert len(hashes) > 1

    def test_rss_hash_is_process_stable(self):
        """Golden value: blake2b keying, not the salted builtin hash.

        The old implementation hashed a frozenset with ``hash()``, so
        core and shard placement changed with PYTHONHASHSEED between
        runs (flagged by ddslint as DDS303).  This value must never
        depend on the interpreter invocation.
        """
        flow = FiveTuple("10.0.0.1", 40000, "10.0.0.2", 5000)
        assert flow.rss_hash(1 << 30) == 134748005
        assert flow.reversed().rss_hash(1 << 30) == 134748005

    def test_rss_digest_is_kept_per_instance_and_stays_out_of_identity(self):
        """The digest is derived once per flow object; the reverse
        direction and an equal-but-distinct instance, which derive
        their own, land in the same bucket, and keeping it changes
        neither equality nor the hash."""
        flow = FiveTuple("10.0.0.1", 40000, "10.0.0.2", 5000)
        twin = FiveTuple("10.0.0.1", 40000, "10.0.0.2", 5000)
        hashed = hash(flow)
        for buckets in range(1, 9):
            bucket = flow.rss_hash(buckets)
            assert 0 <= bucket < buckets
            assert flow.reversed().rss_hash(buckets) == bucket
            assert twin.rss_hash(buckets) == bucket
        assert flow == twin and twin is not flow
        assert hash(flow) == hashed == hash(twin.reversed().reversed())
        assert "_rss_digest" in vars(flow)  # kept, not recomputed

    def test_rss_hash_agrees_with_shard_steering(self):
        """flow_shard delegates to rss_hash: one keying for both."""
        from repro.topology.sharding import flow_shard

        for port in range(2000, 2050):
            flow = FiveTuple("3.3.3.3", port, "4.4.4.4", 5000)
            for shards in (2, 3, 8):
                assert flow_shard(flow, shards) == flow.rss_hash(shards)


class TestAppSignature:
    def test_paper_example_matches_any_client(self):
        """§5.1's example: any remote IP/port, local port 5000, TCP."""
        sig = AppSignature(server_ip="10.0.0.1", server_port=5000)
        assert sig.matches(FiveTuple("8.8.8.8", 9999, "10.0.0.1", 5000))
        assert sig.matches(FiveTuple("1.2.3.4", 1, "10.0.0.1", 5000))
        assert not sig.matches(FiveTuple("8.8.8.8", 9999, "10.0.0.1", 80))
        assert not sig.matches(FiveTuple("8.8.8.8", 9999, "10.0.0.9", 5000))

    def test_protocol_must_match(self):
        sig = AppSignature(server_port=5000, protocol="tcp")
        udp_flow = FiveTuple("1.1.1.1", 1, "2.2.2.2", 5000, protocol="udp")
        assert not sig.matches(udp_flow)

    def test_full_wildcard_matches_everything(self):
        sig = AppSignature(protocol=WILDCARD)
        assert sig.matches(FiveTuple("a", 1, "b", 2, protocol="udp"))


class TestSegment:
    def test_span(self):
        seg = Segment(seq=100, payload_len=32)
        assert seg.end_seq == 132 and seg.span() == (100, 132)


class TestStackLayer:
    def test_core_time_formula(self):
        env = Environment()
        layer = StackLayer(env, HOST_OS_TCP)
        expected = (
            HOST_OS_TCP.per_message_core_time
            + 1000 * HOST_OS_TCP.per_byte_core_time
        )
        assert layer.core_time(1000) == pytest.approx(expected)

    def test_process_charges_cpu_and_adds_latency(self):
        env = Environment()
        pool = CpuPool(env, HOST_CPU)
        layer = StackLayer(env, HOST_OS_TCP, pool)

        def main():
            yield from layer.process(1000)
            return env.now

        p = env.process(main())
        env.run()
        assert p.value == pytest.approx(layer.service_time(1000))
        assert pool.busy_time == pytest.approx(layer.core_time(1000))
        assert layer.messages == 1 and layer.bytes == 1000

    def test_wimpy_core_scales_service_time(self):
        env = Environment()
        slow = CpuPool(env, speed=0.35)
        layer = StackLayer(env, DPU_TLDK, slow)
        fast_layer = StackLayer(env, DPU_TLDK, CpuPool(env, speed=1.0))
        assert layer.service_time(100) > fast_layer.service_time(100)

    def test_charge_only_accounts_without_time(self):
        env = Environment()
        pool = CpuPool(env, HOST_CPU)
        layer = StackLayer(env, HOST_OS_TCP, pool)
        layer.charge_only(500)
        assert env.now == 0.0
        assert pool.busy_time > 0

    def test_negative_size_rejected(self):
        env = Environment()
        layer = StackLayer(env, HOST_OS_TCP)
        with pytest.raises(ValueError):
            list(layer.process(-1))


class TestNetworkLink:
    def test_packets_for_segments_by_mtu(self):
        env = Environment()
        link = NetworkLink(env)
        assert link.packets_for(100) == 1
        assert link.packets_for(1500) == 1
        assert link.packets_for(1501) == 2
        assert link.packets_for(0) == 1

    @given(
        payload=st.integers(min_value=1, max_value=1 << 31),
        mtu=st.sampled_from([576, 1500, 9000]),
    )
    def test_packets_for_in_integers_is_the_float_ceiling(self, payload, mtu):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                NetworkLink, "spec", dataclasses.replace(NIC_100G, mtu=mtu)
            )
            link = NetworkLink(Environment())
            assert link.packets_for(payload) == max(1, math.ceil(payload / mtu))

    def test_transmit_time_scales_with_size(self):
        env = Environment()
        link = NetworkLink(env)
        times = {}

        def send(size, tag):
            start = env.now
            yield from link.transmit("client_to_server", size)
            times[tag] = env.now - start

        env.process(send(100, "small"))
        env.run()
        env.process(send(1 << 20, "large"))
        env.run()
        assert times["large"] > times["small"]

    def test_directions_do_not_contend(self):
        env = Environment()
        link = NetworkLink(env)
        done = []

        def send(direction):
            yield from link.transmit(direction, 1 << 20)
            done.append((direction, env.now))

        env.process(send("client_to_server"))
        env.process(send("server_to_client"))
        env.run()
        assert done[0][1] == pytest.approx(done[1][1])

    def test_same_direction_serializes(self):
        env = Environment()
        link = NetworkLink(env)
        done = []

        def send():
            yield from link.transmit("client_to_server", 1 << 20)
            done.append(env.now)

        env.process(send())
        env.process(send())
        env.run()
        assert done[1] > done[0]

    def test_unknown_direction_rejected(self):
        env = Environment()
        link = NetworkLink(env)
        with pytest.raises(ValueError):
            list(link.transmit("sideways", 10))
