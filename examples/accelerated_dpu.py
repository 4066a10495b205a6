#!/usr/bin/env python
"""Beyond the paper: DPU accelerators, caching, and tenant isolation.

The paper's conclusion (§11) proposes exploiting the DPU's hardware
engines, and its related-work section (§10) points at DPU caching
(Xenic) and multi-tenant isolation (Gimbal) as natural extensions.
The first two extend the page server (``repro.apps``), the regex
pushdown grew into ``repro.pushdown``, and isolation is the datapath's
own QoS gate (``repro.topology.qos``); this script runs each one's
headline experiment:

1. compressed page serving — the deflate engine decompresses offloaded
   reads at line rate;
2. string-operator pushdown — the regex engine filters records where
   they live;
3. a DPU-memory read cache under Zipfian skew;
4. deficit-round-robin tenant isolation under a bursty neighbour.

Run:  python examples/accelerated_dpu.py
"""

from repro.apps.compressed_storage import run_compressed_read_experiment
from repro.apps.dpu_cache import run_dpu_cache_experiment
from repro.core.messages import IoRequest, IoResponse, OpCode
from repro.net.packet import FiveTuple
from repro.pushdown.scan import run_pushdown_experiment
from repro.sim import Environment, Resource, SeededRng
from repro.topology.qos import QosConfig, TenantQosGate


def compression_demo() -> None:
    print("-- 1. compressed page serving (8 KiB pages, ~4.7x ratio) --")
    for mode in ("none", "software", "accel"):
        result = run_compressed_read_experiment(mode, pages=96, reads=960)
        print(
            f"  {mode:9s} {result.throughput / 1e3:7.1f}K pages/s  "
            f"{result.mean_latency * 1e6:5.0f}us  "
            f"{result.ssd_bytes_per_page:5.0f} SSD B/page"
        )
    print("  -> hardware decompression keeps full speed; Arm cores can't\n")


def pushdown_demo() -> None:
    print("-- 2. regex pushdown (5% selectivity scan) --")
    for mode in ("ship-all", "dpu-software", "dpu-regex"):
        result = run_pushdown_experiment(mode, pages=96)
        print(
            f"  {mode:13s} scan {result.scan_seconds * 1e3:6.2f}ms  "
            f"wire {result.wire_bytes / 1024:7.1f}KB  "
            f"arm {result.arm_core_seconds * 1e3:5.2f}ms"
        )
    print("  -> the RXP engine cuts wire bytes ~25x at ship-all speed\n")


def cache_demo() -> None:
    print("-- 3. DPU-memory read cache (Zipfian reads) --")
    for cache_bytes in (0, 256 << 10, 2 << 20):
        result = run_dpu_cache_experiment(cache_bytes, reads=2400)
        label = f"{cache_bytes >> 10}KB" if cache_bytes else "off"
        print(
            f"  cache {label:7s} hit {result.hit_rate * 100:5.1f}%  "
            f"{result.throughput / 1e3:7.1f}K reads/s  "
            f"{result.mean_latency * 1e6:5.1f}us"
        )
    print("  -> a few MB of on-board DRAM lifts skewed reads past the SSD\n")


def tenant_isolation(scheduler: str, burst: int = 2000):
    """A light closed-loop trickle beside a ``burst``-message dump on a
    server that takes 10 us per 4 KiB message, one at a time: in arrival
    order (``"fifo"``, one Resource) or behind the datapath's QoS gate
    (``"drr"``).  Returns (worst light latency, heavy messages/s) over
    50 ms — ``benchmarks/test_ext_cache_tenancy.py`` is the same run."""
    env, rng, duration = Environment(), SeededRng(71), 0.05
    waits = {"light": [], "heavy": []}

    def serve(flow, requests, respond):
        yield server.hold(10e-6)
        for request in requests:
            respond(IoResponse(request.request_id, ok=True))

    server = Resource(env, capacity=1)
    if scheduler == "drr":
        submit = TenantQosGate(
            env,
            QosConfig(queue_capacity=burst, max_inflight=1,
                      sojourn_target=None,
                      tenant_of=lambda flow: flow.client_ip),
            serve,
        ).intake
    else:
        def submit(flow, requests, respond):
            env.process(serve(flow, requests, respond))

    def send(tenant: str, request_id: int):
        done, sent = env.event(), env.now

        def respond(_response) -> None:
            waits[tenant].append(env.now - sent)
            done.succeed()

        write = IoRequest(OpCode.WRITE, request_id, 1, 0, 4096, bytes(4096))
        submit(FiveTuple(tenant, 40000, "10.0.0.1", 5000), [write], respond)
        return done

    def light():
        request_id = burst
        while env.now < duration:
            yield env.timeout(rng.exponential(1 / 5_000.0))
            request_id += 1
            yield send("light", request_id)

    for request_id in range(burst):
        send("heavy", request_id)
    env.process(light())
    env.run(until=duration)
    return max(waits["light"]), len(waits["heavy"]) / duration


def tenancy_demo() -> None:
    print("-- 4. tenant isolation (light tenant vs 2000-request burst) --")
    for scheduler in ("fifo", "drr"):
        light_worst, heavy_rate = tenant_isolation(scheduler)
        print(
            f"  {scheduler:4s} light worst-case "
            f"{light_worst * 1e3:6.2f}ms, "
            f"heavy throughput {heavy_rate:6.0f}/s"
        )
    print("  -> DRR bounds the light tenant's wait at no aggregate cost")


if __name__ == "__main__":
    compression_demo()
    pushdown_demo()
    cache_demo()
    tenancy_demo()
