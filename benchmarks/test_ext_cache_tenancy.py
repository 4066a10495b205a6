"""Extensions (§10 related work, implemented): DPU cache and isolation.

* Xenic-style DPU-memory read caching in front of the offload engine:
  a small on-board cache absorbs skewed read traffic, lifting
  throughput past the SSD's ceiling.
* Gimbal-style multi-tenant fairness: the datapath's deficit-round-
  robin dispatcher (:class:`~repro.topology.qos.TenantQosGate`) bounds
  a light tenant's latency under a heavy tenant's burst, at no cost to
  aggregate throughput.
"""

from dataclasses import dataclass

from _tables import emit, kops, us

from repro.apps.dpu_cache import run_dpu_cache_experiment
from repro.core.messages import IoRequest, IoResponse, OpCode
from repro.net.packet import FiveTuple
from repro.sim import Environment, Resource, SeededRng
from repro.topology.qos import QosConfig, TenantQosGate

CACHE_SIZES = (0, 128 << 10, 512 << 10, 2 << 20)


def run_cache():
    results = {
        size: run_dpu_cache_experiment(size, reads=2400)
        for size in CACHE_SIZES
    }
    rows = [
        (
            f"{size >> 10}KB" if size else "off",
            f"{r.hit_rate * 100:.1f}%",
            kops(r.throughput),
            us(r.mean_latency),
            r.ssd_reads,
        )
        for size, r in results.items()
    ]
    emit(
        "ext_dpu_cache",
        "DPU-memory read cache under Zipfian reads",
        ("cache", "hit rate", "reads/s", "mean latency", "SSD reads"),
        rows,
    )
    return results


@dataclass
class FairnessResult:
    """The decisive number is the light tenant's *worst* latency: under
    FIFO its first request during the burst waits for the whole burst
    (head-of-line blocking); under DRR it is dispatched within one
    round regardless of the heavy backlog."""

    light_max_latency: float
    light_mean_latency: float
    heavy_throughput: float


DURATION = 0.05
HEAVY_BURST = 2_000
LIGHT_RATE = 5_000.0
REQUEST_BYTES = 4096
SERVICE_TIME = 10e-6


def run_tenant_isolation(scheduler):
    """A light interactive tenant vs. a heavy bursty one, on a server
    that takes ``SERVICE_TIME`` per message, one message at a time.

    The heavy tenant dumps a deep burst at t=0; the light tenant issues
    a steady closed-loop trickle.  ``"drr"`` puts the live QoS gate in
    front of the server (no admission buckets, no shedding — only its
    weighted-fair dispatch); ``"fifo"`` is the same service behind one
    :class:`Resource`, the arrival order stock DDS effectively has.
    """
    env = Environment()
    rng = SeededRng(71)
    latencies = {"light": [], "heavy": []}
    server = Resource(env, capacity=1)

    def serve(flow, requests, respond):
        yield server.hold(SERVICE_TIME)
        for request in requests:
            respond(IoResponse(request.request_id, ok=True))

    if scheduler == "drr":
        submit = TenantQosGate(
            env,
            QosConfig(
                queue_capacity=HEAVY_BURST,
                max_inflight=1,
                sojourn_target=None,
                tenant_of=lambda flow: flow.client_ip,
            ),
            serve,
        ).intake
    else:

        def submit(flow, requests, respond):
            env.process(serve(flow, requests, respond))

    def send(tenant, request_id):
        done = env.event()
        sent = env.now

        def respond(_response):
            latencies[tenant].append(env.now - sent)
            done.succeed()

        write = IoRequest(
            OpCode.WRITE, request_id, 1, 0, REQUEST_BYTES,
            bytes(REQUEST_BYTES),
        )
        submit(FiveTuple(tenant, 40000, "10.0.0.1", 5000), [write], respond)
        return done

    def light():
        request_id = HEAVY_BURST
        while env.now < DURATION:
            yield env.timeout(rng.exponential(1 / LIGHT_RATE))
            request_id += 1
            yield send("light", request_id)

    for request_id in range(HEAVY_BURST):
        send("heavy", request_id)
    env.process(light())
    env.run(until=DURATION)
    light_waits = latencies["light"]
    return FairnessResult(
        light_max_latency=max(light_waits),
        light_mean_latency=sum(light_waits) / len(light_waits),
        heavy_throughput=len(latencies["heavy"]) / DURATION,
    )


def run_tenancy():
    results = {
        scheduler: run_tenant_isolation(scheduler)
        for scheduler in ("fifo", "drr")
    }
    rows = [
        (
            scheduler,
            f"{r.light_max_latency * 1e3:.2f}ms",
            us(r.light_mean_latency),
            f"{r.heavy_throughput:.0f}/s",
        )
        for scheduler, r in results.items()
    ]
    emit(
        "ext_multitenancy",
        "light tenant under a heavy burst: FIFO vs DRR",
        ("scheduler", "light max lat", "light mean", "heavy tput"),
        rows,
    )
    return results


def test_ext_dpu_cache(benchmark):
    results = benchmark.pedantic(run_cache, rounds=1, iterations=1)
    stock = results[0]
    big = results[2 << 20]
    # Hit rate and throughput grow monotonically with cache size.
    hit_rates = [results[s].hit_rate for s in CACHE_SIZES]
    assert hit_rates == sorted(hit_rates)
    assert big.hit_rate > 0.6
    assert big.throughput > 2 * stock.throughput
    assert big.ssd_reads < 0.5 * stock.ssd_reads


def test_ext_multitenancy(benchmark):
    results = benchmark.pedantic(run_tenancy, rounds=1, iterations=1)
    fifo, drr = results["fifo"], results["drr"]
    assert fifo.light_max_latency > 10e-3  # head-of-line blocking
    assert drr.light_max_latency < fifo.light_max_latency / 50
    assert drr.heavy_throughput > 0.9 * fifo.heavy_throughput
