"""Figure 21: traffic-director throughput vs. DPU cores (§8.5).

RSS hashes flows to cores, each core owning its flows' TCP-splitting
state exclusively.
"""

from _tables import Claim, above, bench, between, emit

from repro.core import IoRequest, IoResponse, OpCode, TrafficDirector
from repro.core.api import passthrough_callbacks
from repro.hardware import DPU_CPU, CpuPool, NetworkLink
from repro.net import AppSignature, FiveTuple
from repro.sim import Environment
from repro.structures import CuckooCacheTable

CORES = (1, 2, 4, 8)
MESSAGE_BYTES = 1400
MESSAGES = 3000
FLOWS_PER_CORE = 8

CLAIMS = (
    Claim("fig21", "bandwidth, 1 core (bits/s)", "6.4 Gbps", lambda r: r[1], between(4.5e9, 8.5e9)),
    Claim("fig21", "bandwidth, 2 cores / 1", "linear with RSS", lambda r: r[2] / r[1], above(1.7)),
    Claim("fig21", "bandwidth, 4 cores / 1", "linear with RSS", lambda r: r[4] / r[1], above(3.2)),
    Claim("fig21", "bandwidth, 8 cores / 1", "linear with RSS", lambda r: r[8] / r[1], above(5.8)),
)


def balanced_flows(cores: int) -> list:
    """Pick flows that RSS spreads evenly over the director cores."""
    buckets = {index: 0 for index in range(cores)}
    flows = []
    port = 40_000
    while len(flows) < cores * FLOWS_PER_CORE:
        flow = FiveTuple("10.0.0.2", port, "10.0.0.1", 5000)
        port += 1
        bucket = flow.rss_hash(cores)
        if buckets[bucket] < FLOWS_PER_CORE:
            buckets[bucket] += 1
            flows.append(flow)
    return flows


def measure(cores: int) -> float:
    """Directed bandwidth (bits/s) with ``cores`` director cores."""
    env = Environment()
    link = NetworkLink(env)
    core_list = [CpuPool(env, speed=DPU_CPU.speed) for _ in range(cores)]

    def host_handler(requests, respond):
        for request in requests:
            respond(IoResponse(request.request_id, True))
        yield env.timeout(0)

    director = TrafficDirector(
        env,
        link,
        core_list,
        AppSignature(server_port=5000),
        passthrough_callbacks(),
        CuckooCacheTable(64),
        None,  # no offload engine: pure bump-in-the-wire directing
        host_handler,
        lambda file_id: 0,  # one DPU: every file is its own
    )
    flows = balanced_flows(cores)
    done = env.event()
    completed = [0]
    payload = bytes(MESSAGE_BYTES)

    def on_response(_response):
        completed[0] += 1
        if completed[0] >= MESSAGES and not done.triggered:
            done.succeed()

    def pump(flow, count, base_id):
        for i in range(count):
            request = IoRequest(
                OpCode.WRITE, base_id + i, 1, 0, MESSAGE_BYTES, payload
            )
            yield env.process(
                director.receive_message(flow, [request], on_response)
            )

    per_flow = MESSAGES // len(flows) + 1
    for index, flow in enumerate(flows):
        env.process(pump(flow, per_flow, index * per_flow * 10))
    env.run(until=done)
    directed_bytes = completed[0] * MESSAGE_BYTES
    return directed_bytes * 8 / env.now


def run_figure():
    results = {cores: measure(cores) for cores in CORES}
    rows = [
        (cores, f"{bps / 1e9:.2f} Gbps", f"{bps / cores / 1e9:.2f} Gbps")
        for cores, bps in results.items()
    ]
    emit(
        "fig21",
        "traffic director: directed bandwidth vs DPU cores",
        ("cores", "total", "per core"),
        rows, CLAIMS, results,
    )
    return results


test_fig21_director_scaling = bench(run_figure)
