"""``harness.differential`` on a shortened one-shard kit scenario."""

from dataclasses import replace

from repro.bench.harness import HOST_PATH, _first_divergence, differential
from repro.hardware.cpu import CpuPool
from repro.sim import Environment, Resource

EXECUTE = CpuPool.execute
NO_OPS = [(Resource, "book", Resource.book), (Environment, "run", Environment.run)]
SHORT = replace(HOST_PATH, total_requests=24)


def _slower(self, core_time):
    yield from EXECUTE(self, core_time + 1e-9 * self.speed)  # 1 ns longer


def test_a_planted_site_is_found_and_named():
    planted = [NO_OPS[0], (CpuPool, "execute", _slower), NO_OPS[1]]
    report = differential(SHORT, {"planted": planted}, (1, 2))["planted"]
    assert sorted(report.divergences) == [1, 2]
    assert report.divergences[1].sites == ("CpuPool.execute",)
    assert CpuPool.execute is EXECUTE  # restored after every run


def test_an_identical_reference_diverges_nowhere():
    report = differential(SHORT, {"same": NO_OPS}, (1, 2, 3))["same"]
    assert report.divergences == {}
    assert sorted(report.events) == [1, 2, 3]
    assert all(ours == theirs > 0 for ours, theirs in report.events.values())


def test_the_first_divergence_names_key_and_list_index():
    planted = {"planted": [(CpuPool, "execute", _slower)]}
    found = differential(SHORT, planted, (1,))["planted"].divergences[1]
    assert (found.key, found.index) == ("acks", 0)
    request_id, shipped_at, ok = found.shipped
    assert found.reference[0] == request_id and ok
    assert found.reference[1] > shipped_at
    # A scalar value has no index.
    scalar = _first_divergence({"now": 3e-6}, {"now": 4e-6})
    assert scalar[:3] == ("now", None, 3e-6)
    assert scalar.reference > scalar.shipped
