"""``harness.differential`` on a toy scenario: three jobs on one core."""

from repro.bench.harness import differential
from repro.hardware.cpu import CpuPool
from repro.sim import Environment, Resource

EXECUTE = CpuPool.execute
NO_OPS = [(Resource, "hold", Resource.hold), (Environment, "run", Environment.run)]


def _slower(self, core_time):
    yield from EXECUTE(self, core_time + 1e-9 * self.speed)  # 1 ns longer


def _jobs(seed):
    env, done = Environment(), []
    core = CpuPool(env)

    def job(name):
        yield from core.execute(seed * 1e-6)
        done.append((name, env.now))

    for name in "abc":
        env.process(job(name))
    env.run()
    return {"done": done, "now": env.now}, env


def test_a_planted_site_is_found_and_named():
    planted = [NO_OPS[0], (CpuPool, "execute", _slower), NO_OPS[1]]
    report = differential(_jobs, {"planted": planted}, (1, 2))["planted"]
    assert sorted(report.divergences) == [1, 2]
    assert report.divergences[1].sites == ("CpuPool.execute",)
    assert CpuPool.execute is EXECUTE  # restored after every run


def test_an_identical_reference_diverges_nowhere():
    report = differential(_jobs, {"same": NO_OPS}, (1, 2, 3))["same"]
    assert report.divergences == {}
    assert sorted(report.events) == [1, 2, 3]
    assert all(ours == theirs > 0 for ours, theirs in report.events.values())


def test_the_first_divergence_names_key_and_list_index():
    def clock(seed):
        observation, env = _jobs(seed)
        return {"now": observation["now"]}, env

    planted = {"planted": [(CpuPool, "execute", _slower)]}
    in_list = differential(_jobs, planted, (1,))["planted"].divergences[1]
    assert in_list[:3] == ("done", 0, ("a", 1e-6))
    scalar = differential(clock, planted, (1,))["planted"].divergences[1]
    assert scalar[:3] == ("now", None, 3e-6)
    assert scalar.reference > scalar.shipped
