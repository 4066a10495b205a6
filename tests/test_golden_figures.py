"""Pinned-golden regression tests for the engine refactor (ISSUE 6).

Reduced fig16- and fig22-shaped workloads whose *full-precision* outputs
(``repr`` of every float) were captured before the engine hot-path
rebuild.  Any scheduling-order, RNG-draw-order, or float-arithmetic
drift in the engine shows up here as a one-character diff — this is the
safety net that makes engine optimization mechanical.

Regenerate after an *intentional* model change with::

    PYTHONPATH=src python tests/test_golden_figures.py --regen

which prints every re-recorded line as ``label: field old → new`` (the
fields that moved), ready to paste where the change is explained.
"""

from itertools import zip_longest
from pathlib import Path

import pytest

from repro.apps import kv_service, pageserver
from repro.apps.kv_service import run_kv_experiment
from repro.apps.pageserver import run_pageserver_experiment
from repro.bench.harness import run_io_experiment
from repro.hardware import DPU_CPU, CpuPool, MICROSECOND
from repro.sim import Environment, SeededRng
from repro.structures import CuckooCacheTable
from repro.topology.registry import SOLUTIONS

FIXTURES = Path(__file__).parent / "fixtures"

#: Small enough for tier-1, large enough to exercise every model layer
#: (NIC, TCP/PEP, director, offload engine, file service, SSD).
_FIG16_KINDS = ("baseline", "dds-files", "dds-offload")
_FIG16_REQUESTS = 1200


def fig16_golden_lines():
    """One full-precision line per solution at a fixed offered load."""
    lines = []
    for kind in _FIG16_KINDS:
        result = run_io_experiment(
            kind,
            250_000.0,
            total_requests=_FIG16_REQUESTS,
            max_outstanding=96,
        )
        lines.append(
            f"{kind} achieved={result.achieved_iops!r} "
            f"elapsed={result.elapsed!r} p50={result.p50!r} "
            f"p99={result.p99!r} host={result.host_cores!r} "
            f"dpu={result.dpu_cores!r} client={result.client_cores!r}"
        )
    return lines


def solutions_golden_lines():
    """Every registered solution on reads and on a 50/50 mix, then both
    §9 applications on both deployments: one full-precision line each,
    recorded before ``build_server`` became the one assembler.  The four
    ``dds-offload-shard2``/``-shard4`` lines were re-recorded when the
    single-DPU server became the one-shard cluster and the director got
    one receive rule (a multi-shard message books one receive hold, not
    two); every other line is unchanged since."""
    lines = []
    for name in SOLUTIONS:
        for read_fraction in (1.0, 0.5):
            result = run_io_experiment(
                name,
                400_000.0,
                total_requests=_FIG16_REQUESTS,
                read_fraction=read_fraction,
                max_outstanding=96,
            )
            lines.append(
                f"{name} reads={read_fraction} "
                f"achieved={result.achieved_iops!r} "
                f"elapsed={result.elapsed!r} p50={result.p50!r} "
                f"p99={result.p99!r} host={result.host_cores!r} "
                f"dpu={result.dpu_cores!r} client={result.client_cores!r} "
                f"events={result.events}"
            )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kv_service, "RECORDS", 38_900)  # 192 B under budget: one log flush
        patch.setattr(kv_service, "READ_FRACTION", 0.6)
        patch.setattr(pageserver, "PAGES", 2048)
        patch.setattr(pageserver, "REPLAY_RATE", 200_000.0)
        for kind in ("baseline", "dds"):
            for label, result in (
                ("kv", run_kv_experiment(kind, 300_000.0, total_requests=3000)),
                (
                    "pageserver",
                    run_pageserver_experiment(kind, 80_000.0, total_requests=600),
                ),
            ):
                lines.append(
                    f"{label}-{kind} achieved={result.achieved!r} "
                    f"p50={result.p50!r} p99={result.p99!r} "
                    f"host={result.host_cores!r} dpu={result.dpu_cores!r} "
                    f"offloaded={result.offloaded_fraction!r}"
                )
    return lines


def fig22_golden_lines():
    """Cache-table insert timing on a simulated Arm core, full precision."""
    insert_cost = 0.28 * MICROSECOND
    displace_cost = 0.05 * MICROSECOND
    lines = []
    for item_bytes in (16, 256):
        env = Environment()
        core = CpuPool(env, speed=DPU_CPU.speed)
        table = CuckooCacheTable(2000)
        rng = SeededRng(5)
        payload = bytes(item_bytes)

        def writer():
            for _ in range(2000):
                before = table.stats.displacements
                table.insert(rng.randrange(1 << 48), payload)
                kicks = table.stats.displacements - before
                yield from core.execute(
                    insert_cost + kicks * displace_cost + item_bytes * 0.1e-9
                )

        done = env.process(writer())
        env.run(until=done)
        lines.append(
            f"bytes={item_bytes} now={env.now!r} "
            f"displacements={table.stats.displacements} "
            f"chained={table.stats.chained_inserts}"
        )
    return lines


def _check(name, lines):
    expected = (FIXTURES / name).read_text().splitlines()
    assert lines == expected, (
        f"{name} drifted from the pinned pre-refactor golden; if the "
        "change is an intentional model change, regenerate with "
        "`python tests/test_golden_figures.py --regen`"
    )


def test_fig16_reduced_golden():
    _check("golden_fig16.txt", fig16_golden_lines())


def test_every_solution_and_both_apps_golden():
    _check("golden_solutions.txt", solutions_golden_lines())


def test_fig22_reduced_golden():
    _check("golden_fig22.txt", fig22_golden_lines())


def _moved(before, after):
    """One re-recorded line as ``label: field old → new, …``; the whole
    line, old → new, when its shape (or its label) changed."""
    old, new = before.split(), after.split()
    keys = [token.split("=")[0] for token in new]
    changed = [i for i, (o, n) in enumerate(zip(old, new)) if o != n]
    if keys != [token.split("=")[0] for token in old] or changed[0] == 0:
        return f"{before or '(none)'} → {after or '(none)'}"
    moves = [
        f"{keys[i]} {old[i].split('=', 1)[1]} → {new[i].split('=', 1)[1]}"
        for i in changed
    ]
    return " ".join(new[: changed[0]]) + ": " + ", ".join(moves)


def _regen():  # pragma: no cover - maintenance entry point
    FIXTURES.mkdir(exist_ok=True)
    for name, lines in (
        ("golden_fig16.txt", fig16_golden_lines()),
        ("golden_solutions.txt", solutions_golden_lines()),
        ("golden_fig22.txt", fig22_golden_lines()),
    ):
        path = FIXTURES / name
        old = path.read_text().splitlines() if path.exists() else []
        for before, after in zip_longest(old, lines, fillvalue=""):
            if before != after:
                print(f"{name}: {_moved(before, after)}")
        path.write_text("\n".join(lines) + "\n")
    print(f"regenerated goldens in {FIXTURES}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
