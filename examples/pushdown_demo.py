#!/usr/bin/env python
"""Verified programmable pushdown: compile, prove, execute, fall back.

Four acts (DESIGN.md §14):

1. a single-expression Python predicate compiles to stack bytecode and
   the static verifier returns a *proof* — exact worst-case fuel,
   stack, and emit bounds — not just a yes;
2. the same verified pipelines sweep the three operator placements
   (client host core, DPU Arm cores, RXP accelerator) and the table
   shows the paper's pushdown story: wire bytes and client-core time
   collapsing as operators move device-side;
3. a sharded server runs a verified filter→project→aggregate on the
   owning shard's DPU engine;
4. a program the verifier refuses (an operand stack the proof cannot
   bound) still returns the right answer — on the host, with every
   page shipped — alongside the typed PDV verdict.

Run:  python examples/pushdown_demo.py
"""

from repro.hardware.nic import NetworkLink
from repro.pushdown import (
    Instruction,
    Op,
    Pipeline,
    Program,
    compile_predicate,
    verify,
    verify_program,
)
from repro.pushdown.scan import (
    GEOMETRY,
    PAGE_BYTES,
    PIPELINES,
    PLACEMENTS,
    VALUE_OFFSET,
    build_pipeline_table,
    canonical_pipeline,
    run_pipeline_experiment,
)
from repro.sim import Environment, SeededRng
from repro.storage.disk import RamDisk, SpdkBdev
from repro.storage.filesystem import DdsFileSystem
from repro.topology.sharding import ShardedOffloadServer

PAGES = 16


def act_one_compile_and_prove() -> None:
    print("1. compile + prove")

    def pred(rec):
        return rec.u32(16) > 5000 and rec.match(rb"needle-\d{8}")

    program = compile_predicate(pred)
    verdict = verify_program(program, GEOMETRY)
    print(f"   predicate compiles to {len(program.code)} instructions:")
    ops = " ".join(instr.op.value for instr in program.code)
    print(f"     {ops}")
    print(
        f"   proof: fuel<={verdict.fuel} steps, stack<={verdict.max_stack},"
        f" emit<={verdict.max_emit}B  (ok={verdict.ok})\n"
    )


def act_two_placement_sweep() -> None:
    print("2. placement sweep (verified bytecode, three engines)")
    print(
        f"   {'pipeline':20s} {'placement':13s} {'scan':>9s} "
        f"{'wire':>9s} {'DPU':>9s} {'client':>9s}"
    )
    for pipeline_name in PIPELINES:
        for placement in PLACEMENTS:
            result = run_pipeline_experiment(
                placement, pipeline_name, pages=PAGES, selectivity=0.1
            )
            print(
                f"   {pipeline_name:20s} {placement:13s} "
                f"{result.scan_seconds * 1e6:7.1f}us "
                f"{result.wire_bytes:8d}B "
                f"{result.dpu_core_seconds * 1e6:7.1f}us "
                f"{result.client_core_seconds * 1e6:7.1f}us"
            )
    print()


def sharded_table_server(env):
    fs = DdsFileSystem(
        env, SpdkBdev(env, RamDisk(PAGES * PAGE_BYTES + (32 << 20)))
    )
    fs.create_directory("table")
    file_id = fs.create_file("table", "records")
    table = build_pipeline_table(SeededRng(55), PAGES, 0.1)
    for page_id, page in enumerate(table.pages):
        fs.write_sync(file_id, page_id * PAGE_BYTES, page)
    server = ShardedOffloadServer(env, NetworkLink(env), fs, shard_count=4)
    server.enable_pushdown()
    return server, file_id


def act_three_sharded_offload(env, server, file_id) -> None:
    print("3. verified pipeline on the sharded server")
    pipeline = canonical_pipeline("filter-project-agg")
    proc = env.process(server.pushdown_scan(file_id, pipeline, PAGES))
    env.run(until=proc)
    verdict, outcome = proc.value
    total, count, best = outcome.acc[0], outcome.acc[1], outcome.acc[2]
    print(
        f"   shard {outcome.shard} (owner) ran it on-DPU: "
        f"{outcome.rows} rows, sum={total}, count={count}, max={best}"
    )
    print(
        f"   wire: {outcome.wire_bytes}B of "
        f"{PAGES * PAGE_BYTES}B table  (offloaded={outcome.offloaded})\n"
    )


def act_four_rejection_falls_back(env, server, file_id) -> None:
    print("4. rejected program -> typed verdict + host fallback")
    # value > 5000, computed 40 redundant times and AND-folded: the
    # operand stack provably peaks past the DPU admission bound.
    code = []
    for _ in range(40):
        code.append(Instruction(Op.LOAD, VALUE_OFFSET, 4))
        code.append(Instruction(Op.PUSH, 5000))
        code.append(Instruction(Op.GT))
    code.extend(Instruction(Op.AND) for _ in range(39))
    code.append(Instruction(Op.RET))
    deep = Pipeline((Program(kind="filter", code=tuple(code)),))
    _pipeline_verdict, token = verify(deep, GEOMETRY)
    assert token is None
    proc = env.process(server.pushdown_scan(file_id, deep, PAGES))
    env.run(until=proc)
    verdict, outcome = proc.value
    print(f"   verdict: {verdict.explain()}")
    print(
        f"   host answered anyway: {outcome.rows} rows, "
        f"{outcome.wire_bytes}B shipped (offloaded={outcome.offloaded})"
    )


def main() -> None:
    act_one_compile_and_prove()
    act_two_placement_sweep()
    env = Environment()
    server, file_id = sharded_table_server(env)
    act_three_sharded_offload(env, server, file_id)
    act_four_rejection_falls_back(env, server, file_id)


if __name__ == "__main__":
    main()
