"""The shipped interpreter against the if-chain it replaced.

:mod:`repro.pushdown.interp` decodes a program once and runs a page at
a time; ``tests/reference_interp.py`` is the per-record ``if op is
Op.X`` interpreter it replaced, kept verbatim.  The contract (DESIGN.md
§14 "Execution") is that nothing observable moved: for any bytecode —
verified or instruction soup — any record, fuel and stack limit, both
return the same ``(selected, emitted)`` and equal
:class:`~repro.pushdown.interp.ExecStats` (so every simulated cycle is
the same), leave the same accumulators, or raise the *same*
:class:`~repro.pushdown.interp.Trap` subclass; and nothing but a
``Trap`` ever escapes.  :func:`~repro.pushdown.interp.interpret_page`
is the per-record entry folded over a page, on the software path and on
the split the RXP lowering makes.
"""

from __future__ import annotations

import dataclasses
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hardware.accelerators import BF2_REGEX, HardwareAccelerator
from repro.hardware.cpu import CpuPool
from repro.pushdown import (
    ACC_REGS,
    STACK_LIMIT,
    ExecStats,
    FuelTrap,
    Instruction,
    Op,
    OperandTrap,
    Pipeline,
    Program,
    ScratchTrap,
    StackTrap,
    Trap,
    WindowTrap,
    interpret,
    interpret_page,
    interpret_pipeline,
    verify,
)
from repro.pushdown.engine import HOST_HZ, PushdownEngine, cycles_of
from repro.pushdown.isa import KINDS, regex_filter
from repro.pushdown.scan import (
    GEOMETRY,
    PIPELINES,
    canonical_pipeline,
    pipeline_table,
)
from repro.sim import Environment

from . import reference_interp
from .test_pushdown_properties import (
    GEO,
    built_pipelines,
    chaos_programs,
    records,
    structured_programs,
)

programs = st.one_of(structured_programs(), chaos_programs)

#: Random bytes almost never hold what the generators' patterns look
#: for, so half the whole records get a match spliced in somewhere.
spliced_records = st.builds(
    lambda body, at, needle: (body[:at] + needle + body[at:])[:len(body)],
    records,
    st.integers(0, GEO.record_bytes - 1),
    st.sampled_from((b"x42", b"aab", b"k7")),
)

#: Whole records, and one in ten of the wrong length for the window
#: check that precedes everything else.
any_records = st.one_of(
    *[records] * 4, *[spliced_records] * 5,
    st.binary(max_size=2 * GEO.record_bytes),
)

fuels = st.one_of(st.integers(1, 400), st.just(GEO.fuel_limit))

stack_limits = st.sampled_from((1, 2, 3, STACK_LIMIT, STACK_LIMIT * 128))


@st.composite
def pipelines(draw) -> Pipeline:
    """Any stages at all, coerced into a legal filter → project →
    aggregate order (soup keeps being soup under another kind)."""
    kinds = [kind for kind in KINDS if draw(st.booleans())]
    return Pipeline(
        tuple(
            dataclasses.replace(draw(programs), kind=kind) for kind in kinds
        )
    )


def _observe(run, *args, **kwargs):
    """What a caller can see of one interpretation: its result or the
    type of its trap, and the accumulators either way."""
    acc = [0] * ACC_REGS
    try:
        result = run(*args, acc=acc, **kwargs)
    except Trap as trap:  # anything else escapes and fails the test
        return type(trap), acc
    return (result.selected, result.emitted, result.stats), acc


@given(
    program=programs, record=any_records, fuel=fuels,
    stack_limit=stack_limits,
)
@settings(max_examples=600, deadline=None)
def test_interpret_matches_reference(program, record, fuel, stack_limit):
    args = (program, record, GEO, fuel)
    assert _observe(interpret, *args, stack_limit=stack_limit) == _observe(
        reference_interp.interpret, *args, stack_limit=stack_limit
    )


@given(
    pipeline=st.one_of(pipelines(), built_pipelines()),
    record=any_records, fuel=fuels, stack_limit=stack_limits,
)
@settings(max_examples=400, deadline=None)
def test_interpret_pipeline_matches_reference(
    pipeline, record, fuel, stack_limit
):
    # The one deliberate difference, pinned below: see
    # test_the_window_is_checked_even_when_no_stage_would_read_it.
    assume(pipeline.stages or len(record) == GEO.record_bytes)
    args = (pipeline, record, GEO, fuel)
    assert _observe(
        interpret_pipeline, *args, stack_limit=stack_limit
    ) == _observe(
        reference_interp.interpret_pipeline, *args, stack_limit=stack_limit
    )


def test_the_window_is_checked_even_when_no_stage_would_read_it():
    """The reference checked the record's length once per stage, so a
    pipeline with *no* stages accepted any bytes as a selected record;
    the shipped entries check it once per record, before anything else.
    Stricter, and the only place the two can be told apart."""
    empty, short = Pipeline(()), bytes(GEO.record_bytes - 1)
    assert reference_interp.interpret_pipeline(empty, short, GEO, 9).selected
    with pytest.raises(WindowTrap):
        interpret_pipeline(empty, short, GEO, 9)
    with pytest.raises(WindowTrap):
        interpret_page(empty, bytes(GEO.record_bytes) + short, GEO, 9, [0] * 4)
    whole = bytes(2 * GEO.record_bytes)
    selected, emitted, stats = interpret_page(empty, whole, GEO, 9, [0] * 4)
    assert [slot for slot, _record in selected] == [0, 1]
    assert emitted == [b"", b""] and stats == ExecStats()


def _program(kind, *code, scratch=0, patterns=()):
    return Program(
        kind, tuple(Instruction(*instr) for instr in code), scratch, patterns
    )


#: Hand-written programs that run clean and between them execute every
#: opcode (the generators above rarely finish a JZ, LOADD, SUB or AMIN):
#: both jump outcomes, nested loops, saturation at both bounds, a u64
#: load above I64_MAX, scratch round-trips and every accumulator op.
TOUR = (
    _program(
        "filter",
        (Op.PUSH, 7), (Op.PUSH, 3), (Op.SUB,), (Op.PUSH, 5), (Op.MUL,),
        (Op.PUSH, 20), (Op.EQ,), (Op.RET,),
    ),
    _program(
        "filter",
        (Op.PUSH, 0), (Op.JZ, 4), (Op.PUSH, 99), (Op.RET,),
        (Op.PUSH, 1), (Op.JZ, 3), (Op.JMP, 8), (Op.PUSH, 98),
        (Op.PUSH, 2), (Op.PUSH, 3), (Op.LT,), (Op.PUSH, 3), (Op.PUSH, 2),
        (Op.GT,), (Op.AND,), (Op.PUSH, 0), (Op.OR,), (Op.NOT,), (Op.NOT,),
        (Op.RET,),
    ),
    _program(
        "project",
        (Op.PUSH, 8), (Op.LOADD, 0, 4), (Op.EMITV, 0, 2), (Op.EMITF, 3, 8),
        (Op.LOAD, 0, 8), (Op.DUP,), (Op.ADD,), (Op.EMITV, 0, 8),
        (Op.PUSH, -(1 << 63)), (Op.DUP,), (Op.ADD,), (Op.PUSH, -1),
        (Op.MUL,), (Op.EMITV, 0, 8), (Op.RET,),
    ),
    _program(
        "aggregate",
        (Op.PUSH, 0x1234), (Op.STORE, 2, 2), (Op.LOADS, 1, 4), (Op.AADD, 0),
        (Op.PUSH, -5), (Op.AMIN, 3), (Op.PUSH, 9), (Op.AMAX, 2),
        (Op.LOOP, 3), (Op.LOOP, 2), (Op.PUSHCTR,), (Op.AADD, 1), (Op.ACNT, 0),
        (Op.END,), (Op.PUSHCTR,), (Op.PUSH, 1), (Op.SWAP,), (Op.POP,),
        (Op.POP,), (Op.END,), (Op.MATCH, 0), (Op.AADD, 1), (Op.RET,),
        scratch=8, patterns=(rb"\xff+",),
    ),
)


def test_every_opcode_runs_clean_and_matches_reference():
    executed = set()
    for program in TOUR:
        for record in (
            bytes(GEO.record_bytes),
            b"\xff" * GEO.record_bytes,
            bytes(GEO.record_bytes - 3) + b"\xff\xff\x7f",  # matches late
        ):
            args = (program, record, GEO, GEO.fuel_limit)
            shipped, acc = _observe(interpret, *args)
            assert (shipped, acc) == _observe(
                reference_interp.interpret, *args
            )
            assert not isinstance(shipped, type), (program, shipped)
            executed.update(shipped[2].counts)
    assert executed == set(Op)


def _case(trap, *code, fuel=9, **resources):
    return _program("project", *code, **resources), fuel, trap


#: Two faults at once, under ``stack_limit=1`` (a leading PUSH fills the
#: stack): which trap wins is part of the contract, and the random
#: programs above reach these orders only by luck.
PRECEDENCE = [
    # LOADD pops its offset before it looks at its width ...
    _case(StackTrap, (Op.LOADD, 0, 3)),
    # ... every other opcode checks its operands before it pops.
    _case(OperandTrap, (Op.STORE, 0, 3), scratch=8),
    _case(ScratchTrap, (Op.STORE, 7, 2), scratch=8),
    _case(OperandTrap, (Op.JZ, 99)),
    _case(OperandTrap, (Op.AADD, 4)),
    _case(OperandTrap, (Op.EMITV, 0, 3)),
    # Width, then window, then — last — room on the stack.
    _case(OperandTrap, (Op.LOAD, 99, 3)),
    _case(WindowTrap, (Op.PUSH, 1), (Op.LOAD, 99, 4)),
    _case(ScratchTrap, (Op.PUSH, 1), (Op.LOADS, 0, 4)),
    _case(OperandTrap, (Op.PUSH, 1), (Op.MATCH, 0)),
    _case(OperandTrap, (Op.PUSH, 1), (Op.PUSHCTR,)),
    _case(StackTrap, (Op.PUSH, 1), (Op.DUP,)),
    # Running off the end beats running out of fuel, which beats
    # whatever the next instruction would have done.
    _case(OperandTrap, (Op.PUSH, 1), fuel=1),
    _case(FuelTrap, (Op.PUSH, 1), (Op.JZ, 99), fuel=1),
    # Before any instruction: the pattern pool, then the scratch size.
    _case(OperandTrap, (Op.RET,), scratch=65, patterns=(rb"(",)),
    _case(ScratchTrap, (Op.RET,), scratch=65),
]


@pytest.mark.parametrize("program, fuel, trap", PRECEDENCE)
def test_trap_precedence(program, fuel, trap):
    args = (program, bytes(GEO.record_bytes), GEO, fuel)
    shipped = _observe(interpret, *args, stack_limit=1)
    assert shipped == _observe(
        reference_interp.interpret, *args, stack_limit=1
    )
    assert shipped[0] is trap


def test_a_malformed_record_traps_before_a_malformed_program():
    program = _program("project", (Op.RET,), patterns=(rb"(",))
    for run in (interpret, reference_interp.interpret):
        with pytest.raises(WindowTrap):
            run(program, b"short", GEO, 9)


# ----------------------------------------------------------------------
# interpret_page == the per-record entry folded over the page
# ----------------------------------------------------------------------
def _fold_reference(pipeline, page, geometry, fuel, acc, stack_limit):
    """The loop every caller of the raw interpreter used to write."""
    size = geometry.record_bytes
    selected, emitted, stats = [], [], ExecStats()
    for slot, at in enumerate(range(0, len(page), size)):
        record = page[at:at + size]
        result = reference_interp.interpret_pipeline(
            pipeline, record, geometry, fuel, acc=acc,
            stack_limit=stack_limit,
        )
        reference_interp.merge(stats, result.stats)
        if result.selected:
            selected.append((slot, record))
            emitted.append(result.emitted)
    return selected, emitted, stats


def _observe_page(run, pipeline, page, geometry, fuel, stack_limit):
    acc = [0] * ACC_REGS
    try:
        result = run(pipeline, page, geometry, fuel, acc, stack_limit)
    except Trap as trap:
        return type(trap), acc
    return result, acc


def _shipped_page(pipeline, page, geometry, fuel, acc, stack_limit):
    return interpret_page(
        pipeline, page, geometry, fuel, acc, stack_limit=stack_limit
    )


@given(
    pipeline=st.one_of(pipelines(), built_pipelines()),
    # Up to a page and a bit: the last record may be partial.
    page=st.binary(max_size=GEO.page_bytes + GEO.record_bytes // 2),
    fuel=fuels, stack_limit=stack_limits,
)
@settings(max_examples=300, deadline=None)
def test_interpret_page_is_interpret_pipeline_folded(
    pipeline, page, fuel, stack_limit
):
    assume(pipeline.stages or len(page) % GEO.record_bytes == 0)
    args = (pipeline, page, GEO, fuel, stack_limit)
    assert _observe_page(_shipped_page, *args) == _observe_page(
        _fold_reference, *args
    )


def test_interpret_page_on_the_canonical_table():
    """All 8192 records of the benchmark's table, every pipeline."""
    table = pipeline_table(128, 0.05, 1)
    for name in PIPELINES:
        pipeline = canonical_pipeline(name)
        verdict, _token = verify(pipeline, GEOMETRY)
        args = (pipeline, b"".join(table.pages), GEOMETRY, verdict.fuel,
                STACK_LIMIT)
        shipped, acc = _observe_page(_shipped_page, *args)
        assert (shipped, acc) == _observe_page(_fold_reference, *args)
        assert len(shipped[0]) == table.hits, name
        if pipeline.stage("aggregate") is not None:
            assert acc[:3] == [table.value_sum, table.hits, table.max_weight]


def _engine_page(token, page, accelerated):
    env = Environment()
    engine = PushdownEngine(
        env, CpuPool(env),
        HardwareAccelerator(env, BF2_REGEX) if accelerated else None,
    )
    proc = env.process(engine.execute_page(token, page))
    env.run(until=proc)
    return proc.value, engine.acc, env.now


def test_rxp_split_matches_the_per_record_split():
    """With the RXP taking the filter, the survivors — and only they —
    run the remaining stages: same rows, output, cycles and registers as
    searching and interpreting record by record."""
    table = pipeline_table(4, 0.2, 99)
    for name in PIPELINES:
        verdict, token = verify(canonical_pipeline(name), GEOMETRY)
        assert token.pattern is not None
        matcher = re.compile(token.pattern)
        rest = Pipeline(
            tuple(p for p in token.pipeline.stages if p.kind != "filter")
        )
        for page in table.pages:
            outcome, acc, _now = _engine_page(token, page, accelerated=True)
            survivors = b"".join(
                page[at:at + GEOMETRY.record_bytes]
                for at in range(0, len(page), GEOMETRY.record_bytes)
                if matcher.search(page[at:at + GEOMETRY.record_bytes])
            )
            expected_acc = [0] * ACC_REGS
            _rows, emitted, stats = _fold_reference(
                rest, survivors, GEOMETRY, verdict.fuel, expected_acc,
                STACK_LIMIT,
            )
            assert b"".join(r for _slot, r in outcome.selected) == survivors
            assert outcome.emitted == [chunk for chunk in emitted if chunk]
            assert outcome.cycles == cycles_of(stats)
            assert outcome.accel_bytes == len(page)
            assert acc == expected_acc
            # The software engine selects the same rows, slot for slot.
            software, soft_acc, _now = _engine_page(token, page, False)
            assert software.selected == outcome.selected
            assert software.emitted == outcome.emitted
            assert soft_acc == acc


# ----------------------------------------------------------------------
# a lowered filter selects what a search per record would (one page
# search per hit where the pattern allows), billed by its placement
# ----------------------------------------------------------------------
def _billed(page_bytes, cycles, accelerated):
    """``env.now`` once a placement has paid: the RXP job over the page
    (when accelerated), then ``cycles`` on the core."""
    env = Environment()
    core = CpuPool(env)
    rxp = HardwareAccelerator(env, BF2_REGEX) if accelerated else None

    def bill():
        if rxp is not None:
            yield from rxp.process(page_bytes)
        if cycles:
            yield from core.execute(cycles / HOST_HZ)

    env.run(until=env.process(bill()))
    return env.now


def _lowered_reference(token, page, accelerated):
    """What the engine returned before the core placements searched:
    the whole pipeline interpreted record by record on the core, or a
    search per record (what ``regex_scan``'s page search must equal)
    and the residual stages over the survivors only on the RXP."""
    acc = [0] * ACC_REGS
    size, fuel = token.geometry.record_bytes, token.verdict.fuel
    if accelerated:
        matcher = re.compile(token.pattern)
        selected = [
            (at // size, page[at:at + size])
            for at in range(0, len(page), size)
            if matcher.search(page[at:at + size])
        ]
        _rows, emitted, stats = _fold_reference(
            Pipeline(token.pipeline.stages[1:]),
            b"".join(record for _slot, record in selected),
            token.geometry, fuel, acc, STACK_LIMIT,
        )
    else:
        selected, emitted, stats = _fold_reference(
            token.pipeline, page, token.geometry, fuel, acc, STACK_LIMIT
        )
    cycles = cycles_of(stats)
    return (
        selected, [chunk for chunk in emitted if chunk], cycles, acc,
        len(page) if accelerated else 0,
        _billed(len(page), cycles, accelerated),
    )


def _lowered_engine(token, page, accelerated):
    outcome, acc, now = _engine_page(token, page, accelerated)
    return (
        outcome.selected, outcome.emitted, outcome.cycles, acc,
        outcome.accel_bytes, now,
    )


@pytest.mark.parametrize("accelerated", (False, True), ids=("core", "rxp"))
def test_a_lowered_filter_bills_its_placement_on_the_table(accelerated):
    table = pipeline_table(4, 0.2, 99)
    for name in PIPELINES:
        _verdict, token = verify(canonical_pipeline(name), GEOMETRY)
        assert token.pattern is not None
        for page in table.pages:
            assert _lowered_engine(token, page, accelerated) == (
                _lowered_reference(token, page, accelerated)
            ), name


#: Patterns whose answer depends on where a record starts and ends: an
#: anchor at each end, a word boundary and a lookbehind at its first
#: byte, and needles the page holds across a record boundary.
LOWERED_PATTERNS = (rb"^k7", rb"x42$", rb"\bab\d", rb"(?<=a)b\d", rb"needle")
NEEDLES = (b"k7", b"x42", b"x42\n", b"ab1", b"ab2", b"needle", b"\n")
_PROJECT, _AGGREGATE = canonical_pipeline("filter-project-agg").stages[1:]
RESIDUALS = ((), (_PROJECT,), (_AGGREGATE,), (_PROJECT, _AGGREGATE))


@st.composite
def lowered_pages(draw):
    """Up to twelve whole records with needles spliced in, half of them
    placed against a record boundary: starting on it, ending on it, or
    straddling it."""
    size = GEOMETRY.record_bytes
    count = draw(st.integers(0, 12))
    page = bytearray(
        draw(st.binary(min_size=count * size, max_size=count * size))
    )
    for _ in range(draw(st.integers(0, 3 * count))):
        needle = draw(st.sampled_from(NEEDLES))
        if draw(st.booleans()):
            at = size * draw(st.integers(0, count)) - draw(
                st.integers(0, len(needle))
            )
        else:
            at = draw(st.integers(0, len(page)))
        at = max(0, min(at, len(page) - len(needle)))
        page[at:at + len(needle)] = needle
    return bytes(page)


@given(
    pattern=st.sampled_from(LOWERED_PATTERNS),
    residual=st.sampled_from(RESIDUALS),
    page=lowered_pages(),
    accelerated=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_a_lowered_filter_is_a_search_per_record(
    pattern, residual, page, accelerated
):
    _verdict, token = verify(
        Pipeline((regex_filter(pattern),) + residual), GEOMETRY
    )
    assert token.pattern == pattern
    assert _lowered_engine(token, page, accelerated) == (
        _lowered_reference(token, page, accelerated)
    )
