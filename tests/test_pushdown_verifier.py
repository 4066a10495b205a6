"""Deterministic verifier verdicts and the Python predicate frontend.

One test per PDV rule family: a minimal program that violates exactly
that rule, asserted down to the rule code (the property suite in
``test_pushdown_properties.py`` covers the positive direction).  The
frontend half checks that ``compile_predicate`` narrows source to the
offload grammar, rejects shared-state reads with PDV302, and that its
output passes the same admission any hand-built program does.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro

from repro.pushdown import (
    FuelTrap,
    Geometry,
    Instruction,
    Op,
    Pipeline,
    Program,
    SourceRejected,
    StackTrap,
    compile_predicate,
    interpret,
    lowers_to_regex,
    regex_filter,
    verify,
    verify_program,
)

GEO = Geometry(record_bytes=64, records_per_page=8)
RECORD = bytes(range(64))


def _ret(kind: str = "aggregate") -> Instruction:
    return Instruction(Op.RET)


# ----------------------------------------------------------------------
# negative verdicts, one per rule
# ----------------------------------------------------------------------
def test_pdv101_back_edge_jump_rejected():
    program = Program(
        kind="aggregate",
        code=(Instruction(Op.JMP, 0), _ret()),
    )
    verdict = verify_program(program, GEO)
    assert not verdict.ok and verdict.rule == "PDV101"
    # The runtime containment for the same program: fuel, not a hang.
    with pytest.raises(FuelTrap):
        interpret(program, RECORD, GEO, fuel=1000)


def test_pdv102_nested_loops_blow_the_step_budget():
    body = (Instruction(Op.PUSH, 1), Instruction(Op.POP))
    program = Program(
        kind="aggregate",
        code=(
            Instruction(Op.LOOP, 64),
            Instruction(Op.LOOP, 64),
            *body,
            Instruction(Op.END),
            Instruction(Op.END),
            _ret(),
        ),
    )
    verdict = verify_program(program, GEO)
    assert not verdict.ok and verdict.rule == "PDV102"
    assert str(GEO.fuel_limit) in verdict.detail


def test_pdv201_operand_stack_overflow_rejected():
    pushes = tuple(Instruction(Op.PUSH, i) for i in range(40))
    pops = tuple(Instruction(Op.POP) for _ in range(39))
    program = Program(kind="filter", code=(*pushes, *pops, _ret()))
    verdict = verify_program(program, GEO)
    assert not verdict.ok and verdict.rule == "PDV201"
    with pytest.raises(StackTrap):
        interpret(program, RECORD, GEO, fuel=1000)


def test_pdv202_oversized_scratch_rejected():
    program = Program(kind="aggregate", code=(_ret(),), scratch=65)
    verdict = verify_program(program, GEO)
    assert not verdict.ok and verdict.rule == "PDV202"


def test_pdv202_emit_larger_than_a_record_rejected():
    emits = tuple(Instruction(Op.EMITF, 0, 8) for _ in range(9))
    program = Program(kind="project", code=(*emits, _ret("project")))
    verdict = verify_program(program, GEO)
    assert not verdict.ok and verdict.rule == "PDV202"


def test_pdv301_unprovable_dynamic_offset_rejected():
    # LOADD with a loaded (unbounded) offset: the interval analysis
    # cannot prove the read stays inside the record window.
    program = Program(
        kind="aggregate",
        code=(
            Instruction(Op.LOAD, 0, 8),
            Instruction(Op.LOADD, 0, 4),
            Instruction(Op.POP),
            _ret(),
        ),
    )
    verdict = verify_program(program, GEO)
    assert not verdict.ok and verdict.rule == "PDV301"


def test_pdv301_provable_dynamic_offset_admitted():
    # The same LOADD, but the offset interval is [0, 1]: provably in
    # window, so the proof goes through.
    program = Program(
        kind="aggregate",
        code=(
            Instruction(Op.LOAD, 0, 1),
            Instruction(Op.PUSH, 0),
            Instruction(Op.EQ),
            Instruction(Op.LOADD, 0, 4),
            Instruction(Op.POP),
            _ret(),
        ),
    )
    assert verify_program(program, GEO).ok


def test_pdv401_filter_must_ret_a_selection_flag():
    program = Program(kind="filter", code=(_ret(),))
    verdict = verify_program(program, GEO)
    assert not verdict.ok and verdict.rule == "PDV401"


def test_pdv401_missing_ret_rejected():
    program = Program(kind="aggregate", code=(Instruction(Op.PUSH, 1),))
    verdict = verify_program(program, GEO)
    assert not verdict.ok and verdict.rule == "PDV401"


def test_pipeline_verdict_names_the_failing_stage():
    bad = Program(kind="filter", code=(_ret(),))
    verdict, token = verify(Pipeline((bad,)), GEO)
    assert not verdict.ok and token is None
    assert verdict.rule == "PDV401"
    assert "filter" in verdict.explain()


def test_regex_only_pipeline_lowers_to_rxp():
    pipeline = Pipeline((regex_filter(rb"k\d+"),))
    assert lowers_to_regex(pipeline) == rb"k\d+"
    _verdict, token = verify(pipeline, GEO)
    assert token is not None and token.pattern == rb"k\d+"


def test_field_filter_does_not_lower_to_rxp():
    program = Program(
        kind="filter",
        code=(
            Instruction(Op.LOAD, 0, 4),
            Instruction(Op.PUSH, 7),
            Instruction(Op.GT),
            _ret(),
        ),
    )
    pipeline = Pipeline((program,))
    assert lowers_to_regex(pipeline) is None
    _verdict, token = verify(pipeline, GEO)
    assert token is not None and token.pattern is None


#: Tokens asked for a lowering they do not have: a filter that is not
#: one regex, and (only a hand-edited token can be this) too little fuel
#: for ``MATCH 0; RET``'s two steps.
UNLOWERABLE = {
    "not-one-regex": (
        "from repro.pushdown import (\n"
        "    Pipeline, field_filter, project_fields, verify)\n"
        "from repro.pushdown.scan import GEOMETRY\n"
        "pipeline = Pipeline(\n"
        "    (field_filter(0, 4, 1, 9), project_fields(((0, 8),))))\n"
        "_verdict, token = verify(pipeline, GEOMETRY)\n"
        "token.lowered\n"
    ),
    "one-step-of-fuel": (
        "import dataclasses\n"
        "from repro.pushdown import verify\n"
        "from repro.pushdown.scan import GEOMETRY, canonical_pipeline\n"
        "_verdict, token = verify(canonical_pipeline('filter-project'),\n"
        "                         GEOMETRY)\n"
        "token = dataclasses.replace(token, verdict=dataclasses.replace(\n"
        "    token.verdict, fuel=1))\n"
        "token.lowered\n"
    ),
}


@pytest.mark.parametrize("case", sorted(UNLOWERABLE))
def test_a_token_refuses_a_lowering_it_lacks_under_python_O(case):
    """Every placement runs a lowered filter through ``lowered``, so it
    refuses with explicit raises that name the pipeline: ``-O`` strips
    ``assert``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    run = subprocess.run(
        [sys.executable, "-O", "-c", UNLOWERABLE[case]],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert run.returncode != 0, run.stdout
    assert "ValueError: the filter -> project pipeline's" in run.stderr, (
        run.stderr
    )


# ----------------------------------------------------------------------
# Python predicate frontend
# ----------------------------------------------------------------------
def test_compile_predicate_round_trips_through_admission():
    def pred(rec):
        return rec.u32(16) > 5000 and rec.u8(0) == 110

    program = compile_predicate(pred)
    assert program.kind == "filter"
    verdict = verify_program(program, GEO)
    assert verdict.ok, verdict.explain()
    record = bytearray(64)
    record[0] = 110
    record[16:20] = (6000).to_bytes(4, "little")
    assert interpret(program, bytes(record), GEO, verdict.fuel).selected
    record[16:20] = (10).to_bytes(4, "little")
    assert not interpret(program, bytes(record), GEO, verdict.fuel).selected


def test_compile_predicate_match_lowers_to_pattern():
    def pred(rec):
        return rec.match(rb"needle-\d+")

    program = compile_predicate(pred)
    assert program.patterns == (rb"needle-\d+",)
    assert lowers_to_regex(Pipeline((program,))) == rb"needle-\d+"


GLOBAL_THRESHOLD = 12


def test_compile_predicate_rejects_shared_state_with_pdv302():
    def pred(rec):
        return rec.u32(16) > GLOBAL_THRESHOLD

    with pytest.raises(SourceRejected) as info:
        compile_predicate(pred)
    assert info.value.verdict.rule == "PDV302"
    assert "GLOBAL_THRESHOLD" in info.value.verdict.detail


def test_compile_predicate_rejects_statements_with_pdv401():
    def pred(rec):
        total = rec.u32(16)
        return total > 5

    with pytest.raises(SourceRejected) as info:
        compile_predicate(pred)
    assert info.value.verdict.rule == "PDV401"


def test_compile_predicate_rejects_extra_parameters():
    def pred(rec, other):
        return rec.u8(0) == other

    with pytest.raises(SourceRejected) as info:
        compile_predicate(pred)
    assert info.value.verdict.rule == "PDV401"


def test_max_stack_of_the_shipped_programs_is_pinned():
    """The proven stack bound of the canonical pipelines, a field
    filter and the demo's compiled predicate (the last prints as
    ``stack<=2`` in ``examples/pushdown_demo.py``)."""
    from repro.pushdown.isa import field_filter
    from repro.pushdown.scan import GEOMETRY, PIPELINES, canonical_pipeline

    def pred(rec):
        return rec.u32(16) > 5000 and rec.match(rb"needle-\d{8}")

    bounds = {
        name: [
            verify_program(program, GEOMETRY).max_stack
            for program in canonical_pipeline(name).stages
        ]
        for name in PIPELINES
    }
    assert bounds == {
        "filter": [1],
        "filter-project": [1, 0],
        "filter-project-agg": [1, 0, 1],
    }
    assert verify_program(field_filter(16, 4, 10, 20), GEOMETRY).max_stack == 3
    assert verify_program(compile_predicate(pred), GEOMETRY).max_stack == 2
