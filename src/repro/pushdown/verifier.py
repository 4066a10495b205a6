"""Static verifier: proves a pushdown program safe before DPU admission.

An offload program runs on the storage side only after this module
proves, from the bytecode alone (no execution), the four properties the
BPF-oF posture demands:

1. **Termination** (PDV101/PDV102) — control flow is forward-only
   except through ``LOOP n … END``'s decreasing counter, trip counts
   are static immediates bounded by the record geometry, and the
   worst-case step count (loops multiplied through) fits the
   geometry's fuel budget.
2. **Bounded memory** (PDV201/PDV202) — the operand stack stays under
   :data:`~repro.pushdown.isa.STACK_LIMIT` on every path, depth agrees
   at every join, loop bodies are stack-neutral and never reach below
   their frame, and scratch/emit stay inside their declared bounds.
3. **No shared-state access** (PDV301) — every record read, static or
   computed, provably lands inside the record window.  This is the
   DDS101/DDS102 shared-state model of :mod:`repro.analysis.
   shared_state` transplanted to data: bytes outside the window belong
   to other records/requests, i.e. state the program does not own.
   Computed offsets are proven by interval abstract interpretation
   (sound because the machine's arithmetic saturates, never wraps).
4. **Type/arity soundness** (PDV401) — operands are well-formed
   (widths, registers, pattern indices, jump targets), ``RET`` is the
   unique terminator, and the stage kind's stack contract holds
   (a filter leaves exactly the selection flag; others leave nothing).

The proof artifact is a :class:`VerifiedProgram`/:class:`VerifiedPipeline`
token carrying the proven fuel, stack, and emit bounds; the execution
engines accept only these tokens.  ddslint's DDS501/DDS502 statically
flag call sites that execute raw programs or forge tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Pattern, Tuple, Union

from .interp import decode_pipeline
from .isa import (
    ACC_REGS,
    I64_MAX,
    I64_MIN,
    MAX_CODE,
    MAX_LOOP_NEST,
    POPS,
    SCRATCH_LIMIT,
    STACK_LIMIT,
    WIDTHS,
    Geometry,
    Instruction,
    Op,
    Pipeline,
    Program,
    lowers_to_regex,
)

__all__ = [
    "Verdict",
    "PipelineVerdict",
    "VerifiedProgram",
    "VerifiedPipeline",
    "verify_program",
    "verify",
]


@dataclass(frozen=True)
class Verdict:
    """The verifier's typed answer for one program.

    ``ok`` with the proven bounds, or the first rule that fired with
    the offending pc — rejected programs fall back to host execution
    and this verdict is the explanation the client sees.
    """

    ok: bool
    rule: Optional[str] = None
    detail: str = ""
    pc: Optional[int] = None
    fuel: int = 0
    max_stack: int = 0
    max_emit: int = 0

    def explain(self) -> str:
        if self.ok:
            return (
                f"verified: fuel<={self.fuel}, stack<={self.max_stack}, "
                f"emit<={self.max_emit}B"
            )
        where = "" if self.pc is None else f" at pc {self.pc}"
        return f"{self.rule}{where}: {self.detail}"


@dataclass(frozen=True)
class VerifiedProgram:
    """Proof token: ``program`` is safe for ``geometry``.

    Constructed only by :func:`verify_program` — hand-building one
    bypasses the proof and is flagged statically (ddslint DDS502).
    """

    program: Program
    geometry: Geometry
    verdict: Verdict


@dataclass(frozen=True)
class PipelineVerdict:
    """Per-stage verdicts plus the admission decision for a pipeline."""

    ok: bool
    stage_verdicts: Tuple[Verdict, ...]
    rule: Optional[str] = None
    detail: str = ""
    fuel: int = 0

    def explain(self) -> str:
        if self.ok:
            return f"verified pipeline: fuel<={self.fuel} per record"
        return f"{self.rule}: {self.detail}"


@dataclass(frozen=True)
class VerifiedPipeline:
    """Proof token for a whole pipeline (see :class:`VerifiedProgram`)."""

    pipeline: Pipeline
    geometry: Geometry
    verdict: PipelineVerdict
    #: The single regex the RXP engine can absorb for the filter stage,
    #: when the filter lowers (``None`` -> software filter).
    pattern: Optional[bytes] = None

    @cached_property
    def lowered(self) -> Tuple[Pattern[bytes], Pipeline]:
        """A lowering's two halves: ``pattern`` compiled for
        :func:`~repro.hardware.accelerators.regex_scan`, and the stages
        after the filter for the interpreter.

        The search stands in for ``MATCH 0; RET`` on every placement,
        so the interpreter's per-step checks are settled here, once per
        token: the shape fixes the pc, the pattern index (0 of 1), the
        stack (one push onto an empty stack, one pop) and the record
        window (whole records only).  Fuel is the one check the shape
        does not fix: verification guarantees two steps, and the check
        below keeps that from resting on the token alone.
        """
        kinds = " -> ".join(stage.kind for stage in self.pipeline.stages)
        if self.pattern is None:
            raise ValueError(
                f"the {kinds} pipeline's filter does not lower to one regex"
            )
        if self.verdict.fuel < 2:
            raise ValueError(
                f"the {kinds} pipeline's fuel {self.verdict.fuel} cannot "
                "run MATCH 0; RET (2 steps)"
            )
        return re.compile(self.pattern), Pipeline(self.pipeline.stages[1:])

    @cached_property
    def residual_decoded(self) -> tuple:
        """:attr:`lowered`'s residual decoded for the interpreter, once
        per token instead of once per page."""
        return decode_pipeline(self.lowered[1])


# ----------------------------------------------------------------------
# interval arithmetic (saturating, mirroring the interpreter)
# ----------------------------------------------------------------------
Interval = Tuple[int, int]


def _clamp(value: int) -> int:
    return max(I64_MIN, min(I64_MAX, value))


def _iv(lo: int, hi: int) -> Interval:
    return (_clamp(lo), _clamp(hi))


def _iv_add(x: Interval, y: Interval) -> Interval:
    return _iv(x[0] + y[0], x[1] + y[1])


def _iv_sub(x: Interval, y: Interval) -> Interval:
    return _iv(x[0] - y[1], x[1] - y[0])


def _iv_mul(x: Interval, y: Interval) -> Interval:
    corners = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return _iv(min(corners), max(corners))


def _iv_join(x: Interval, y: Interval) -> Interval:
    return (min(x[0], y[0]), max(x[1], y[1]))


_BOOL: Interval = (0, 1)


def _width_range(width: int) -> Interval:
    return (0, (1 << (8 * width)) - 1)


# ----------------------------------------------------------------------
# structural passes
# ----------------------------------------------------------------------
def _match_loops(
    code: Tuple[Instruction, ...], geometry: Geometry
) -> Tuple[Optional[Verdict], List[Optional[int]], Dict[int, int]]:
    """Pair LOOP/END, assign each pc its innermost LOOP pc.

    Returns (error verdict or None, loop-of-pc table, loop->end map).
    """
    loop_of: List[Optional[int]] = [None] * len(code)
    ends: Dict[int, int] = {}
    stack: List[int] = []
    for pc, instr in enumerate(code):
        loop_of[pc] = stack[-1] if stack else None
        if instr.op is Op.LOOP:
            if len(stack) >= MAX_LOOP_NEST:
                return (
                    Verdict(
                        False, "PDV101",
                        f"loop nesting deeper than {MAX_LOOP_NEST}", pc,
                    ),
                    loop_of, ends,
                )
            if not 1 <= instr.a <= geometry.record_bytes:
                return (
                    Verdict(
                        False, "PDV101",
                        f"trip count {instr.a} outside [1, "
                        f"{geometry.record_bytes}] (record geometry)", pc,
                    ),
                    loop_of, ends,
                )
            stack.append(pc)
            loop_of[pc] = pc  # the LOOP opcode belongs to its own loop
        elif instr.op is Op.END:
            if not stack:
                return (
                    Verdict(False, "PDV101", "END without LOOP", pc),
                    loop_of, ends,
                )
            ends[stack.pop()] = pc
    if stack:
        return (
            Verdict(False, "PDV101", "LOOP without END", stack[-1]),
            loop_of, ends,
        )
    return None, loop_of, ends


def _worst_case_bounds(
    code: Tuple[Instruction, ...]
) -> Tuple[int, int]:
    """(worst-case steps, worst-case emitted bytes), loops multiplied.

    An upper bound: branches are not short-circuited, every loop runs
    its full trip count.  ``LOOP``/``END`` charge one step per
    iteration boundary, matching the interpreter's accounting.
    """
    frames: List[List[int]] = [[0, 0, 1]]  # [steps, emit, multiplier]
    for instr in code:
        if instr.op is Op.LOOP:
            frames.append([1, 0, instr.a])  # the LOOP step itself
        elif instr.op is Op.END:
            steps, emit, trip = frames.pop()
            # body + END once per iteration; LOOP charged on entry.
            frames[-1][0] += (steps - 1) * trip + trip + 1
            frames[-1][1] += emit * trip
        else:
            frames[-1][0] += 1
            if instr.op is Op.EMITF or instr.op is Op.EMITV:
                frames[-1][1] += instr.b
    return frames[0][0], frames[0][1]


# ----------------------------------------------------------------------
# the verifier
# ----------------------------------------------------------------------
def verify_program(program: Program, geometry: Geometry) -> Verdict:
    """Prove one program safe for ``geometry`` (or say which rule fired).

    Static only: the program is never executed.  See the module
    docstring for the four properties and their rule families.
    """
    code = program.code
    if len(code) == 0:
        return Verdict(False, "PDV401", "empty program", None)
    if len(code) > MAX_CODE:
        return Verdict(
            False, "PDV102",
            f"{len(code)} instructions exceeds MAX_CODE={MAX_CODE}", None,
        )
    if not 0 <= program.scratch <= SCRATCH_LIMIT:
        return Verdict(
            False, "PDV202",
            f"scratch {program.scratch}B outside [0, {SCRATCH_LIMIT}]",
            None,
        )
    for index, pattern in enumerate(program.patterns):
        try:
            re.compile(pattern)
        except re.error as exc:
            return Verdict(
                False, "PDV401", f"pattern {index} invalid: {exc}", None
            )
    if code[-1].op is not Op.RET:
        return Verdict(
            False, "PDV401", "program must end with RET", len(code) - 1
        )

    error, loop_of, ends = _match_loops(code, geometry)
    if error is not None:
        return error

    # Per-instruction operand/window checks (positions are static).
    for pc, instr in enumerate(code):
        op = instr.op
        if op is Op.RET and pc != len(code) - 1:
            return Verdict(
                False, "PDV401", "RET before the final position", pc
            )
        if op in (Op.LOAD, Op.EMITF):
            if instr.b not in WIDTHS:
                return Verdict(
                    False, "PDV401", f"bad width {instr.b}", pc
                )
            if instr.a < 0 or instr.a + instr.b > geometry.record_bytes:
                return Verdict(
                    False, "PDV301",
                    f"static read [{instr.a}:{instr.a + instr.b}] "
                    f"outside the {geometry.record_bytes}B window", pc,
                )
        if op in (Op.LOADD, Op.EMITV):
            if instr.b not in WIDTHS:
                return Verdict(
                    False, "PDV401", f"bad width {instr.b}", pc
                )
        if op in (Op.LOADS, Op.STORE):
            if instr.b not in WIDTHS:
                return Verdict(
                    False, "PDV401", f"bad width {instr.b}", pc
                )
            if instr.a < 0 or instr.a + instr.b > program.scratch:
                return Verdict(
                    False, "PDV202",
                    f"scratch access [{instr.a}:{instr.a + instr.b}] "
                    f"outside {program.scratch}B", pc,
                )
        if op in (Op.AADD, Op.AMAX, Op.AMIN, Op.ACNT):
            if not 0 <= instr.a < ACC_REGS:
                return Verdict(
                    False, "PDV401",
                    f"accumulator {instr.a} outside [0, {ACC_REGS})", pc,
                )
        if op is Op.MATCH:
            if not 0 <= instr.a < len(program.patterns):
                return Verdict(
                    False, "PDV401",
                    f"pattern index {instr.a} outside the pool "
                    f"({len(program.patterns)} patterns)", pc,
                )
        if op is Op.PUSHCTR and loop_of[pc] is None:
            return Verdict(
                False, "PDV401", "PUSHCTR outside a loop", pc
            )
        if op in (Op.JMP, Op.JZ):
            if not 0 <= instr.a < len(code):
                return Verdict(
                    False, "PDV401",
                    f"jump target {instr.a} out of range", pc,
                )
            if instr.a <= pc:
                return Verdict(
                    False, "PDV101",
                    f"back-edge {pc} -> {instr.a} without a "
                    "decreasing counter (only LOOP/END may loop)", pc,
                )
            if loop_of[instr.a] != loop_of[pc]:
                return Verdict(
                    False, "PDV101",
                    f"jump {pc} -> {instr.a} crosses a loop boundary",
                    pc,
                )

    # Termination/size budget: loops multiplied through, statically.
    fuel, max_emit = _worst_case_bounds(code)
    if fuel > geometry.fuel_limit:
        return Verdict(
            False, "PDV102",
            f"worst case {fuel} steps exceeds the geometry budget "
            f"{geometry.fuel_limit}", None,
        )
    if max_emit > geometry.record_bytes:
        return Verdict(
            False, "PDV202",
            f"worst case emits {max_emit}B, more than one "
            f"{geometry.record_bytes}B record", None,
        )

    # Abstract interpretation: stack depth + value intervals.
    max_stack = _abstract_pass(program, geometry, loop_of)
    if isinstance(max_stack, Verdict):
        return max_stack
    return Verdict(
        True, fuel=fuel, max_stack=max_stack, max_emit=max_emit
    )


def _abstract_pass(
    program: Program,
    geometry: Geometry,
    loop_of: List[Optional[int]],
) -> Union[Verdict, int]:
    """One forward pass of interval abstract interpretation.

    Sound in a single pass because nothing live crosses a loop
    back-edge: loop bodies are stack-neutral, may not reach below
    their frame, scratch reads always return full-width ranges, and
    accumulators are write-only.  Returns the first rule that fired,
    or the deepest stack a reachable path leaves behind an
    instruction (the verdict's ``max_stack``).
    """
    code = program.code
    pending: Dict[int, List[Interval]] = {0: []}
    loop_entry_depth: Dict[int, int] = {}
    state: Optional[List[Interval]] = None
    max_stack = 0

    for pc, instr in enumerate(code):
        incoming = pending.pop(pc, None)
        if state is None:
            state = incoming
        elif incoming is not None:
            if len(incoming) != len(state):
                return Verdict(
                    False, "PDV201",
                    f"stack depth {len(incoming)} vs {len(state)} at "
                    "join", pc,
                )
            state = [
                _iv_join(a, b) for a, b in zip(state, incoming)
            ]
        if state is None:
            continue  # unreachable instruction
        op = instr.op

        # Loop-frame discipline: pops stay above the innermost frame.
        frame = loop_of[pc]
        if frame is not None and frame != pc:
            floor = loop_entry_depth.get(frame, 0)
            if len(state) - POPS[op] < floor:
                return Verdict(
                    False, "PDV201",
                    "loop body reaches below its stack frame", pc,
                )

        def pop() -> Interval:
            assert state is not None
            if not state:
                raise _Underflow
            return state.pop()

        def push(value: Interval) -> None:
            assert state is not None
            state.append(value)

        try:
            next_state: Optional[List[Interval]] = state
            if op is Op.PUSH:
                push(_iv(instr.a, instr.a))
            elif op is Op.POP:
                pop()
            elif op is Op.DUP:
                value = pop()
                push(value)
                push(value)
            elif op is Op.SWAP:
                first, second = pop(), pop()
                push(first)
                push(second)
            elif op in (Op.LOAD, Op.LOADS):
                push(_width_range(instr.b))
            elif op is Op.LOADD:
                offset = pop()
                if offset[0] < 0 or offset[1] + instr.b > (
                    geometry.record_bytes
                ):
                    return Verdict(
                        False, "PDV301",
                        f"computed offset in [{offset[0]}, "
                        f"{offset[1]}] + {instr.b}B not provably "
                        f"inside the {geometry.record_bytes}B window",
                        pc,
                    )
                push(_width_range(instr.b))
            elif op is Op.STORE:
                pop()
            elif op is Op.PUSHCTR:
                assert frame is not None  # checked structurally
                push((0, code[frame].a - 1))
            elif op is Op.ADD:
                right, left = pop(), pop()
                push(_iv_add(left, right))
            elif op is Op.SUB:
                right, left = pop(), pop()
                push(_iv_sub(left, right))
            elif op is Op.MUL:
                right, left = pop(), pop()
                push(_iv_mul(left, right))
            elif op in (Op.EQ, Op.LT, Op.GT, Op.AND, Op.OR):
                pop()
                pop()
                push(_BOOL)
            elif op is Op.NOT:
                pop()
                push(_BOOL)
            elif op is Op.MATCH:
                push(_BOOL)
            elif op is Op.EMITV:
                pop()
            elif op is Op.EMITF:
                pass
            elif op in (Op.AADD, Op.AMAX, Op.AMIN):
                pop()
            elif op is Op.ACNT:
                pass
            elif op is Op.JMP:
                pending[instr.a] = _merge_pending(
                    pending.get(instr.a), list(state), instr.a
                )
                next_state = None
            elif op is Op.JZ:
                pop()
                pending[instr.a] = _merge_pending(
                    pending.get(instr.a), list(state), instr.a
                )
            elif op is Op.LOOP:
                loop_entry_depth[pc] = len(state)
            elif op is Op.END:
                entry = loop_entry_depth.get(frame if frame is not None
                                             else -1)
                # frame of END is its own loop (loop_of[END] = LOOP pc).
                if entry is None or len(state) != entry:
                    return Verdict(
                        False, "PDV201",
                        "loop body is not stack-neutral "
                        f"(entry depth {entry}, END depth "
                        f"{len(state)})", pc,
                    )
            elif op is Op.RET:
                expected = 1 if program.kind == "filter" else 0
                if len(state) != expected:
                    return Verdict(
                        False, "PDV401",
                        f"{program.kind} must RET with stack depth "
                        f"{expected}, has {len(state)}", pc,
                    )
                next_state = None
        except _Underflow:
            return Verdict(
                False, "PDV201", "operand-stack underflow", pc
            )
        if next_state is not None:
            if len(next_state) > STACK_LIMIT:
                return Verdict(
                    False, "PDV201",
                    f"stack depth {len(next_state)} exceeds "
                    f"{STACK_LIMIT}", pc,
                )
            max_stack = max(max_stack, len(next_state))
        state = next_state

    # Pending merges that target past the end cannot exist (targets
    # are range-checked), so reaching here means every path RETs.
    return max_stack


class _Underflow(Exception):
    pass


def _merge_pending(
    existing: Optional[List[Interval]],
    incoming: List[Interval],
    target: int,
) -> List[Interval]:
    if existing is None:
        return incoming
    if len(existing) != len(incoming):
        # Surfaced as PDV201 when the target pc is reached.
        return existing + [(0, 0)] * 1024  # force a depth mismatch
    return [_iv_join(a, b) for a, b in zip(existing, incoming)]


def verify(
    pipeline: Pipeline, geometry: Geometry
) -> Tuple[PipelineVerdict, Optional[VerifiedPipeline]]:
    """Verify a whole pipeline; the admission entry the datapath uses.

    Returns the typed verdict plus the proof token when every stage
    verifies (``None`` otherwise — the caller falls back to host
    execution and ships the verdict).
    """
    verdicts = [
        verify_program(program, geometry) for program in pipeline.stages
    ]
    for program, verdict in zip(pipeline.stages, verdicts):
        if not verdict.ok:
            summary = PipelineVerdict(
                False,
                tuple(verdicts),
                rule=verdict.rule,
                detail=f"{program.kind} stage: {verdict.detail}",
            )
            return summary, None
    if not pipeline.stages:
        summary = PipelineVerdict(
            False, (), rule="PDV401", detail="empty pipeline"
        )
        return summary, None
    fuel = sum(verdict.fuel for verdict in verdicts)
    summary = PipelineVerdict(True, tuple(verdicts), fuel=fuel)
    token = VerifiedPipeline(
        pipeline, geometry, summary, pattern=lowers_to_regex(pipeline)
    )
    return summary, token
