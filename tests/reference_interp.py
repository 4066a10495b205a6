"""The interpreter as it was before decode-once / run-a-page.

Tests-only reference (DESIGN.md §14 "Execution", the
``tests/reference_datapath.py`` precedent).  The shipped
:mod:`repro.pushdown.interp` decodes a program once per call and runs
one loop over dense opcodes; there is no switch for the old behaviour,
so the per-record ``if op is Op.X`` chain lives here, verbatim, as the
semantics the shipped loop is diffed against
(``tests/test_pushdown_differential.py``): same ``(selected,
emitted)``, equal :class:`~repro.pushdown.interp.ExecStats`, same
accumulators, or the same :class:`~repro.pushdown.interp.Trap`
subclass.  The result and trap types are the shipped ones, so equality
is plain ``==``; ``ExecStats.count`` and ``.merge`` left ``src`` with
their last callers and are spelled out here.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import List, Optional, Pattern, Tuple

from repro.pushdown.interp import (
    ExecStats,
    FuelTrap,
    OperandTrap,
    ScratchTrap,
    StackTrap,
    StageResult,
    WindowTrap,
)
from repro.pushdown.isa import (
    ACC_REGS,
    I64_MAX,
    I64_MIN,
    SCRATCH_LIMIT,
    STACK_LIMIT,
    WIDTHS,
    Geometry,
    Op,
    Pipeline,
    Program,
)

__all__ = ["interpret", "interpret_pipeline", "merge"]


@lru_cache(maxsize=256)
def _compiled(patterns: Tuple[bytes, ...]) -> Tuple[Pattern[bytes], ...]:
    return tuple(re.compile(pattern) for pattern in patterns)


def merge(stats: ExecStats, other: ExecStats) -> None:
    """``ExecStats.merge`` as it was (the shipped page entry counts
    straight into one tally, so nothing in ``src`` merges any more)."""
    stats.steps += other.steps
    stats.match_bytes += other.match_bytes
    for op, count in other.counts.items():
        stats.counts[op] = stats.counts.get(op, 0) + count


def _clamp(value: int) -> int:
    if value > I64_MAX:
        return I64_MAX
    if value < I64_MIN:
        return I64_MIN
    return value


def interpret(
    program: Program,
    record: bytes,
    geometry: Geometry,
    fuel: int,
    acc: Optional[List[int]] = None,
    *,
    stack_limit: int = STACK_LIMIT,
) -> StageResult:
    """Run one program over one record under a hard step budget.

    ``acc`` (length :data:`~repro.pushdown.isa.ACC_REGS`) is mutated in
    place by the accumulator opcodes; pass the same list across records
    to fold an aggregate.  Raises a :class:`Trap` subclass on any
    resource violation — and nothing else.

    ``stack_limit`` defaults to the DPU admission bound; the host
    fallback path raises it (host memory is not the scarce resource the
    verifier protects) so a program rejected *for DPU limits* still
    computes its answer on the host.
    """
    if len(record) != geometry.record_bytes:
        raise WindowTrap(
            f"record is {len(record)}B, geometry says "
            f"{geometry.record_bytes}B"
        )
    code = program.code
    try:
        patterns = _compiled(program.patterns)
    except re.error as exc:
        raise OperandTrap(f"invalid pattern: {exc}") from None
    if not 0 <= program.scratch <= SCRATCH_LIMIT:
        raise ScratchTrap(f"scratch size {program.scratch} out of range")
    scratch = bytearray(program.scratch)
    stack: List[int] = []
    loops: List[List[int]] = []  # [start_pc, remaining, trip]
    emitted = bytearray()
    stats = ExecStats()
    if acc is None:
        acc = [0] * ACC_REGS
    selected = program.kind != "filter"

    def pop() -> int:
        if not stack:
            raise StackTrap("operand-stack underflow")
        return stack.pop()

    def push(value: int) -> None:
        if len(stack) >= stack_limit:
            raise StackTrap("operand-stack overflow")
        stack.append(_clamp(value))

    def window(offset: int, width: int) -> bytes:
        if width not in WIDTHS:
            raise OperandTrap(f"bad load width {width}")
        if offset < 0 or offset + width > geometry.record_bytes:
            raise WindowTrap(
                f"load [{offset}:{offset + width}] outside the "
                f"{geometry.record_bytes}B record window"
            )
        return record[offset:offset + width]

    pc = 0
    while True:
        if pc >= len(code):
            raise OperandTrap("fell off the end of the program (no RET)")
        if stats.steps >= fuel:
            raise FuelTrap(f"fuel exhausted after {stats.steps} steps")
        instr = code[pc]
        op = instr.op
        stats.steps += 1
        stats.counts[op] = stats.counts.get(op, 0) + 1
        next_pc = pc + 1
        if op is Op.PUSH:
            push(instr.a)
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
        elif op is Op.LOAD:
            push(int.from_bytes(window(instr.a, instr.b), "little"))
        elif op is Op.LOADD:
            push(int.from_bytes(window(pop(), instr.b), "little"))
        elif op is Op.LOADS:
            if instr.b not in WIDTHS:
                raise OperandTrap(f"bad load width {instr.b}")
            if instr.a < 0 or instr.a + instr.b > len(scratch):
                raise ScratchTrap(
                    f"scratch read [{instr.a}:{instr.a + instr.b}] "
                    f"outside {len(scratch)}B"
                )
            push(
                int.from_bytes(
                    scratch[instr.a:instr.a + instr.b], "little"
                )
            )
        elif op is Op.STORE:
            if instr.b not in WIDTHS:
                raise OperandTrap(f"bad store width {instr.b}")
            if instr.a < 0 or instr.a + instr.b > len(scratch):
                raise ScratchTrap(
                    f"scratch write [{instr.a}:{instr.a + instr.b}] "
                    f"outside {len(scratch)}B"
                )
            value = pop() & ((1 << (8 * instr.b)) - 1)
            scratch[instr.a:instr.a + instr.b] = value.to_bytes(
                instr.b, "little"
            )
        elif op is Op.PUSHCTR:
            if not loops:
                raise OperandTrap("PUSHCTR outside a loop")
            start, remaining, trip = loops[-1]
            push(trip - remaining)
        elif op is Op.ADD:
            push(pop() + pop())
        elif op is Op.SUB:
            right, left = pop(), pop()
            push(left - right)
        elif op is Op.MUL:
            push(pop() * pop())
        elif op is Op.EQ:
            push(1 if pop() == pop() else 0)
        elif op is Op.LT:
            right, left = pop(), pop()
            push(1 if left < right else 0)
        elif op is Op.GT:
            right, left = pop(), pop()
            push(1 if left > right else 0)
        elif op is Op.AND:
            right, left = pop(), pop()
            push(1 if left and right else 0)
        elif op is Op.OR:
            right, left = pop(), pop()
            push(1 if left or right else 0)
        elif op is Op.NOT:
            push(0 if pop() else 1)
        elif op is Op.JMP:
            if not 0 <= instr.a < len(code):
                raise OperandTrap(f"jump target {instr.a} out of range")
            next_pc = instr.a
        elif op is Op.JZ:
            if not 0 <= instr.a < len(code):
                raise OperandTrap(f"jump target {instr.a} out of range")
            if pop() == 0:
                next_pc = instr.a
        elif op is Op.LOOP:
            if instr.a < 1:
                raise OperandTrap(f"loop trip {instr.a} must be >= 1")
            loops.append([pc, instr.a, instr.a])
        elif op is Op.END:
            if not loops:
                raise OperandTrap("END without a matching LOOP")
            frame = loops[-1]
            frame[1] -= 1
            if frame[1] > 0:
                next_pc = frame[0] + 1
            else:
                loops.pop()
        elif op is Op.EMITF:
            emitted.extend(window(instr.a, instr.b))
        elif op is Op.EMITV:
            if instr.b not in WIDTHS:
                raise OperandTrap(f"bad emit width {instr.b}")
            value = pop() & ((1 << (8 * instr.b)) - 1)
            emitted.extend(value.to_bytes(instr.b, "little"))
        elif op is Op.MATCH:
            if not 0 <= instr.a < len(patterns):
                raise OperandTrap(f"pattern index {instr.a} out of range")
            stats.match_bytes += len(record)
            push(1 if patterns[instr.a].search(record) else 0)
        elif op is Op.AADD or op is Op.AMAX or op is Op.AMIN:
            if not 0 <= instr.a < ACC_REGS:
                raise OperandTrap(f"accumulator {instr.a} out of range")
            value = pop()
            if op is Op.AADD:
                acc[instr.a] = _clamp(acc[instr.a] + value)
            elif op is Op.AMAX:
                acc[instr.a] = max(acc[instr.a], value)
            else:
                acc[instr.a] = min(acc[instr.a], value)
        elif op is Op.ACNT:
            if not 0 <= instr.a < ACC_REGS:
                raise OperandTrap(f"accumulator {instr.a} out of range")
            acc[instr.a] = _clamp(acc[instr.a] + 1)
        elif op is Op.RET:
            if program.kind == "filter":
                selected = pop() != 0
            return StageResult(selected, bytes(emitted), stats)
        else:  # pragma: no cover - enum is closed
            raise OperandTrap(f"unknown opcode {op!r}")
        pc = next_pc


def interpret_pipeline(
    pipeline: Pipeline,
    record: bytes,
    geometry: Geometry,
    fuel: int,
    acc: Optional[List[int]] = None,
    *,
    stack_limit: int = STACK_LIMIT,
) -> StageResult:
    """Run a whole pipeline over one record (raw entry; see DDS501).

    The filter gates the later stages: a rejected record costs only the
    filter's steps.  ``fuel`` bounds each stage independently.
    """
    stats = ExecStats()
    emitted = b""
    selected = True
    for program in pipeline.stages:
        if program.kind != "filter" and not selected:
            break
        result = interpret(
            program, record, geometry, fuel, acc=acc,
            stack_limit=stack_limit,
        )
        merge(stats, result.stats)
        if program.kind == "filter":
            selected = result.selected
        elif program.kind == "project":
            emitted = result.emitted
    return StageResult(selected, emitted, stats)
