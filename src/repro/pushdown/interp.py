"""Fueled interpreter for the pushdown bytecode.

This is the *raw* execution entry: it runs any :class:`~repro.pushdown.
isa.Program`, verified or not, and therefore defends every resource at
runtime — fuel, the record window, the scratch buffer, the operand
stack.  A violation raises a typed :class:`Trap`; the interpreter never
reads a byte outside the record window and never runs past its fuel,
no matter what bytecode it is fed (the hypothesis suite in
``tests/test_pushdown_properties.py`` hammers exactly this contract).

Admitted programs reach the DPU through :func:`repro.pushdown.verifier.
verify` instead, which proves these traps unreachable up front; direct
calls to :func:`interpret`/:func:`interpret_pipeline`/
:func:`interpret_page` outside the pushdown machinery are what
ddslint's DDS501 exists to flag.

A program is *decoded* once per call (:func:`_decode`) and a page's
records all run through the one loop in :func:`_run`; decoding checks
nothing, so a malformed instruction still traps only when it executes,
and a proof token buys no unchecked path (DESIGN.md §14; the chain of
``Op`` tests this replaced is ``tests/reference_interp.py``).

Arithmetic is saturating at the signed-64-bit bounds (not wrapping), so
the verifier's interval analysis is sound without modular reasoning.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
from typing import Any, Callable, Dict, List, Optional, Tuple

from .isa import (
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

__all__ = [
    "Trap",
    "FuelTrap",
    "WindowTrap",
    "StackTrap",
    "ScratchTrap",
    "OperandTrap",
    "ExecStats",
    "StageResult",
    "decode_pipeline",
    "interpret",
    "interpret_pipeline",
    "interpret_page",
]


class Trap(Exception):
    """A runtime guard fired: the program tried to exceed a resource."""


class FuelTrap(Trap):
    """Step budget exhausted (a loop the verifier would have rejected)."""


class WindowTrap(Trap):
    """Attempted read outside the record window (the shared-state rule
    enforced dynamically: bytes beyond the window belong to other
    records, i.e. state the program does not own)."""


class StackTrap(Trap):
    """Operand-stack overflow or underflow."""


class ScratchTrap(Trap):
    """Scratch-buffer access outside the declared bounds."""


class OperandTrap(Trap):
    """Malformed instruction: bad width, register, target, or pattern."""


@dataclass
class ExecStats:
    """What one interpretation actually executed (drives cycle costs)."""

    counts: Dict[Op, int] = field(default_factory=dict)
    steps: int = 0
    match_bytes: int = 0


@dataclass
class StageResult:
    """Outcome of one program over one record."""

    selected: bool
    emitted: bytes
    stats: ExecStats


#: A compiled pattern's bound ``search``.
_Search = Callable[[bytes], Optional["re.Match[bytes]"]]


@lru_cache(maxsize=256)
def _searches(patterns: Tuple[bytes, ...]) -> Tuple[_Search, ...]:
    return tuple(re.compile(pattern).search for pattern in patterns)


#: Dense opcode numbers, in the order of :func:`_run`'s arms: what the
#: canonical pipelines execute first, and one contiguous range per arm
#: that serves several opcodes.
_OPS = (
    Op.MATCH, Op.RET, Op.LOAD, Op.EMITF, Op.LOADD,
    Op.AADD, Op.AMAX, Op.AMIN, Op.ACNT, Op.PUSH,
    Op.GT, Op.LT, Op.EQ, Op.ADD, Op.SUB, Op.MUL, Op.AND, Op.OR,
    Op.NOT, Op.DUP, Op.POP, Op.SWAP, Op.LOADS, Op.STORE,
    Op.JMP, Op.JZ, Op.LOOP, Op.END, Op.EMITV, Op.PUSHCTR,
)
(
    _MATCH, _RET, _LOAD, _EMITF, _LOADD,
    _AADD, _AMAX, _AMIN, _ACNT, _PUSH,
    _GT, _LT, _EQ, _ADD, _SUB, _MUL, _AND, _OR,
    _NOT, _DUP, _POP, _SWAP, _LOADS, _STORE,
    _JMP, _JZ, _LOOP, _END, _EMITV, _PUSHCTR,
) = range(len(_OPS))
_NUMBER = {op: number for number, op in enumerate(_OPS)}
assert len(_NUMBER) == len(Op), "every opcode needs an arm in _run"

#: ``_GT`` .. ``_MUL`` as ``f(left, right)``.
_BINARY = (
    operator.gt, operator.lt, operator.eq,
    operator.add, operator.sub, operator.mul,
)

#: One decoded stage: ``(op, a, b)`` triples and their count, each
#: pattern's ``search`` and their count, is-a-filter, scratch bytes.
_Stage = Tuple[
    Tuple[Tuple[int, int, int], ...], int, Tuple[_Search, ...], int, bool, int
]

#: What a ``RET`` with nothing emitted returns: no tuple is built for it.
_KEPT = (True, b"")
_REJECTED = (False, b"")


def _decode(program: Program) -> _Stage:
    """Hoist what no record changes; instructions are copied unchecked."""
    try:
        searches = _searches(program.patterns)
    except re.error as exc:
        raise OperandTrap(f"invalid pattern: {exc}") from None
    if not 0 <= program.scratch <= SCRATCH_LIMIT:
        raise ScratchTrap(f"scratch size {program.scratch} out of range")
    code = tuple([(_NUMBER[i.op], i.a, i.b) for i in program.code])
    return (
        code, len(code), searches, len(searches),
        program.kind == "filter", program.scratch,
    )


def decode_pipeline(pipeline: Pipeline) -> Tuple[_Stage, ...]:
    """Every stage of ``pipeline`` decoded up front (a proof token's
    residual, whose decoding verification has settled)."""
    return tuple(_decode(program) for program in pipeline.stages)


def _check_window(record: bytes, record_bytes: int) -> None:
    if len(record) != record_bytes:
        raise WindowTrap(
            f"record is {len(record)}B, geometry says {record_bytes}B"
        )


def _run(
    stage: _Stage,
    record: bytes,
    fuel: int,
    acc: List[int],
    stack_limit: int,
    tally: List[int],
    stack: List[int],
    loops: List[List[int]],
    emitted: bytearray,
) -> Tuple[bool, bytes]:
    """One decoded stage over one whole record: ``(selected, emitted)``.

    Each step is checked for fuel and counted into ``tally`` (by opcode
    number) before it runs.  An arm checks its operands, then pops, then
    — if it pushes — leaves the result in ``value`` for the overflow
    check and clamp at the bottom of the loop; the others ``continue``.
    Underflow is the stack list's own bounds check, translated.  The
    caller's ``stack``, ``loops`` (``[body_pc, remaining, trip]``) and
    ``emitted`` are empty on entry, and ``RET`` leaves them so; a trap
    ends the caller's call, so it leaves them as they are.  Scratch is
    allocated by the first access that passes its bounds check.
    """
    code, size, searches, patterns, is_filter, scratch_bytes = stage
    scratch: Optional[bytearray] = None
    steps = pc = 0
    try:
        while True:
            if pc >= size:
                raise OperandTrap("fell off the end of the program")
            if steps >= fuel:
                raise FuelTrap(f"fuel exhausted after {steps} steps")
            op, a, b = code[pc]
            steps += 1
            tally[op] += 1
            pc += 1
            if op == _MATCH:
                if not 0 <= a < patterns:
                    raise OperandTrap(f"pattern index {a} out of range")
                value = 1 if searches[a](record) else 0
            elif op == _RET:
                keep = not is_filter or stack.pop() != 0
                if stack:
                    stack.clear()
                if loops:
                    loops.clear()
                if not emitted:
                    return _KEPT if keep else _REJECTED
                chunk = bytes(emitted)
                emitted.clear()
                return keep, chunk
            elif op <= _LOADD:  # LOAD, EMITF, LOADD: b bytes of the window
                if op == _LOADD:
                    a = stack.pop()
                if b not in WIDTHS:
                    raise OperandTrap(f"bad window width {b}")
                if a < 0 or a + b > len(record):
                    raise WindowTrap(f"[{a}:{a + b}] outside the window")
                if op == _EMITF:
                    emitted += record[a:a + b]
                    continue
                value = int.from_bytes(record[a:a + b], "little")
            elif op <= _ACNT:  # AADD, AMAX, AMIN, ACNT: a = register
                if not 0 <= a < ACC_REGS:
                    raise OperandTrap(f"accumulator {a} out of range")
                value = 1 if op == _ACNT else stack.pop()
                if op == _AMAX:
                    acc[a] = max(acc[a], value)
                elif op == _AMIN:
                    acc[a] = min(acc[a], value)
                else:
                    acc[a] = _clamp(acc[a] + value)
                continue
            elif op == _PUSH:
                value = a
            elif op <= _OR:  # the binary operators: right is on top
                right = stack.pop()
                left = stack.pop()
                if op <= _MUL:
                    value = int(_BINARY[op - _GT](left, right))
                elif op == _AND:
                    value = 1 if left and right else 0
                else:
                    value = 1 if left or right else 0
            elif op == _NOT:
                value = 0 if stack.pop() else 1
            elif op == _DUP:
                value = stack[-1]
            elif op == _POP:
                stack.pop()
                continue
            elif op == _SWAP:
                stack[-1], stack[-2] = stack[-2], stack[-1]
                continue
            elif op <= _STORE:  # LOADS, STORE: b bytes of scratch at a
                if b not in WIDTHS:
                    raise OperandTrap(f"bad scratch width {b}")
                if a < 0 or a + b > scratch_bytes:
                    raise ScratchTrap(f"[{a}:{a + b}] outside scratch")
                if scratch is None:
                    scratch = bytearray(scratch_bytes)
                if op == _STORE:
                    low = stack.pop() & ((1 << (8 * b)) - 1)
                    scratch[a:a + b] = low.to_bytes(b, "little")
                    continue
                value = int.from_bytes(scratch[a:a + b], "little")
            elif op <= _JZ:  # JMP, JZ: a = target
                if not 0 <= a < size:
                    raise OperandTrap(f"jump target {a} out of range")
                if op == _JMP or stack.pop() == 0:
                    pc = a
                continue
            elif op == _LOOP:
                if a < 1:
                    raise OperandTrap(f"loop trip {a} must be >= 1")
                loops.append([pc, a, a])
                continue
            elif op == _END:
                if not loops:
                    raise OperandTrap("END without a matching LOOP")
                frame = loops[-1]
                frame[1] -= 1
                if frame[1] > 0:
                    pc = frame[0]
                else:
                    loops.pop()
                continue
            elif op == _EMITV:
                if b not in WIDTHS:
                    raise OperandTrap(f"bad emit width {b}")
                low = stack.pop() & ((1 << (8 * b)) - 1)
                emitted += low.to_bytes(b, "little")
                continue
            else:  # PUSHCTR
                if not loops:
                    raise OperandTrap("PUSHCTR outside a loop")
                _body, remaining, trip = loops[-1]
                value = trip - remaining
            if len(stack) >= stack_limit:
                raise StackTrap("operand-stack overflow")
            if value > I64_MAX:
                value = I64_MAX
            elif value < I64_MIN:
                value = I64_MIN
            stack.append(value)
    except IndexError:
        raise StackTrap("operand-stack underflow") from None


def _stats(tally: List[int], record_bytes: int) -> ExecStats:
    """``tally`` as the :class:`ExecStats` the cost model reads.  Every
    ``MATCH`` that did not trap scanned one whole record."""
    return ExecStats(
        dict(zip(compress(_OPS, tally), filter(None, tally))),
        sum(tally),
        tally[_MATCH] * record_bytes,
    )


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
    _check_window(record, geometry.record_bytes)
    tally = [0] * len(_OPS)
    selected, emitted = _run(
        _decode(program), record, fuel,
        [0] * ACC_REGS if acc is None else acc, stack_limit, tally,
        [], [], bytearray(),
    )
    return StageResult(selected, emitted, _stats(tally, len(record)))


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
    # Checked here too: a page entry takes any other length for
    # several records, or for none.
    _check_window(record, geometry.record_bytes)
    selected, emitted, stats = interpret_page(
        pipeline, record, geometry, fuel,
        [0] * ACC_REGS if acc is None else acc, stack_limit=stack_limit,
    )
    return StageResult(bool(selected), b"".join(emitted), stats)


def interpret_page(
    pipeline: Pipeline,
    page: bytes,
    geometry: Geometry,
    fuel: int,
    acc: List[int],
    *,
    stack_limit: int = STACK_LIMIT,
    decoded: Optional[Tuple[_Stage, ...]] = None,
) -> Tuple[List[Tuple[int, bytes]], List[bytes], ExecStats]:
    """Run a whole pipeline over every record of ``page`` (raw entry).

    :func:`interpret_pipeline` folded over the records: the selected
    ``(slot, record)`` pairs, each one's projection output (``b""``
    without a project stage) and one :class:`ExecStats` for the lot;
    ``acc`` folds in place.  ``decoded`` is the pipeline already
    decoded (:func:`decode_pipeline`, kept on a proof token); without
    it a stage is decoded when a record first reaches it, so one that
    no record reaches raises nothing.
    """
    size = geometry.record_bytes
    whole = len(page) - len(page) % size
    # Per stage: [decoded once a record reaches it, program, is-a-project].
    plan: List[List[Any]] = [
        [None if decoded is None else decoded[i], program, program.kind == "project"]
        for i, program in enumerate(pipeline.stages)
    ]
    tally = [0] * len(_OPS)
    stack: List[int] = []
    loops: List[List[int]] = []
    buffer = bytearray()
    selected: List[Tuple[int, bytes]] = []
    emitted: List[bytes] = []
    for at in range(0, whole, size):
        record = page[at:at + size]
        output = b""
        for entry in plan:
            stage = entry[0]
            if stage is None:
                stage = entry[0] = _decode(entry[1])
            keep, chunk = _run(
                stage, record, fuel, acc, stack_limit, tally,
                stack, loops, buffer,
            )
            if not keep:  # only a filter rejects, and it gates the rest
                break
            if entry[2]:
                output = chunk
        else:
            selected.append((at // size, record))
            emitted.append(output)
    if whole < len(page):  # a short last record
        _check_window(page[whole:], size)
    return selected, emitted, _stats(tally, size)
