"""The pushdown bytecode ISA: a BPF-for-the-DPU.

Offload programs are tiny stack-machine bytecode run once per fixed-size
record.  The machine is deliberately small enough to verify statically
(:mod:`repro.pushdown.verifier`) before a program is admitted to a DPU:

* an **operand stack** of 64-bit signed integers (saturating, not
  wrapping, so interval analysis stays sound), depth-bounded;
* the **record window** — the current record's bytes, read-only;
* a per-invocation **scratch buffer** the program declares up front;
* four write-only **accumulator registers** for aggregation;
* a **pattern pool** of byte regexes (:data:`Op.MATCH` is the opcode the
  RXP engine can absorb — see :func:`lowers_to_regex`).

Control flow is structured: forward-only ``JMP``/``JZ`` plus a counted
``LOOP n … END`` pair whose trip count is a static immediate bounded by
the record geometry.  Back-edges exist *only* through ``END``'s
decreasing counter, which is what makes termination a syntactic theorem
rather than a search (the verifier's PDV101).

Programs compose into a :class:`Pipeline` — filter → project →
aggregate — evaluated per record; stage kinds fix the stack contract at
``RET`` (a filter leaves exactly the selection flag, the others leave an
empty stack).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

__all__ = [
    "Op",
    "Instruction",
    "Program",
    "Pipeline",
    "Geometry",
    "STACK_LIMIT",
    "SCRATCH_LIMIT",
    "ACC_REGS",
    "MAX_LOOP_NEST",
    "MAX_CODE",
    "FUEL_PER_RECORD_BYTE",
    "I64_MIN",
    "I64_MAX",
    "WIDTHS",
    "regex_filter",
    "field_filter",
    "project_fields",
    "aggregate_fields",
    "lowers_to_regex",
]

#: Operand-stack depth ceiling the verifier enforces (PDV201).
STACK_LIMIT = 32

#: Largest scratch buffer a program may declare, in bytes (PDV202).
SCRATCH_LIMIT = 64

#: Write-only accumulator registers available to aggregate stages.
ACC_REGS = 4

#: Deepest legal ``LOOP`` nesting (PDV101 beyond this).
MAX_LOOP_NEST = 2

#: Longest legal program, in instructions (PDV102 beyond this).
MAX_CODE = 256

#: Fuel budget scale: a program may take at most this many interpreter
#: steps per record byte (PDV102 when the proven worst case exceeds it).
FUEL_PER_RECORD_BYTE = 64

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

#: Legal load/store widths, bytes.
WIDTHS = (1, 2, 4, 8)


class Op(enum.Enum):
    """One opcode.  Operand meanings are noted per value."""

    PUSH = "push"        # a = constant pushed
    POP = "pop"
    DUP = "dup"
    SWAP = "swap"
    LOAD = "load"        # a = record offset, b = width: push LE uint
    LOADD = "loadd"      # b = width: pop offset, push LE uint
    LOADS = "loads"      # a = scratch offset, b = width
    STORE = "store"      # a = scratch offset, b = width: pop value
    PUSHCTR = "pushctr"  # push innermost loop induction value (0-based)
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    EQ = "eq"
    LT = "lt"
    GT = "gt"
    AND = "and"
    OR = "or"
    NOT = "not"
    JMP = "jmp"          # a = absolute target (forward-only to verify)
    JZ = "jz"            # a = absolute target: pop, jump when zero
    LOOP = "loop"        # a = static trip count (geometry-bounded)
    END = "end"          # decrement counter, back-edge while positive
    EMITF = "emitf"      # a = record offset, b = width: append bytes
    EMITV = "emitv"      # b = width: pop value, append LE bytes
    MATCH = "match"      # a = pattern-pool index: push 1/0
    AADD = "aadd"        # a = register: pop value, acc[a] += value
    AMAX = "amax"        # a = register: pop value, acc[a] = max(...)
    AMIN = "amin"        # a = register: pop value, acc[a] = min(...)
    ACNT = "acnt"        # a = register: acc[a] += 1
    RET = "ret"          # filter: pop selection flag; must be last

    #: Members are singletons compared by identity, so they hash by it,
    #: in C: ``Enum.__hash__`` is a Python frame per dict lookup, and
    #: the cost model's tallies are dicts keyed by opcode.
    __hash__ = object.__hash__


#: Opcodes that read an operand from the stack (count popped) — what
#: the verifier's loop-frame floor check subtracts.  What each opcode
#: pushes is the verifier's abstract pass itself.
POPS = {
    Op.PUSH: 0, Op.POP: 1, Op.DUP: 1, Op.SWAP: 2, Op.LOAD: 0,
    Op.LOADD: 1, Op.LOADS: 0, Op.STORE: 1, Op.PUSHCTR: 0, Op.ADD: 2,
    Op.SUB: 2, Op.MUL: 2, Op.EQ: 2, Op.LT: 2, Op.GT: 2, Op.AND: 2,
    Op.OR: 2, Op.NOT: 1, Op.JMP: 0, Op.JZ: 1, Op.LOOP: 0, Op.END: 0,
    Op.EMITF: 0, Op.EMITV: 1, Op.MATCH: 0, Op.AADD: 1, Op.AMAX: 1,
    Op.AMIN: 1, Op.ACNT: 0, Op.RET: 0,
}


@dataclass(frozen=True)
class Instruction:
    """One instruction: opcode plus up to two integer immediates."""

    op: Op
    a: int = 0
    b: int = 0

    def __repr__(self) -> str:
        if self.op in (Op.LOAD, Op.LOADS, Op.STORE, Op.EMITF):
            return f"{self.op.value}[{self.a}:{self.a}+{self.b}]"
        if self.b:
            return f"{self.op.value}({self.a},{self.b})"
        if self.a or self.op in (Op.PUSH, Op.JMP, Op.JZ, Op.LOOP):
            return f"{self.op.value}({self.a})"
        return self.op.value


#: Stage kinds and their stack contract at ``RET``.
KINDS = ("filter", "project", "aggregate")


@dataclass(frozen=True)
class Program:
    """One pipeline stage: bytecode + declared resources.

    ``kind`` fixes the result contract: a ``filter`` leaves its
    selection flag on the stack for ``RET`` to pop; ``project`` emits
    the output record via ``EMITF``/``EMITV``; ``aggregate`` folds into
    the accumulator registers.
    """

    kind: str
    code: Tuple[Instruction, ...]
    scratch: int = 0
    patterns: Tuple[bytes, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown program kind: {self.kind!r}")


@dataclass(frozen=True)
class Pipeline:
    """Composed stages, evaluated per record in declaration order.

    At most one stage of each kind, in filter → project → aggregate
    order; every combination (including an empty filter) is legal.
    """

    stages: Tuple[Program, ...]

    def __post_init__(self) -> None:
        order = [stage.kind for stage in self.stages]
        expected = [kind for kind in KINDS if kind in order]
        if order != expected or len(set(order)) != len(order):
            raise ValueError(
                "pipeline stages must be unique and ordered "
                f"filter->project->aggregate, got {order}"
            )

    def stage(self, kind: str) -> Optional[Program]:
        for program in self.stages:
            if program.kind == kind:
                return program
        return None


@dataclass(frozen=True)
class Geometry:
    """The record/page shape a program is verified against.

    The verifier derives every loop and fuel bound from this — a
    program is admitted *for a geometry*, not in the abstract.
    """

    record_bytes: int
    records_per_page: int

    def __post_init__(self) -> None:
        if self.record_bytes <= 0 or self.records_per_page <= 0:
            raise ValueError("geometry dimensions must be positive")

    @property
    def page_bytes(self) -> int:
        return self.record_bytes * self.records_per_page

    @property
    def fuel_limit(self) -> int:
        """Per-record interpreter step budget this geometry admits."""
        return FUEL_PER_RECORD_BYTE * self.record_bytes


# ----------------------------------------------------------------------
# assembler helpers: the pipelines the benches and examples use
# ----------------------------------------------------------------------
def regex_filter(pattern: bytes) -> Program:
    """A filter that selects records matching ``pattern``.

    This exact shape — ``MATCH 0; RET`` with a single pattern — is the
    one the RXP accelerator absorbs whole (:func:`lowers_to_regex`).
    """
    return Program(
        kind="filter",
        code=(Instruction(Op.MATCH, 0), Instruction(Op.RET)),
        patterns=(pattern,),
    )


def field_filter(
    offset: int, width: int, low: int, high: int
) -> Program:
    """Select records whose LE uint field lies in ``[low, high]``."""
    return Program(
        kind="filter",
        code=(
            Instruction(Op.LOAD, offset, width),
            Instruction(Op.PUSH, low - 1),
            Instruction(Op.GT),
            Instruction(Op.LOAD, offset, width),
            Instruction(Op.PUSH, high + 1),
            Instruction(Op.LT),
            Instruction(Op.AND),
            Instruction(Op.RET),
        ),
    )


def project_fields(fields: Iterable[Tuple[int, int]]) -> Program:
    """Emit the given ``(offset, width)`` record slices, in order."""
    code: List[Instruction] = [
        Instruction(Op.EMITF, offset, width) for offset, width in fields
    ]
    code.append(Instruction(Op.RET))
    return Program(kind="project", code=tuple(code))


def aggregate_fields(
    sum_field: Tuple[int, int],
    max_field: Optional[Tuple[int, int]] = None,
) -> Program:
    """Fold ``sum(field)`` into acc0, count into acc1, optional
    ``max(field)`` into acc2 — the bench's aggregate stage."""
    code: List[Instruction] = [
        Instruction(Op.LOAD, sum_field[0], sum_field[1]),
        Instruction(Op.AADD, 0),
        Instruction(Op.ACNT, 1),
    ]
    if max_field is not None:
        code.append(Instruction(Op.LOAD, max_field[0], max_field[1]))
        code.append(Instruction(Op.AMAX, 2))
    code.append(Instruction(Op.RET))
    return Program(kind="aggregate", code=tuple(code))


def lowers_to_regex(pipeline: Pipeline) -> Optional[bytes]:
    """The pattern the RXP engine can evaluate in place of the filter.

    A filter lowers when it is exactly ``MATCH <single pattern>; RET``:
    the accelerator then replaces the per-record interpretation of that
    stage (remaining stages still run on the Arm cores, over survivors
    only).  Returns the pattern, or None when the filter — or the whole
    pipeline — needs software.
    """
    program = pipeline.stage("filter")
    if program is None or len(program.patterns) != 1:
        return None
    if len(program.code) != 2:
        return None
    first, last = program.code
    if first.op is Op.MATCH and first.a == 0 and last.op is Op.RET:
        return program.patterns[0]
    return None
