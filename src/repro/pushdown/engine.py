"""DES execution engine for *verified* pushdown pipelines.

This is the sanctioned execution path: it accepts only the
:class:`~repro.pushdown.verifier.VerifiedPipeline` proof token, never a
raw :class:`~repro.pushdown.isa.Pipeline` (calling the interpreter
directly is what ddslint's DDS501 flags; forging a token is DDS502).

Cost model
----------
Software execution charges the owning :class:`~repro.hardware.cpu.
CpuPool` per *executed opcode* from :data:`OP_CYCLES` (plus
:data:`DISPATCH_CYCLES` of decode per step and :data:`MATCH_BYTE_CYCLES`
per byte a software ``MATCH`` scans), converted to host-core-seconds at
:data:`HOST_HZ`.  The core's ``speed`` then does the host-vs-Arm scaling
exactly as everywhere else in the simulator (DPU cores run at 0.35x —
:data:`~repro.hardware.specs.DPU_CPU`).

When the pipeline's filter lowers to a single regex
(``token.pattern``), every placement selects rows with
:func:`~repro.hardware.accelerators.regex_scan` — one search per hit
over the page, or one per record for a pattern whose match depends on
where a record starts or ends — and only the surviving records run the
remaining stages through the interpreter.  The placement decides who
pays for the filter.  An attached RXP :class:`~repro.
hardware.accelerators.HardwareAccelerator` absorbs it at page
granularity: that is the §11 string-operator story, the regex engine
evaluates the operator where the data lives and the Arm cores stay
nearly idle.  Without one, the core is charged what the interpreter
would have counted for ``MATCH 0; RET`` on every record, so every
cycle is the one interpreting the filter costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, Tuple

from ..hardware.accelerators import HardwareAccelerator, regex_scan
from ..hardware.cpu import CpuPool
from .interp import ExecStats, interpret_page
from .isa import ACC_REGS, Op
from .verifier import VerifiedPipeline

__all__ = [
    "OP_CYCLES",
    "DISPATCH_CYCLES",
    "MATCH_BYTE_CYCLES",
    "HOST_HZ",
    "cycles_of",
    "PageOutcome",
    "shipped_bytes",
    "PushdownEngine",
]

#: Nominal host-core clock used to turn cycle counts into core-seconds.
HOST_HZ = 3.0e9

#: Decode/dispatch overhead charged per executed instruction.
DISPATCH_CYCLES = 2

#: Per-byte cost of a *software* regex scan (``MATCH`` outside the RXP).
MATCH_BYTE_CYCLES = 2

#: Execute cost per opcode, in host-core cycles (on top of dispatch).
OP_CYCLES = {
    Op.PUSH: 1, Op.POP: 1, Op.DUP: 1, Op.SWAP: 1,
    Op.LOAD: 2, Op.LOADD: 3, Op.LOADS: 2, Op.STORE: 2,
    Op.PUSHCTR: 1,
    Op.ADD: 1, Op.SUB: 1, Op.MUL: 3,
    Op.EQ: 1, Op.LT: 1, Op.GT: 1, Op.AND: 1, Op.OR: 1, Op.NOT: 1,
    Op.JMP: 1, Op.JZ: 1, Op.LOOP: 1, Op.END: 1,
    Op.EMITF: 2, Op.EMITV: 2,
    Op.MATCH: 4,
    Op.AADD: 2, Op.AMAX: 2, Op.AMIN: 2, Op.ACNT: 2,
    Op.RET: 1,
}


def cycles_of(stats: ExecStats) -> int:
    """Host-core cycles the recorded execution costs in software."""
    total = stats.match_bytes * MATCH_BYTE_CYCLES
    for op, count in stats.counts.items():
        total += count * (DISPATCH_CYCLES + OP_CYCLES[op])
    return total


@dataclass
class PageOutcome:
    """What one page scan produced and what it cost."""

    #: ``(slot, record)`` for records the filter selected.
    selected: List[Tuple[int, bytes]] = field(default_factory=list)
    #: Projection output per selected record (empty w/o a project stage).
    emitted: List[bytes] = field(default_factory=list)
    #: Software cycles charged to the engine's core.
    cycles: int = 0
    #: Bytes the RXP accelerator scanned (0 on the software path).
    accel_bytes: int = 0


def shipped_bytes(
    token: VerifiedPipeline, outcome: Optional[PageOutcome] = None
) -> int:
    """What a pushdown scan puts on the wire: per scanned page
    (``outcome``) the project stage's emitted bytes, nothing under an
    aggregate, or the selected records whole for a bare filter; at the
    end of the scan an aggregate's ``ACC_REGS * 8``-byte register dump,
    its entire answer."""
    pipeline = token.pipeline
    aggregates = pipeline.stage("aggregate") is not None
    if outcome is None:
        return ACC_REGS * 8 if aggregates else 0
    if pipeline.stage("project") is not None:
        return sum(len(chunk) for chunk in outcome.emitted)
    if aggregates:
        return 0
    return len(outcome.selected) * token.geometry.record_bytes


class PushdownEngine:
    """Per-record pipeline execution on one core, optionally with RXP.

    ``accelerator`` (an RXP :class:`HardwareAccelerator`) is used only
    when the admitted pipeline lowers to a pure regex scan; everything
    else runs in software on ``core``.
    """

    def __init__(
        self,
        env: object,
        core: CpuPool,
        accelerator: Optional[HardwareAccelerator] = None,
    ) -> None:
        self.env = env
        self.core = core
        self.accelerator = accelerator
        self.acc: List[int] = [0] * ACC_REGS

    def execute_page(
        self, token: VerifiedPipeline, page: bytes
    ) -> Generator:
        """Run the verified pipeline over every record in ``page``.

        A DES process generator: charges the accelerator and/or the core
        as it goes and returns a :class:`PageOutcome`.  Accumulator
        registers fold across pages in ``self.acc``.
        """
        if not isinstance(token, VerifiedPipeline):
            raise TypeError(
                "PushdownEngine executes VerifiedPipeline proof tokens "
                f"only, got {type(token).__name__}; run repro.pushdown."
                "verifier.verify() first"
            )
        geometry = token.geometry
        if len(page) % geometry.record_bytes:
            raise ValueError(
                f"page of {len(page)}B is not whole "
                f"{geometry.record_bytes}B records"
            )
        outcome = PageOutcome()
        fuel = token.verdict.fuel

        if token.pattern is not None:
            # The filter is one regex: regex_scan selects the rows a
            # per-record search would (one page search per hit where the
            # pattern allows), and only the survivors run the residual.
            matcher, residual = token.lowered
            if self.accelerator is not None:
                yield from self.accelerator.process(len(page))
                outcome.accel_bytes = len(page)
            outcome.selected = regex_scan(
                page, matcher, geometry.record_bytes
            )
            if residual.stages:
                survivors = b"".join(
                    record for _slot, record in outcome.selected
                )
                _all, emitted, stats = interpret_page(
                    residual, survivors, geometry, fuel, self.acc,
                    decoded=token.residual_decoded,
                )
                outcome.emitted = [chunk for chunk in emitted if chunk]
            else:
                stats = ExecStats()
            if self.accelerator is None:
                # The core pays what the interpreter counts for the
                # filter: one MATCH over the record and one RET each.
                records = len(page) // geometry.record_bytes
                counts = stats.counts
                counts[Op.MATCH] = counts.get(Op.MATCH, 0) + records
                counts[Op.RET] = counts.get(Op.RET, 0) + records
                stats.steps += 2 * records
                stats.match_bytes += len(page)
        else:
            outcome.selected, emitted, stats = interpret_page(
                token.pipeline, page, geometry, fuel, self.acc
            )
            outcome.emitted = [chunk for chunk in emitted if chunk]

        outcome.cycles = cycles_of(stats)
        if outcome.cycles:
            yield from self.core.execute(outcome.cycles / HOST_HZ)
        return outcome
