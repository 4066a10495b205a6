"""Verified programmable pushdown: a bytecode DSL for DPU offload.

The package splits cleanly into *authoring* (:mod:`~repro.pushdown.isa`
builders and the restricted-Python :mod:`~repro.pushdown.frontend`),
*admission* (:mod:`~repro.pushdown.verifier` — the static proof of
termination, bounded memory, window confinement, and type soundness),
and *execution* (:mod:`~repro.pushdown.interp` reference semantics,
:mod:`~repro.pushdown.engine` DES cost model, :mod:`~repro.pushdown.
scan` full storage-stack scans).

The intended flow — and the one ddslint's DDS501/DDS502 enforce — is::

    pipeline = Pipeline((regex_filter(rb"needle-\\d{8}"),
                         aggregate_fields((0, 4))))
    verdict, token = verify(pipeline, Geometry(128, 64))
    if token is None:        # typed rejection -> host fallback
        ...
    else:                    # proof token -> DPU execution
        ...
"""

from .._lazy import lazy_exports
from .interp import (
    ExecStats,
    FuelTrap,
    OperandTrap,
    ScratchTrap,
    StackTrap,
    StageResult,
    Trap,
    WindowTrap,
    interpret,
    interpret_page,
    interpret_pipeline,
)
from .isa import (
    ACC_REGS,
    FUEL_PER_RECORD_BYTE,
    MAX_CODE,
    MAX_LOOP_NEST,
    SCRATCH_LIMIT,
    STACK_LIMIT,
    WIDTHS,
    Geometry,
    Instruction,
    Op,
    Pipeline,
    Program,
    aggregate_fields,
    field_filter,
    lowers_to_regex,
    project_fields,
    regex_filter,
)
from .verifier import (
    PDV_RULES,
    PipelineVerdict,
    Verdict,
    VerifiedPipeline,
    VerifiedProgram,
    verify,
    verify_program,
)

# The restricted-Python frontend parses source with ``ast`` and
# ``inspect``; only authoring calls it, so it loads on first use
# (PEP 562).
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "frontend": ("SourceRejected", "compile_predicate"),
})

__all__ = [
    # isa
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
    "WIDTHS",
    "regex_filter",
    "field_filter",
    "project_fields",
    "aggregate_fields",
    "lowers_to_regex",
    # interp
    "Trap",
    "FuelTrap",
    "WindowTrap",
    "StackTrap",
    "ScratchTrap",
    "OperandTrap",
    "ExecStats",
    "StageResult",
    "interpret",
    "interpret_pipeline",
    "interpret_page",
    # verifier
    "PDV_RULES",
    "Verdict",
    "PipelineVerdict",
    "VerifiedProgram",
    "VerifiedPipeline",
    "verify_program",
    "verify",
    # frontend
    "SourceRejected",
    "compile_predicate",
]
