"""Future-work extensions the paper sketches in §10/§11, implemented.

Compressed page serving on the DPU's deflate engine, a Xenic-style
DPU-memory read cache, and Gimbal-style DRR tenant isolation.  The
accelerator models these build on are hardware
(:mod:`repro.hardware.accelerators`); string-operator pushdown grew
into the verified DSL (:mod:`repro.pushdown`).
"""

from .compressed_storage import (
    CompressedPageStore,
    CompressedReadResult,
    run_compressed_read_experiment,
)
from .dpu_cache import (
    CachedReadResult,
    DpuReadCache,
    run_dpu_cache_experiment,
)
from .multitenancy import (
    DrrScheduler,
    FairnessResult,
    TenantStats,
    run_multitenant_experiment,
)

__all__ = [
    "CachedReadResult",
    "CompressedPageStore",
    "CompressedReadResult",
    "DpuReadCache",
    "DrrScheduler",
    "FairnessResult",
    "TenantStats",
    "run_compressed_read_experiment",
    "run_dpu_cache_experiment",
    "run_multitenant_experiment",
]
