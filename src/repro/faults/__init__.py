"""Deterministic chaos layer: fault plans, injection, invariant checking.

Quickstart::

    from repro.faults import FaultPlan, ShardKill, FaultInjector

    plan = FaultPlan(seed=7, events=(
        ShardKill(at=10e-3, down_for=8e-3, shard=2),
    ))
    FaultInjector(env, server, plan).arm()
    # ... run the workload; then audit with InvariantChecker.check()

Every fault draws its randomness from the plan's seed, so a chaos run
is replayable: same seed, same fault log, same final state.
"""

from .injector import FaultInjector
from .invariants import InvariantChecker, InvariantReport, InvariantViolation
from .netem import NetworkChaos
from .plan import (
    EngineCrash,
    FaultEvent,
    FaultPlan,
    FaultRecord,
    NicFault,
    ShardKill,
    SsdErrorBurst,
    SsdLatencySpike,
)

# The old name, still imported by the frozen ``benchmarks/e2e``.
ReplicationInvariantChecker = InvariantChecker

__all__ = [
    "EngineCrash",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultRecord",
    "InvariantChecker",
    "InvariantReport",
    "InvariantViolation",
    "NetworkChaos",
    "NicFault",
    "ShardKill",
    "SsdErrorBurst",
    "SsdLatencySpike",
]
