"""Benchmark harness: cluster builder, experiment runner, echo bench."""

from .echo import EchoBench, EchoResult
from .rmw import RmwResult, run_rmw_scaling
from .harness import (
    SOLUTIONS,
    ExperimentResult,
    build_cluster,
    find_peak,
    run_io_experiment,
    sweep,
)

__all__ = [
    "EchoBench",
    "RmwResult",
    "run_rmw_scaling",
    "EchoResult",
    "ExperimentResult",
    "SOLUTIONS",
    "build_cluster",
    "find_peak",
    "run_io_experiment",
    "sweep",
]
