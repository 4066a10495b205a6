"""Discrete-event simulation engine (SimPy-like, dependency-free)."""

from .._lazy import lazy_exports
from .engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .resources import Resource, Store
from .rng import SeededRng, ZipfGenerator

# The event log is a debugging aid a run attaches on request; it loads
# on first use (PEP 562).
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "trace": ("EventLog", "TraceRecord"),
})

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "EventLog",
    "Interrupt",
    "Process",
    "Resource",
    "SeededRng",
    "SimulationError",
    "Store",
    "Timeout",
    "TraceRecord",
    "ZipfGenerator",
]
