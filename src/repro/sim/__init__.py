"""Discrete-event simulation engine (SimPy-like, dependency-free)."""

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

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "SeededRng",
    "SimulationError",
    "Store",
    "Timeout",
    "ZipfGenerator",
]
