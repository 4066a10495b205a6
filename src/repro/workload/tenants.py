"""Tenant specs: one identity, load shape and service expectation each.

A *tenant* aggregates many end users behind one identity and one flow;
the traffic engine drives it with Poisson arrivals at its rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

from .arrivals import PoissonArrivals

__all__ = ["TenantSpec"]


@dataclass
class TenantSpec:
    """One tenant's identity, load shape, and service expectations."""

    #: Every tenant's arrival process.
    arrivals: ClassVar[PoissonArrivals] = PoissonArrivals()

    name: str
    index: int
    #: Mean offered rate (requests/sec) before curve modulation.
    rate: float
    #: DRR weight at the QoS gate.
    weight: float = 1.0
    #: Declared p99 SLO in seconds (None = best-effort tenant).
    slo_p99: Optional[float] = None
    #: Share of each tenant's requests that are reads.
    READ_FRACTION: ClassVar[float] = 1.0
    #: Zipf skew of each tenant's file popularity (0 = uniform).
    ZIPF_THETA: ClassVar[float] = 0.99

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("rate must be >= 0")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if not 0.0 <= self.READ_FRACTION <= 1.0:
            raise ValueError("READ_FRACTION must be in [0, 1]")
        if self.ZIPF_THETA < 0:
            raise ValueError("ZIPF_THETA must be >= 0")
        if self.slo_p99 is not None and self.slo_p99 <= 0:
            raise ValueError("slo_p99 must be positive")
