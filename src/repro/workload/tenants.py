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
    read_fraction: float = 1.0
    #: Zipf skew of this tenant's file popularity (0 = uniform).
    zipf_theta: float = 0.99
    #: Declared p99 SLO in seconds (None = best-effort tenant).
    slo_p99: Optional[float] = None
    #: True marks a deliberately abusive tenant (exempt from SLO
    #: checks; the OL2 question is whether it hurts the others).
    flooder: bool = False

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("rate must be >= 0")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.zipf_theta < 0:
            raise ValueError("zipf_theta must be >= 0")
        if self.slo_p99 is not None and self.slo_p99 <= 0:
            raise ValueError("slo_p99 must be positive")
