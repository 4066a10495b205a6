"""Tenant populations: thousands of tenants, heavy-tailed rates.

A *tenant* aggregates many end users behind one identity (HSDS's "many
simultaneous users from a near-infinite set of locations"): its mean
request rate is the sum of its users' trickles.  Real multi-tenant
populations are heavy-tailed — a few whales dominate aggregate traffic
while a long tail of mice individually do almost nothing — so the
population factory draws per-tenant rates from a Pareto distribution
and normalizes to the requested aggregate.

Scale math: at :data:`PER_USER_RATE` = 0.15 req/s (a page server's end
user touching storage every ~7 s), a 150K IOPS aggregate stands for a
million concurrent users; :func:`population_users` reports the exact
number a population models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..sim import SeededRng
from .arrivals import PoissonArrivals

__all__ = ["TenantSpec", "heavy_tailed_population", "population_users"]

#: Requests/sec one end user contributes (the scale math above).
PER_USER_RATE = 0.15


@dataclass
class TenantSpec:
    """One tenant's identity, load shape, and service expectations."""

    name: str
    index: int
    #: Mean offered rate (requests/sec) before curve modulation.
    rate: float
    #: DRR weight at the QoS gate.
    weight: float = 1.0
    #: End users this tenant aggregates (reporting only).
    users: int = 1
    read_fraction: float = 1.0
    #: Zipf skew of this tenant's file popularity (0 = uniform).
    zipf_theta: float = 0.99
    #: Declared p99 SLO in seconds (None = best-effort tenant).
    slo_p99: Optional[float] = None
    #: Arrival process; anything with
    #: ``arrivals(rng, curve, horizon) -> Iterator[float]``.
    arrivals: object = field(default_factory=PoissonArrivals)
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


def heavy_tailed_population(
    count: int,
    total_rate: float,
    rng: SeededRng,
    alpha: float = 1.2,
) -> List[TenantSpec]:
    """Build ``count`` tenants whose rates sum to ``total_rate``.

    Per-tenant shares are Pareto(``alpha``) draws normalized to the
    aggregate — alpha near 1 gives a whale-dominated population, large
    alpha approaches uniform.  Each tenant's implied user count is its
    rate divided by :data:`PER_USER_RATE` (at least one user); the rest
    are :class:`TenantSpec`'s defaults.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if total_rate <= 0:
        raise ValueError("total_rate must be positive")
    if alpha <= 1.0:
        raise ValueError("alpha must be > 1 (finite mean)")
    draws = [rng.paretovariate(alpha) for _ in range(count)]
    scale = total_rate / sum(draws)
    specs: List[TenantSpec] = []
    for index, draw in enumerate(draws):
        rate = draw * scale
        specs.append(
            TenantSpec(
                name=f"tenant-{index:04d}",
                index=index,
                rate=rate,
                users=max(1, int(round(rate / PER_USER_RATE))),
            )
        )
    return specs


def population_users(specs: Sequence[TenantSpec]) -> int:
    """Total end users a population stands for."""
    return sum(spec.users for spec in specs)
