"""Poisson arrivals under a time-varying rate curve, for open-loop load.

:class:`PoissonArrivals` handles a non-homogeneous rate (a base rate
times scheduled flash crowds) by *thinning*: draw candidate arrivals at
the curve's peak rate, keep each with probability ``rate(t) / peak`` —
the standard exact method for a time-varying Poisson process.

All draws come from the caller's :class:`~repro.sim.rng.SeededRng`;
an arrival sequence is a pure function of (seed, curve, horizon).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..sim import SeededRng

__all__ = ["FlashCrowd", "RateCurve", "PoissonArrivals"]


@dataclass(frozen=True)
class FlashCrowd:
    """A rate spike: ``multiplier``× on ``[start, start + duration)``."""

    start: float
    duration: float
    multiplier: float = 10.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def multiplier_at(self, t: float) -> float:
        if t < self.start or t >= self.start + self.duration:
            return 1.0
        return self.multiplier


class RateCurve:
    """``rate(t) = base × Π flash_crowd(t)``.

    The curve also knows its own peak, which thinning uses as the
    dominating homogeneous rate.
    """

    def __init__(
        self, base_rate: float, events: Sequence[FlashCrowd] = ()
    ) -> None:
        if base_rate < 0:
            raise ValueError("base_rate must be >= 0")
        self.base_rate = base_rate
        self.events = tuple(events)

    def rate(self, t: float) -> float:
        rate = self.base_rate
        for event in self.events:
            rate *= event.multiplier_at(t)
        return rate

    def peak_rate(self) -> float:
        peak = self.base_rate
        for event in self.events:
            peak *= event.multiplier
        return peak


@dataclass(frozen=True)
class PoissonArrivals:
    """(Non-)homogeneous Poisson arrivals by thinning."""

    def arrivals(
        self, rng: SeededRng, curve: RateCurve, horizon: float
    ) -> Iterator[float]:
        peak = curve.peak_rate()
        if peak <= 0 or horizon <= 0:
            return
        mean_gap = 1.0 / peak
        t = 0.0
        while True:
            t += rng.exponential(mean_gap)
            if t >= horizon:
                return
            if curve.rate(t) >= peak * rng.random():
                yield t
