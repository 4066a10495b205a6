"""Arrival processes and time-varying rate curves for open-loop load.

Three arrival families cover the traffic shapes the overload work needs:

* :class:`PoissonArrivals` — memoryless baseline.  Non-homogeneous
  rates (diurnal curves, flash crowds) are handled by *thinning*: draw
  candidate arrivals at the curve's peak rate, keep each with
  probability ``rate(t) / peak`` — the standard exact method for a
  time-varying Poisson process.
* :class:`OnOffArrivals` — self-similar traffic via heavy-tailed ON/OFF
  periods (Pareto with shape ``alpha`` in (1, 2)).  Superposing many
  such sources is the classical construction of long-range-dependent
  network traffic (Willinger et al.); a single source already shows
  burst trains no Poisson stream produces.
* :class:`BModelArrivals` — the b-model (biased binary budget splits):
  a deterministic-count burst cascade whose index of dispersion grows
  with aggregation scale.  Good for "how bursty can one tenant be".

All draws come from the caller's :class:`~repro.sim.rng.SeededRng`;
an arrival sequence is a pure function of (seed, curve, horizon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from ..sim import SeededRng

__all__ = [
    "DiurnalCurve",
    "FlashCrowd",
    "RateCurve",
    "PoissonArrivals",
    "OnOffArrivals",
    "BModelArrivals",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DiurnalCurve:
    """Sinusoidal day/night load modulation.

    ``multiplier(t)`` swings in ``[1 - amplitude, 1 + amplitude]`` with
    the given period, starting at the mean, rising, at t=0.
    """

    amplitude: float = 0.5
    period: float = 86_400.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")
        if self.period <= 0:
            raise ValueError("period must be positive")

    def multiplier(self, t: float) -> float:
        return 1.0 + self.amplitude * math.sin(
            _TWO_PI * t / self.period
        )

    @property
    def peak_multiplier(self) -> float:
        return 1.0 + self.amplitude


@dataclass(frozen=True)
class FlashCrowd:
    """A rate spike: ``multiplier``× between ``start`` and
    ``start + duration``, with optional linear ramps at both edges."""

    start: float
    duration: float
    multiplier: float = 10.0
    ramp: float = 0.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.ramp < 0 or self.ramp * 2 > self.duration:
            raise ValueError("need 0 <= ramp <= duration / 2")

    def multiplier_at(self, t: float) -> float:
        if t < self.start or t >= self.start + self.duration:
            return 1.0
        if self.ramp > 0:
            into = t - self.start
            left = self.start + self.duration - t
            edge = min(into, left)
            if edge < self.ramp:
                return 1.0 + (self.multiplier - 1.0) * (edge / self.ramp)
        return self.multiplier


class RateCurve:
    """``rate(t) = base × diurnal(t) × Π flash_crowd(t)``.

    The curve also knows its own peak, which thinning-based arrival
    processes use as the dominating homogeneous rate.
    """

    def __init__(
        self,
        base_rate: float,
        diurnal: DiurnalCurve = None,
        events: Sequence[FlashCrowd] = (),
    ) -> None:
        if base_rate < 0:
            raise ValueError("base_rate must be >= 0")
        self.base_rate = base_rate
        self.diurnal = diurnal
        self.events = tuple(events)

    def rate(self, t: float) -> float:
        rate = self.base_rate
        if self.diurnal is not None:
            rate *= self.diurnal.multiplier(t)
        for event in self.events:
            rate *= event.multiplier_at(t)
        return rate

    def peak_rate(self) -> float:
        peak = self.base_rate
        if self.diurnal is not None:
            peak *= self.diurnal.peak_multiplier
        for event in self.events:
            peak *= event.multiplier
        return peak

    def mean_rate(self, horizon: float, samples: int = 256) -> float:
        """Midpoint-sampled mean of ``rate`` over ``[0, horizon)``."""
        if horizon <= 0 or samples < 1:
            return self.base_rate
        dt = horizon / samples
        return (
            sum(self.rate((i + 0.5) * dt) for i in range(samples)) / samples
        )


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


@dataclass(frozen=True)
class OnOffArrivals:
    """Self-similar single source: heavy-tailed ON/OFF phases.

    Phase lengths are Pareto(``alpha``) with the given means; within an
    ON phase, arrivals are Poisson at ``rate / duty`` (duty = ON
    fraction), so the long-run mean matches the curve while the
    short-run stream is a train of heavy bursts separated by
    heavy-tailed silences.
    """

    mean_on: float = 2e-3
    mean_off: float = 6e-3
    alpha: float = 1.5

    def __post_init__(self) -> None:
        if self.mean_on <= 0 or self.mean_off <= 0:
            raise ValueError("phase means must be positive")
        if not 1.0 < self.alpha < 2.0:
            raise ValueError(
                "alpha must be in (1, 2) for heavy tails with finite mean"
            )

    def _phase(self, rng: SeededRng, mean: float) -> float:
        # random.Random.paretovariate(alpha) has mean alpha/(alpha-1)
        # (scale 1); rescale so the phase's mean is ``mean``.
        scale = mean * (self.alpha - 1.0) / self.alpha
        return scale * rng.paretovariate(self.alpha)

    def arrivals(
        self, rng: SeededRng, curve: RateCurve, horizon: float
    ) -> Iterator[float]:
        base_peak = curve.peak_rate()
        if base_peak <= 0 or horizon <= 0:
            return
        duty = self.mean_on / (self.mean_on + self.mean_off)
        burst_gap = duty / base_peak  # 1 / (peak / duty)
        t = 0.0
        on = rng.random() < duty
        phase_end = self._phase(
            rng, self.mean_on if on else self.mean_off
        )
        while t < horizon:
            if not on:
                t = phase_end
                on = True
                phase_end = t + self._phase(rng, self.mean_on)
                continue
            t += rng.exponential(burst_gap)
            if t >= phase_end:
                t = phase_end
                on = False
                phase_end = t + self._phase(rng, self.mean_off)
                continue
            if t < horizon and curve.rate(t) >= base_peak * rng.random():
                yield t


@dataclass(frozen=True)
class BModelArrivals:
    """b-model burst cascade (biased multiplicative budget splits).

    The horizon is split recursively in half ``levels`` times; at each
    split, a ``bias`` fraction of the interval's arrival budget lands
    on one (randomly chosen) half.  ``bias = 0.5`` degenerates to
    near-uniform; 0.7–0.9 produces the multi-scale burstiness measured
    in real storage traces.  The total count follows the curve's mean
    rate; the *placement* is what the cascade skews.
    """

    bias: float = 0.75
    levels: int = 10

    def __post_init__(self) -> None:
        if not 0.5 <= self.bias < 1.0:
            raise ValueError("bias must be in [0.5, 1)")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")

    def arrivals(
        self, rng: SeededRng, curve: RateCurve, horizon: float
    ) -> Iterator[float]:
        if horizon <= 0:
            return
        count = int(round(curve.mean_rate(horizon) * horizon))
        if count <= 0:
            return
        times: List[float] = []
        stack: List[Tuple[float, float, int, int]] = [
            (0.0, horizon, count, 0)
        ]
        while stack:
            start, span, budget, level = stack.pop()
            if budget <= 0:
                continue
            if level >= self.levels:
                for _ in range(budget):
                    times.append(start + rng.random() * span)
                continue
            hot = int(round(budget * self.bias))
            if rng.random() < 0.5:
                left, right = hot, budget - hot
            else:
                left, right = budget - hot, hot
            half = span / 2.0
            stack.append((start, half, left, level + 1))
            stack.append((start + half, half, right, level + 1))
        times.sort()
        for t in times:
            yield t
