"""The one rule for reading a run's stamps: latency percentiles, counts
per time slice (the throughput-dip, flash-crowd and dark-window series)
and the throughput of one window.  Windows are half-open, [start, end).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

__all__ = ["percentile", "rate", "slices"]


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in [0, 100]) of an already-sorted
    sample; 0.0 when empty."""
    if not ordered:
        return 0.0
    index = min(
        len(ordered) - 1, max(0, int(round(p / 100 * len(ordered))) - 1)
    )
    return ordered[index]


def slices(
    stamps: Iterable[float], start: float, end: float, width: float
) -> List[int]:
    """Stamps per ``width``-wide slice of ``[start, end)``, each placed
    by exact arithmetic on its float value.

    A span within float rounding of a whole number of widths has that
    many slices (``(15e-3 - 10e-3) / 5e-4`` is ``9.999…``: ten); a
    shorter tail joins the last slice, and a span under one width is
    one slice."""
    from fractions import Fraction  # loads decimal: import on use only
    if width <= 0:
        raise ValueError("slice width must be positive")
    span = (end - start) / width
    count = round(span)
    if not math.isclose(span, count, rel_tol=1e-9):
        count = int(span)
    counts = [0] * max(1, count)
    origin, step, last = Fraction(start), Fraction(width), len(counts) - 1
    for stamp in stamps:
        if start <= stamp < end:
            counts[min(int((Fraction(stamp) - origin) / step), last)] += 1
    return counts


def rate(stamps: Iterable[float], lo: float, hi: float) -> float:
    """Stamps inside ``[lo, hi)`` per second; 0.0 for an empty window."""
    if hi <= lo:
        return 0.0
    return sum(1 for stamp in stamps if lo <= stamp < hi) / (hi - lo)
