"""Property tests for the window rule in ``repro.sim.stats``.

Windows are built the way the benches build them: a start that is a
whole number of slices past some origin and an end a whole number of
slices after that, both as float sums, so ``(end - start) / width`` is
rarely the integer it stands for.  Stamps land anywhere around the
window, on the float sums of its slice boundaries, and one ulp either
side of them.  A :class:`fractions.Fraction` reference decides each
stamp's slice exactly.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.stats import rate, slices

widths = st.sampled_from([1e-4, 2.5e-4, 5e-4, 1e-3]) | st.floats(
    min_value=1e-5, max_value=1e-2
)


@st.composite
def windows(draw):
    width = draw(widths)
    origin = draw(st.floats(min_value=0.0, max_value=1.0))
    start = origin + draw(st.integers(0, 200)) * width
    n = draw(st.integers(1, 40))
    end = start + n * width
    boundaries = [start + j * width for j in range(n + 1)]
    near = st.sampled_from(boundaries).flatmap(
        lambda b: st.sampled_from(
            [b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)]
        )
    )
    anywhere = st.floats(min_value=start - width, max_value=end + width)
    stamps = draw(st.lists(near | anywhere, max_size=60))
    return stamps, start, end, width, n


def reference(stamps, start, end, width, n):
    counts = [0] * n
    for stamp in stamps:
        if start <= stamp < end:
            index = (Fraction(stamp) - Fraction(start)) // Fraction(width)
            counts[min(index, n - 1)] += 1
    return counts


@given(windows())
@settings(max_examples=400, deadline=None)
def test_slices_match_the_exact_reference(window):
    stamps, start, end, width, n = window
    counts = slices(stamps, start, end, width)
    assert len(counts) == n
    assert counts == reference(stamps, start, end, width, n)


@given(windows())
@settings(max_examples=200, deadline=None)
def test_rate_is_the_in_window_count_over_the_span(window):
    stamps, start, end, width, n = window
    inside = sum(reference(stamps, start, end, width, n))
    assert rate(stamps, start, end) == inside / (end - start)


def test_short_and_empty_windows():
    # A tail shorter than one slice joins the last slice.
    assert slices([0.1e-3, 1.2e-3, 2.4e-3], 0.0, 2.5e-3, 1e-3) == [1, 2]
    # A span under one width, or none at all, is one slice.
    assert slices([1e-4], 0.0, 3e-4, 1e-3) == [1]
    assert slices([1e-4], 2e-3, 1e-3, 1e-3) == [0]
    assert rate([1e-4], 1e-3, 1e-3) == 0.0
    with pytest.raises(ValueError):
        slices([], 0.0, 1.0, 0.0)
