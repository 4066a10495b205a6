"""Shared reporting helpers for the per-figure benchmarks.

Each benchmark regenerates one figure of the paper: it prints the same
rows/series the paper plots and also writes them to
``benchmarks/results/<figure>.txt`` so the output survives pytest's
capture.  Absolute numbers come from the calibrated simulator; what is
checked is the *shape* the paper reports (who wins, by what factor,
where curves cross).  Each shape claim is stated once, as a
:class:`Claim` row next to its driver; :func:`emit` evaluates a
figure's rows against the driver's results, writes them under the
table, and only then fails, naming every row that does not hold.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def number(value: Any) -> str:
    """Render a measured value or a bound: 4 significant digits, with a
    K/M/G suffix from a thousand up and a ``u`` (micro) suffix below a
    thousandth; sequences in brackets."""
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(number(item) for item in value) + "]"
    if isinstance(value, float):
        for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
            if abs(value) >= scale:
                return f"{value / scale:.4g}{suffix}"
        if 0 < abs(value) < 1e-3:
            return f"{value * 1e6:.4g}u"
        return f"{value:.4g}"
    return str(value)


@dataclass(frozen=True)
class Bound:
    """A predicate that prints as the bound it checks."""

    text: str
    holds: Callable[[Any], bool]

    def __str__(self) -> str:
        return self.text


def above(limit: float) -> Bound:
    return Bound(f"> {number(limit)}", lambda value: value > limit)


def below(limit: float) -> Bound:
    return Bound(f"< {number(limit)}", lambda value: value < limit)


def at_least(limit: float) -> Bound:
    return Bound(f">= {number(limit)}", lambda value: value >= limit)


def at_most(limit: float) -> Bound:
    return Bound(f"<= {number(limit)}", lambda value: value <= limit)


def between(low: float, high: float) -> Bound:
    """Strictly inside the open interval."""
    return Bound(
        f"in ({number(low)}, {number(high)})",
        lambda value: low < value < high,
    )


def equals(expected: Any) -> Bound:
    return Bound(f"== {number(expected)}", lambda value: value == expected)


def each(bound: Bound) -> Bound:
    """Every item of a sequence satisfies ``bound``."""
    return Bound(
        f"each {bound}", lambda values: all(bound.holds(v) for v in values)
    )


def _pairs(values):
    return zip(values, values[1:])


#: Orderings of a sequence, first item to last.
INCREASING = Bound("increasing", lambda v: all(a < b for a, b in _pairs(v)))
DECREASING = Bound("decreasing", lambda v: all(a > b for a, b in _pairs(v)))
NONDECREASING = Bound("non-decreasing", lambda v: list(v) == sorted(v))
ALL_EQUAL = Bound("all equal", lambda v: all(a == b for a, b in _pairs(v)))


@dataclass(frozen=True)
class Claim:
    """One shape claim of one figure.

    ``metric`` maps the figure driver's results to the measured value,
    ``predicate`` is the bound it must satisfy, and ``paper`` says what
    the paper reports (or, beyond the paper, which design point the
    claim stands for).
    """

    figure: str
    claim: str
    paper: str
    metric: Callable[[Any], Any]
    predicate: Bound


def of(key: Any, field: str) -> Callable[[Any], Any]:
    """Metric: ``field`` of ``results[key]``."""
    return lambda results: getattr(results[key], field)


def peak(kind: str, field: str) -> Callable[[Any], Any]:
    """Metric: ``field`` of the last (highest-load) point of the series
    ``results[kind]``."""
    return lambda results: getattr(results[kind][-1], field)


def peaks(field: str, *kinds: str) -> Callable[[Any], Any]:
    """Metric: :func:`peak` of each series, in order (for orderings)."""
    return lambda results: [getattr(results[k][-1], field) for k in kinds]


def ratio(numerator: Callable[[Any], Any],
          denominator: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """Metric: one metric over another."""
    return lambda results: numerator(results) / denominator(results)


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    measured: str
    ok: bool


def judge(claim: Claim, results: Any) -> Verdict:
    """Evaluate one row; a metric that raises is a failing row."""
    try:
        value = claim.metric(results)
    except Exception as exc:  # the row reports it, then emit fails
        return Verdict(claim, f"{type(exc).__name__}: {exc}", False)
    return Verdict(claim, number(value), bool(claim.predicate.holds(value)))


def claims_section(verdicts: Sequence[Verdict]) -> List[str]:
    """The ``claim | paper | measured | bound | verdict`` section."""
    failing = sum(not v.ok for v in verdicts)
    cells = [("claim", "paper", "measured", "bound", "verdict")] + [
        (v.claim.claim, v.claim.paper, v.measured, str(v.claim.predicate),
         "ok" if v.ok else "FAIL")
        for v in verdicts
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(5)]
    lines = ["", f"--- claims: {len(verdicts) - failing} of "
                 f"{len(verdicts)} hold ---"]
    lines.extend(
        " | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in cells
    )
    return lines


def emit(figure: str, title: str, header: Sequence[str],
         rows: Iterable[Sequence], claims: Sequence[Claim] = (),
         results: Any = None) -> str:
    """Format, print and persist one figure's table and its claim rows
    (the ``claims`` whose ``figure`` this is, judged on ``results``);
    then raise ``AssertionError`` naming every row that fails."""
    lines: List[str] = [f"=== {figure}: {title} ==="]
    widths = [max(len(str(h)), 12) for h in header]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
        )
    verdicts = [judge(c, results) for c in claims if c.figure == figure]
    if verdicts:
        lines.extend(claims_section(verdicts))
    table = "\n".join(lines)
    print("\n" + table)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{figure}.txt")
    with open(path, "w") as handle:
        handle.write(table + "\n")
    failed = [v for v in verdicts if not v.ok]
    if failed:
        raise AssertionError(
            f"{figure}: {len(failed)} claim(s) failed:\n  " + "\n  ".join(
                f"{v.claim.claim}: measured {v.measured}, bound "
                f"{v.claim.predicate}" for v in failed
            )
        )
    return table


def bench(driver: Callable[[], Any]) -> Callable[[Any], None]:
    """A pytest-benchmark test that runs ``driver`` once; the driver's
    :func:`emit` calls check its claims."""
    def test(benchmark):
        benchmark.pedantic(driver, rounds=1, iterations=1)
    return test


def kops(value: float) -> str:
    """Format ops/s as thousands."""
    return f"{value / 1e3:.1f}K"


def us(value: float) -> str:
    """Format seconds as microseconds."""
    return f"{value * 1e6:.0f}us"


def ms(value: float) -> str:
    """Format seconds as milliseconds."""
    return f"{value * 1e3:.2f}ms"


def cores(value: float) -> str:
    return f"{value:.2f}"
