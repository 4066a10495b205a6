"""Spans and profile bucketing, recorded from the benchmark's side only.

The runner wraps every call it makes into a ``repro`` package in a
:meth:`Recorder.span`; the three top-level spans (``setup``, ``run``,
``audit``) are the phases whose wall times become ``setup_s``,
``host_us_per_op`` and ``faults.audit_s``.  With ``profile=True`` each
phase also runs under its own :mod:`cProfile` profiler, and
:func:`bucket_profile` folds the per-function self times into one row per
``repro/<package>/`` path segment.  Nothing here touches ``src/``: spans
inside the program are a later change.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["LAYERS", "Recorder", "bucket_profile", "format_trace_table"]

#: The ``src/repro`` packages that count as layers of the datapath.
LAYERS = (
    "sim",
    "hardware",
    "net",
    "core",
    "structures",
    "storage",
    "topology",
    "faults",
    "workload",
    "pushdown",
)

#: Buckets of a profile: the layers, the remaining ``repro`` packages
#: (extensions, concurrency hooks, bench), and everything else (stdlib,
#: builtins, the benchmark's own files).
BUCKETS = LAYERS + ("other", "python")


class Recorder:
    """In-memory span list for one child process (one workload run)."""

    def __init__(
        self, workload: str, origin: float, profile: bool = False
    ) -> None:
        self.workload = workload
        #: ``time.perf_counter()`` at the child's first statement; span
        #: times are seconds since then.
        self.origin = origin
        self.profile = profile
        self.spans: List[dict] = []
        self.profiles: Dict[str, cProfile.Profile] = {}
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, start: Optional[float] = None) -> Iterator[dict]:
        """Record ``{id, name, start, end, parent, workload}`` around a
        block; ``parent`` is the id of the enclosing span (None at top)."""
        begin = time.perf_counter() if start is None else start
        record = {
            "id": len(self.spans),
            "name": name,
            "start": begin - self.origin,
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._open.pop()

    @contextmanager
    def phase(self, name: str, start: Optional[float] = None) -> Iterator[dict]:
        """A top-level span that also owns the phase's profiler."""
        profiler = cProfile.Profile() if self.profile else None
        with self.span(name, start) as record:
            if profiler is not None:
                profiler.enable()
            try:
                yield record
            finally:
                if profiler is not None:
                    profiler.disable()
                    self.profiles[name] = profiler

    def seconds(self, name: str) -> float:
        """Total wall time of the closed spans called ``name``."""
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name and span["end"] is not None
        )

    def self_seconds(self) -> Dict[int, float]:
        """Span id -> its duration minus what its child spans cover."""
        own = {
            span["id"]: span["end"] - span["start"]
            for span in self.spans
            if span["end"] is not None
        }
        for span in self.spans:
            parent = span["parent"]
            if parent in own and span["id"] in own:
                own[parent] -= span["end"] - span["start"]
        return own


def _bucket_of(filename: str) -> str:
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return "python"
    package = filename[at + len(marker):].split("/", 1)[0]
    return package if package in LAYERS else "other"


def bucket_profile(profiler: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """Fold a profile into ``{bucket: {"self_s", "calls"}}``.

    ``tottime`` is a function's own time with its callees' taken out,
    so the buckets partition the profiled interval.
    """
    table = {bucket: {"self_s": 0.0, "calls": 0} for bucket in BUCKETS}
    for (filename, _line, _name), entry in pstats.Stats(profiler).stats.items():
        _primitive, calls, self_s, _cumulative, _callers = entry
        row = table[_bucket_of(filename)]
        row["self_s"] += self_s
        row["calls"] += calls
    return table


def format_trace_table(
    workload: str, phases: Dict[str, Dict[str, Dict[str, float]]],
    phase_seconds: Dict[str, float],
) -> str:
    """The stable, diffable per-package table written beside the spans."""
    names = [name for name in ("setup", "run", "audit") if name in phases]
    lines = [
        f"# {workload}: traced self time per package (seconds) and calls",
        "package     " + "".join(f"{n + '_s':>12}{n + '_calls':>14}" for n in names),
    ]
    for bucket in BUCKETS:
        cells = "".join(
            f"{phases[n][bucket]['self_s']:>12.4f}{phases[n][bucket]['calls']:>14d}"
            for n in names
        )
        lines.append(f"{bucket:<12}{cells}")
    lines.append(
        "sum         "
        + "".join(
            f"{sum(row['self_s'] for row in phases[n].values()):>12.4f}{'':>14}"
            for n in names
        )
    )
    lines.append(
        "phase wall  "
        + "".join(f"{phase_seconds[n]:>12.4f}{'':>14}" for n in names)
    )
    return "\n".join(lines) + "\n"
