"""Code references in the docs resolve.

Every backticked dotted name in README.md, DESIGN.md and EXPERIMENTS.md
whose head is a ``repro`` subpackage or module (``hardware.specs.DPU_CPU``,
``repro.sim.trace.EventLog``) must import and ``getattr``-resolve, so a
renamed or deleted definition cannot stay in the docs.  The e2e tracer's
metric and span names share that shape without being code; they are
listed in :data:`NOT_CODE`.
"""

import importlib
import os
import re

import pytest

from .census_tree import PACKAGE, ROOT

DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

_METRIC = "an e2e per-layer metric (BENCHMARK.json), not a code path"
_SPAN = "an e2e tracer span (benchmarks/e2e/workloads.py), not a code path"

#: Dotted names the docs use that are not code, each with its reason.
NOT_CODE = {
    "core.calls": _METRIC,
    "core.retries": _METRIC,
    "hardware.calls": _METRIC,
    "net.calls": _METRIC,
    "net.self_s": _METRIC,
    "pushdown.calls": _METRIC,
    "pushdown.probe_interpret_records_per_s": _METRIC,
    "pushdown.scan_table": _SPAN,
    "pushdown.scanner_init": _SPAN,
    "sim.calls": _METRIC,
    "sim.events_per_op": _METRIC,
}

_HEADS = sorted(
    name[:-3] if name.endswith(".py") else name
    for name in os.listdir(PACKAGE)
    if not name.startswith("__")
    and (name.endswith(".py") or os.path.isdir(os.path.join(PACKAGE, name)))
)
_SPANS = re.compile(r"`([^`\n]+)`")
#: A dotted name not inside a path (``src/repro/sim/trace.py``).
_DOTTED = re.compile(
    r"(?<![\w./-])(?:repro\.)?((?:%s)(?:\.[A-Za-z_]\w*)+)" % "|".join(_HEADS)
)


def references():
    """``(doc, dotted name)`` for every code-shaped reference."""
    found = set()
    for doc in DOCS:
        with open(os.path.join(ROOT, doc)) as handle:
            text = handle.read()
        for span in _SPANS.findall(text):
            found.update((doc, m.group(1)) for m in _DOTTED.finditer(span))
    return sorted(found)


def resolve(dotted):
    """Import the longest module prefix of ``repro.<dotted>`` and
    ``getattr`` the rest; raises ImportError or AttributeError."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        module = "repro." + ".".join(parts[:split])
        try:
            value = importlib.import_module(module)
        except ModuleNotFoundError as exc:
            if exc.name == module:
                continue
            raise
        for attr in parts[split:]:
            value = getattr(value, attr)
        return value
    raise ImportError(f"no module repro.{parts[0]}")


def test_the_docs_name_code():
    names = {name for _doc, name in references()}
    assert len(names) > 50
    assert "storage.disk.SpdkBdev" in names
    assert "sim.calls" in names


@pytest.mark.parametrize("doc", DOCS)
def test_every_code_reference_resolves(doc):
    broken = []
    for where, name in references():
        if where != doc or name in NOT_CODE:
            continue
        try:
            resolve(name)
        except (ImportError, AttributeError) as exc:
            broken.append(f"{name}: {exc}")
    assert not broken, f"{doc} names code that does not exist:\n  " + "\n  ".join(broken)


def test_not_code_entries_are_used():
    stale = set(NOT_CODE) - {name for _doc, name in references()}
    assert not stale, f"NOT_CODE lists names no doc uses: {sorted(stale)}"
