"""``ddslint``: concurrency-aware static analysis + race sanitizer.

The DDS datapath's correctness rests on conventions — atomic accesses
through :class:`~repro.structures.atomics.AtomicCounter`, copy-on-write
container edits, ``yield_point()`` instrumentation at every shared
access, and seeded determinism in sim-driven code.  PR 2's interleaving
harness checks executions; this package checks the *conventions
themselves*, statically, so the dynamic tests provably see what they
need to see.

Three layers:

* the AST lint (:mod:`repro.analysis.shared_state`,
  :mod:`repro.analysis.determinism`) with rules DDS101/DDS102
  (atomicity), DDS201 (yield-point coverage), DDS301-DDS303
  (DES determinism);
* the driver (:mod:`repro.analysis.driver`) — run it as
  ``python -m repro.analysis [paths]`` or the ``ddslint`` script; exit
  0 means the tree is clean or explicitly baselined;
* the runtime lockset/happens-before sanitizer
  (:mod:`repro.analysis.sanitizer`, rule DDS401), which piggybacks on
  the same ``yield_point`` hook during stress tests.

See DESIGN.md §"Static analysis" for rule semantics and the
suppression syntax.
"""

from .determinism import check_determinism
from .driver import lint_file, lint_source, lint_tree, main
from .pushdown_admission import check_pushdown_admission
from .rules import RULES, Finding, classes_for
from .sanitizer import (
    AccessEvent,
    LocksetSanitizer,
    RaceReport,
    TrackedLock,
)
from .shared_state import check_shared_state

__all__ = [
    "AccessEvent",
    "Finding",
    "LocksetSanitizer",
    "RULES",
    "RaceReport",
    "TrackedLock",
    "check_determinism",
    "check_pushdown_admission",
    "check_shared_state",
    "classes_for",
    "lint_file",
    "lint_source",
    "lint_tree",
    "main",
]
