"""Rule registry and module classification for ``ddslint``.

The lint reasons about three *module classes*, mirroring the concurrency
conventions DESIGN.md documents:

* **shared** — the paper's concurrent structures, explored under real
  threads: ``structures/`` and the offload engine's context ring.
  Read-modify-write and container mutations there must go through
  :class:`~repro.structures.atomics.AtomicCounter`, a lock, or a
  documented idiom (DDS101/DDS102).
* **instrumented** — the same modules, whose accesses the deterministic
  interleaving harness must be able to schedule around: every shared
  mutation needs a lexically preceding ``yield_point()`` in the same
  function (DDS201).
* **sim** — modules driven by the discrete-event simulator (one OS
  thread of generators that switch only at ``yield``), where any
  wall-clock read, process-global randomness, or hash-salt dependence
  would make schedules and benchmark figures unreproducible
  (DDS301/DDS302/DDS303); outside the engine they also schedule only
  through its API (DDS304) and do not spawn a process just to join it
  (DDS305).

Classification is by path relative to the ``repro`` package root, so the
constants below are the single place a new module opts into a class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Set

__all__ = [
    "Finding",
    "classes_for",
    "RULES",
    "EXEMPT_DECLARATION",
]

#: Name of the class-level declaration the atomicity checks recognise:
#: ``_DDSLINT_EXEMPT = {"field": "justification", ...}`` marks fields
#: whose unguarded mutation is safe by a documented protocol (single
#: writer per field, slot ownership via CAS reservation, GIL-atomic
#: deque ends).  Justifications must be non-empty.
EXEMPT_DECLARATION = "_DDSLINT_EXEMPT"

#: Rule id -> one-line summary (kept in sync with DESIGN.md §"Static
#: analysis").
RULES: Dict[str, str] = {
    "DDS101": (
        "read-modify-write on a shared attribute outside "
        "AtomicCounter/lock/documented idiom"
    ),
    "DDS102": (
        "non-atomic container mutation on a shared attribute outside "
        "lock/copy-on-write idiom"
    ),
    "DDS201": (
        "shared access without a lexically preceding yield_point() — "
        "invisible to the interleaving harness"
    ),
    "DDS301": "wall-clock time source inside sim-driven code",
    "DDS302": "process-global randomness inside sim-driven code",
    "DDS303": (
        "hash-salt or iteration-order dependence inside sim-driven code"
    ),
    "DDS304": (
        "direct heapq use or scheduler-queue access in sim-driven code "
        "outside the engine's sanctioned scheduling API"
    ),
    "DDS305": (
        "process spawned only to be joined on the spot "
        "(yield env.process(gen())) in sim-driven code — use yield from"
    ),
    "DDS501": (
        "raw pushdown interpreter call with no lexically preceding "
        "verify()/verify_program() — offload bytecode executed without "
        "admission"
    ),
    "DDS502": (
        "hand-built VerifiedProgram/VerifiedPipeline — proof tokens "
        "are minted only by the verifier"
    ),
    "DDS601": "imported name never used in the module (any module)",
}


@dataclass(frozen=True)
class Finding:
    """One lint finding (possibly suppressed by an inline comment)."""

    rule: str
    path: str
    line: int
    message: str
    suppressed: bool = False
    justification: str = ""

    def format(self) -> str:
        tag = " [suppressed]" if self.suppressed else ""
        return f"{self.path}:{self.line}: {self.rule}{tag} {self.message}"


# Module classes by path, posix-style and relative to the ``repro``
# package root (``structures/rings.py``); prefixes match whole
# directories.
#: Shared modules are also instrumented: the code explored under real
#: threads is exactly the code the interleaving harness schedules.
SHARED_PREFIXES = ("structures/",)
SHARED_FILES = ("core/offload_engine.py",)
SIM_PREFIXES = (
    "sim/",
    "hardware/",
    "net/",
    "baselines/",
    "core/",
    "topology/",
    "faults/",
    "workload/",
)
#: Files inside sim prefixes that *implement* the blessed idioms and
#: are therefore exempt from the determinism rules (the seeded RNG
#: wrapper is allowed to touch :mod:`random`).
SIM_EXEMPT_FILES = ("sim/rng.py",)
#: The engine itself: the only sim module allowed to own event-queue
#: mechanics (``heapq``, the ready deque, the sequence counter).
#: Everything else in a sim prefix must schedule through the
#: engine's API (``env.timeout`` / ``succeed`` / ``process`` / a yielded
#: instant) so the hot path stays in one optimizable place (DDS304,
#: DESIGN.md §11).
SCHEDULER_FILES = ("sim/engine.py",)
#: Modules that host or dispatch offload programs: raw interpreter
#: calls need a preceding verify (DDS501) and proof tokens must come
#: from the verifier (DDS502, DESIGN.md §14).
OFFLOAD_PREFIXES = ("pushdown/",)
#: ... and the two modules outside the package that execute them:
#: the per-shard stage redeems tokens, the sharded server runs
#: refused programs on the host.
OFFLOAD_FILES = (
    "topology/stages.py",
    "topology/sharding.py",
)
#: The pushdown machinery itself — the interpreter (calls itself),
#: the verifier (mints the tokens), and the engine (the sanctioned
#: redeemer) — is where the admission discipline is *implemented*,
#: so the rules do not apply to it.
OFFLOAD_EXEMPT_FILES = (
    "pushdown/interp.py",
    "pushdown/verifier.py",
    "pushdown/engine.py",
)


def classes_for(relpath: str) -> FrozenSet[str]:
    """The lint classes a module (path relative to repro/) is in."""
    classes: Set[str] = set()
    if relpath.startswith(SHARED_PREFIXES) or relpath in SHARED_FILES:
        classes.update(("shared", "instrumented"))
    if relpath.startswith(SIM_PREFIXES) and relpath not in SIM_EXEMPT_FILES:
        classes.add("sim")
        if relpath not in SCHEDULER_FILES:
            classes.add("sim_hot")
    if (
        relpath.startswith(OFFLOAD_PREFIXES)
        and relpath not in OFFLOAD_EXEMPT_FILES
    ) or relpath in OFFLOAD_FILES:
        classes.add("offload")
    return frozenset(classes)
