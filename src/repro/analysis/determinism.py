"""DES-determinism checks (DDS301–DDS305) for sim-driven code.

Every experiment in this repo is supposed to be a pure function of its
configuration and seed (DESIGN.md §4, ``sim/rng.py``): re-running a
bench reproduces its figure byte-for-byte, and the interleaving harness
can replay any schedule from a seed.  Three classes of construct break
that contract when they leak into sim-driven modules:

* **DDS301 — wall-clock time**: ``time.time()``, ``monotonic()``,
  ``perf_counter()``, ``sleep()``, ``datetime.now()`` … simulated time
  comes only from the event loop (``env.now``).
* **DDS302 — process-global randomness**: module-level ``random.*``
  draws share one unseeded global stream; any entropy source
  (``os.urandom``, ``uuid.uuid4``) is worse.  Models must draw from a
  :class:`~repro.sim.rng.SeededRng` handed down by the harness
  (instantiating ``random.Random(seed)`` is therefore allowed).
* **DDS303 — hash-salt / iteration-order dependence**: the builtin
  ``hash()`` is salted per process (PYTHONHASHSEED), so anything
  derived from it — including ``set`` iteration order — differs between
  runs.  Use a keyed digest (``repro.digest.blake2b``) or ``sorted()``.
* **DDS304 — scheduling-API bypass**: only the engine
  (``sim/engine.py``) may own event-queue mechanics.  A model that
  imports ``heapq`` or pokes the engine's private queues (``_heap``,
  ``_ready``, ``_eid``) sidesteps the same-tick ready deque and the
  ``(time, seq)`` total order that DESIGN.md §11's fast path — and
  every byte-identical golden — depends on.  Wall-clock reads in the
  same hot paths are already DDS301 findings.
* **DDS305 — spawn-and-join**: ``yield env.process(gen(...))`` starts
  a process only to wait for it on the spot: a ``Process`` object and
  two sequence numbers (its bootstrap and its completion) where
  ``yield from gen(...)`` costs none and lands on the same instant.
  A hop kept on purpose, because it decides a same-instant tie the
  figures depend on, carries a justified suppression.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional

from .rules import Finding

__all__ = ["check_determinism"]

_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "sleep",
    }
)
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})
_ENTROPY = {
    ("os", "urandom"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
    ("secrets", "token_bytes"),
    ("secrets", "token_hex"),
    ("secrets", "randbelow"),
}
#: random.* attributes that are fine: seeded-generator construction.
_RANDOM_OK = frozenset({"Random"})
#: Engine-private scheduler state (DDS304): models must not touch these.
_SCHEDULER_PRIVATE = frozenset({"_heap", "_ready", "_eid"})


def _import_table(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin for imports we care about."""
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                table[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return table


def _call_origin(
    call: ast.Call, imports: Dict[str, str]
) -> Optional[str]:
    """Dotted origin of a call (``time.monotonic``), if resolvable."""
    func = call.func
    if isinstance(func, ast.Name):
        return imports.get(func.id, None)
    parts: List[str] = []
    current: ast.expr = func
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    base = imports.get(current.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def _spawns_and_joins(node: ast.Yield) -> bool:
    """``yield <...>env.process(<call>)``: a process joined on the spot."""
    call = node.value
    if not (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "process"
        and len(call.args) == 1
        and isinstance(call.args[0], ast.Call)
    ):
        return False
    owner = call.func.value
    name = owner.attr if isinstance(owner, ast.Attribute) else (
        owner.id if isinstance(owner, ast.Name) else None
    )
    return name == "env"


def check_determinism(
    tree: ast.Module,
    path: str,
    classes: FrozenSet[str],
) -> List[Finding]:
    """Run DDS301–DDS305 over one sim-driven module."""
    findings: List[Finding] = []
    if "sim" not in classes:
        return findings
    imports = _import_table(tree)
    guard_scheduler = "sim_hot" in classes

    def report(rule: str, line: int, message: str) -> None:
        findings.append(Finding(rule, path, line, message))

    for node in ast.walk(tree):
        if guard_scheduler:
            if isinstance(node, ast.Import) and any(
                alias.name == "heapq" or alias.name.startswith("heapq.")
                for alias in node.names
            ):
                report(
                    "DDS304",
                    node.lineno,
                    "direct heapq import outside the engine: schedule "
                    "through env.timeout/succeed/process so the hot "
                    "path stays in sim/engine.py",
                )
            elif isinstance(node, ast.ImportFrom) and (
                node.module == "heapq"
            ):
                report(
                    "DDS304",
                    node.lineno,
                    "direct heapq import outside the engine: schedule "
                    "through env.timeout/succeed/process so the hot "
                    "path stays in sim/engine.py",
                )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in _SCHEDULER_PRIVATE
            ):
                report(
                    "DDS304",
                    node.lineno,
                    f"access to engine-private scheduler state "
                    f".{node.attr}: use the engine's public "
                    "scheduling API",
                )
            elif isinstance(node, ast.Yield) and _spawns_and_joins(node):
                report(
                    "DDS305",
                    node.lineno,
                    "spawn-and-join: yield env.process(gen(...)) costs a "
                    "Process and two sequence numbers; call the layer "
                    "below with `yield from gen(...)`",
                )
        if isinstance(node, ast.Call):
            origin = _call_origin(node, imports)
            if origin is not None:
                dotted = origin.split(".")
                if dotted[0] == "time" and dotted[-1] in _TIME_FUNCS:
                    report(
                        "DDS301",
                        node.lineno,
                        f"wall-clock call {origin}(): simulated time "
                        "must come from env.now / env.timeout",
                    )
                elif (
                    "datetime" in dotted
                    and dotted[-1] in _DATETIME_FUNCS
                ):
                    report(
                        "DDS301",
                        node.lineno,
                        f"wall-clock call {origin}() inside sim-driven "
                        "code",
                    )
                elif (
                    dotted[0] == "random"
                    and len(dotted) > 1
                    and dotted[-1] not in _RANDOM_OK
                ):
                    report(
                        "DDS302",
                        node.lineno,
                        f"process-global randomness {origin}(): draw "
                        "from the harness-provided SeededRng instead",
                    )
                elif (dotted[0], dotted[-1]) in _ENTROPY:
                    report(
                        "DDS302",
                        node.lineno,
                        f"entropy source {origin}() makes runs "
                        "unreproducible",
                    )
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id == "hash"
                and func.id not in imports
            ):
                report(
                    "DDS303",
                    node.lineno,
                    "builtin hash() is PYTHONHASHSEED-salted: derived "
                    "values differ between runs (use repro.digest.blake2b "
                    "or a splitmix64 mix)",
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            iter_expr = node.iter
            is_set_literal = isinstance(iter_expr, ast.Set)
            is_set_call = (
                isinstance(iter_expr, ast.Call)
                and isinstance(iter_expr.func, ast.Name)
                and iter_expr.func.id in {"set", "frozenset"}
            )
            if is_set_literal or is_set_call:
                report(
                    "DDS303",
                    node.lineno,
                    "iterating a set: order depends on the per-process "
                    "hash salt (wrap in sorted())",
                )
    return findings
