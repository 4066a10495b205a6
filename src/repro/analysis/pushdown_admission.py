"""Pushdown admission discipline checks (DDS501/DDS502).

The verified-pushdown contract (DESIGN.md §14) is that offload bytecode
reaches an execution engine only as a :class:`~repro.pushdown.verifier.
VerifiedPipeline`/``VerifiedProgram`` proof token minted by
``verify()``/``verify_program()``.  Two ways to cheat, both statically
visible in *offload*-class modules:

* **DDS501** — calling the raw interpreter (``interpret`` /
  ``interpret_pipeline`` / ``interpret_page``) with no verify-family
  call lexically earlier in the same scope.  Lexical precedence is the
  same dominance approximation DDS201 uses for ``yield_point()``:
  verify first, then execute; helpers whose callers verify must carry
  an inline suppression explaining the contract.
* **DDS502** — constructing a proof token by hand
  (``VerifiedProgram(...)`` / ``VerifiedPipeline(...)``), which forges
  the admission the verifier never granted.

The pushdown machinery itself (the interpreter, the verifier that mints
tokens, the engine that redeems them) is exempt by configuration —
see :data:`~repro.analysis.rules.OFFLOAD_EXEMPT_FILES`.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional, Sequence, Union

from .rules import Finding

__all__ = ["check_pushdown_admission"]

#: Raw execution entries DDS501 guards.
_RAW_EXEC = frozenset(
    {"interpret", "interpret_pipeline", "interpret_page"}
)

#: Verify-family calls that satisfy DDS501's precedence requirement.
_VERIFIERS = frozenset({"verify", "verify_program"})

#: Proof-token constructors only the verifier may call (DDS502).
_TOKENS = frozenset({"VerifiedProgram", "VerifiedPipeline"})

_Scope = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Module]


def _call_name(node: ast.Call) -> Optional[str]:
    """Terminal name of a call: ``f(...)`` or ``mod.attr.f(...)``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _scopes(tree: ast.Module) -> Iterator[_Scope]:
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _own_statements(scope: _Scope) -> Sequence[ast.stmt]:
    """The scope's statements, excluding nested function/class bodies."""
    own: List[ast.stmt] = []
    pending = list(scope.body)
    while pending:
        stmt = pending.pop(0)
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        own.append(stmt)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                pending.append(child)
    return own


def _calls_in(statements: Sequence[ast.stmt]) -> Iterator[ast.Call]:
    seen = set()
    for stmt in statements:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and id(node) not in seen:
                seen.add(id(node))
                yield node


def check_pushdown_admission(
    tree: ast.Module,
    path: str,
    classes: FrozenSet[str],
) -> List[Finding]:
    """Run DDS501/DDS502 over one offload-class module."""
    findings: List[Finding] = []
    if "offload" not in classes:
        return findings
    for scope in _scopes(tree):
        statements = _own_statements(scope)
        verify_lines = [
            call.lineno
            for call in _calls_in(statements)
            if _call_name(call) in _VERIFIERS
        ]
        for call in _calls_in(statements):
            name = _call_name(call)
            if name in _RAW_EXEC:
                if not any(line < call.lineno for line in verify_lines):
                    findings.append(
                        Finding(
                            "DDS501",
                            path,
                            call.lineno,
                            f"raw interpreter call {name}() with no "
                            "lexically preceding verify()/"
                            "verify_program() — offload bytecode must "
                            "pass admission before execution",
                        )
                    )
            elif name in _TOKENS:
                findings.append(
                    Finding(
                        "DDS502",
                        path,
                        call.lineno,
                        f"hand-built {name} — proof tokens are minted "
                        "only by repro.pushdown.verifier.verify*()",
                    )
                )
    return findings
