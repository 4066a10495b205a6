"""Atomicity (DDS101/DDS102) and yield-point coverage (DDS201) checks.

The checks walk every method of every class in a *shared* module and
collect the statements that mutate state reachable from ``self``:

* read-modify-write — ``self.x += 1`` and ``self.x = self.x op y``
  (DDS101): two interleaved instances lose an update;
* container mutation — ``self.items.append(...)``,
  ``self.buf[a:b] = data``, ``del self.d[k]``, including mutations
  through a local alias ``bucket = self._buckets[i]``,
  ``self._buckets.get(i)`` (or ``.setdefault``) or ``self._buckets[i]
  or ()`` (DDS102): a concurrent lock-free reader can observe a
  half-applied edit.

An access is *excused* from DDS101/DDS102 when it happens under a lock
(``with self.<...lock...>:``) or when the class declares the field in
``_DDSLINT_EXEMPT = {"field": "justification"}`` — the documented-idiom
escape hatch (single-writer fields, CAS-reserved slot ownership,
GIL-atomic deque ends).  ``__init__`` bodies are skipped entirely:
construction precedes publication.

In *instrumented* modules the same accesses additionally need a
``yield_point()`` call lexically earlier in the same function (DDS201),
whether or not they are lock-guarded — the PR 2 interleaving harness can
only explore schedules at yield points, so an uninstrumented access is a
blind spot the dynamic tests can never cover.  Lexical precedence is an
approximation of dominance that matches the repo's idiom (yield, then
touch); it is checked per function so helpers whose callers yield must
carry an inline suppression explaining the contract.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from .rules import EXEMPT_DECLARATION, Finding

__all__ = [
    "check_shared_state",
    "SharedAccess",
    "external_state_roots",
]

#: Method names that mutate a list/dict/set/deque in place.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "clear",
        "update",
        "add",
        "discard",
        "setdefault",
        "sort",
        "reverse",
        "rotate",
    }
)


#: Methods that hand back an element of the container they are called on.
_ELEMENT_GETTERS = frozenset({"get", "setdefault"})


@dataclass
class SharedAccess:
    """One mutation of state reachable from ``self``."""

    kind: str  # "rmw" or "container"
    attr: str  # first-level attribute on self
    line: int
    under_lock: bool


def _root_attr(
    node: ast.expr, aliases: Dict[str, str]
) -> Optional[str]:
    """First-level ``self`` attribute an expression chain is rooted at.

    ``self._buckets[i].append`` -> ``_buckets``; ``bucket[i]`` where
    ``bucket = self._buckets[i]`` -> ``_buckets``; anything not rooted
    at ``self`` (directly or through an alias) -> None.
    """
    current: ast.expr = node
    last_attr: Optional[str] = None
    while True:
        if isinstance(current, ast.Attribute):
            last_attr = current.attr
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        else:
            break
    if isinstance(current, ast.Name):
        if current.id == "self":
            return last_attr
        return aliases.get(current.id)
    return None


def _is_self_chain(node: ast.expr) -> Optional[str]:
    """Root attr if ``node`` is a pure Attribute/Subscript chain on self."""
    current: ast.expr = node
    last_attr: Optional[str] = None
    while True:
        if isinstance(current, ast.Attribute):
            last_attr = current.attr
            current = current.value
        elif isinstance(current, ast.Subscript):
            current = current.value
        else:
            break
    if isinstance(current, ast.Name) and current.id == "self":
        return last_attr
    return None


def _alias_root(value: ast.expr) -> Optional[str]:
    """Root attr a name bound to ``value`` aliases, if any.

    A pure self chain (``self._buckets[i]``), an element fetched from
    one (``self._buckets.get(i)``, ``.setdefault(i, [])``), or either
    behind ``or`` (``self._buckets[i] or ()``): a later mutation
    through the name edits the self field.
    """
    if isinstance(value, ast.BoolOp) and isinstance(value.op, ast.Or):
        for operand in value.values:
            root = _alias_root(operand)
            if root is not None:
                return root
        return None
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr in _ELEMENT_GETTERS
    ):
        return _alias_root(value.func.value)
    return _is_self_chain(value)


def _reads_self_attr(value: ast.expr, attr: str) -> bool:
    """Does ``value`` contain a read of ``self.<attr>``?"""
    for node in ast.walk(value):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == attr
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return True
    return False


def _is_lock_context(item: ast.withitem) -> bool:
    """``with self.<something-lock>:`` (the recognised lock idiom)."""
    expr = item.context_expr
    if isinstance(expr, ast.Call):  # e.g. self._lock.acquire_timeout(...)
        expr = expr.func
    return (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and "lock" in expr.attr.lower()
    )


def _yield_point_lines(fn: ast.AST) -> List[int]:
    """Line numbers of every ``yield_point(...)`` call in ``fn``."""
    lines: List[int] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name == "yield_point":
                lines.append(node.lineno)
    return lines


def external_state_roots(
    node: ast.AST, allowed: FrozenSet[str]
) -> List[Tuple[str, int]]:
    """Reads of state an expression does not own: ``(what, line)``.

    The DDS101/DDS102 root-attribute model applied to an arbitrary
    expression: every ``Name`` load and every Attribute/Subscript chain
    is attributed to its root binding, and any root outside ``allowed``
    is a touch of external (shared) state — a closure, a global, an
    object attribute.  The pushdown frontend uses this to reject
    offload-function sources that capture anything beyond their record
    parameter (verifier rule PDV302).
    """
    found: List[Tuple[str, int]] = []
    chain_roots: List[ast.Name] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            current: ast.expr = sub.value
            while isinstance(current, (ast.Attribute, ast.Subscript)):
                current = current.value
            if isinstance(current, ast.Name):
                chain_roots.append(current)
                if current.id not in allowed:
                    found.append((f"{current.id}.{sub.attr}", sub.lineno))
    roots = set(map(id, chain_roots))
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Name)
            and isinstance(sub.ctx, ast.Load)
            and sub.id not in allowed
            and id(sub) not in roots
        ):
            found.append((sub.id, sub.lineno))
    return sorted(set(found), key=lambda item: (item[1], item[0]))


class _FunctionScanner:
    """Collects shared accesses from one method body."""

    def __init__(self) -> None:
        self.accesses: List[SharedAccess] = []
        self._aliases: Dict[str, str] = {}

    # -- statement dispatch --------------------------------------------
    def scan_block(
        self, stmts: Iterable[ast.stmt], lock_depth: int
    ) -> None:
        for stmt in stmts:
            self._scan_stmt(stmt, lock_depth)

    def _scan_stmt(self, stmt: ast.stmt, lock_depth: int) -> None:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            held = any(_is_lock_context(item) for item in stmt.items)
            self.scan_block(stmt.body, lock_depth + (1 if held else 0))
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested function runs later: locks held at definition
            # time are NOT held at call time.
            self.scan_block(stmt.body, 0)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._scan_expr(stmt.test, lock_depth)
            self.scan_block(stmt.body, lock_depth)
            self.scan_block(stmt.orelse, lock_depth)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, lock_depth)
            self.scan_block(stmt.body, lock_depth)
            self.scan_block(stmt.orelse, lock_depth)
            return
        if isinstance(stmt, ast.Try):
            self.scan_block(stmt.body, lock_depth)
            for handler in stmt.handlers:
                self.scan_block(handler.body, lock_depth)
            self.scan_block(stmt.orelse, lock_depth)
            self.scan_block(stmt.finalbody, lock_depth)
            return
        self._scan_simple(stmt, lock_depth)

    # -- simple statements ---------------------------------------------
    def _scan_simple(self, stmt: ast.stmt, lock_depth: int) -> None:
        under = lock_depth > 0
        if isinstance(stmt, ast.Assign):
            self._scan_assign(stmt, under)
        elif isinstance(stmt, ast.AugAssign):
            # A bare-Name target rebinds a local (``cls <<= 1`` after
            # ``cls = self.MIN_CLASS`` copies an int) — not a shared
            # mutation.  Attribute/Subscript targets mutate in place.
            if not isinstance(stmt.target, ast.Name):
                attr = _root_attr(stmt.target, self._aliases)
                if attr is not None:
                    self._record("rmw", attr, stmt.lineno, under)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                attr = _root_attr(target, self._aliases)
                if attr is not None:
                    self._record("container", attr, stmt.lineno, under)
        self._scan_expr(stmt, under_lock_depth=lock_depth)

    def _scan_assign(self, stmt: ast.Assign, under: bool) -> None:
        targets: List[ast.expr] = []
        for target in stmt.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(target.elts)
            else:
                targets.append(target)
        for target in targets:
            if isinstance(target, ast.Subscript):
                attr = _root_attr(target, self._aliases)
                if attr is not None:
                    self._record("container", attr, stmt.lineno, under)
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                if _reads_self_attr(stmt.value, target.attr):
                    self._record("rmw", target.attr, stmt.lineno, under)
        # Alias tracking: name = <self-rooted chain> makes later
        # mutations through the name attributable to the self field.
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            root = _alias_root(stmt.value)
            name = targets[0].id
            if root is not None:
                self._aliases[name] = root
            else:
                self._aliases.pop(name, None)

    def _scan_expr(
        self, node: ast.AST, under_lock_depth: int
    ) -> None:
        """Find mutator method calls anywhere inside a statement."""
        under = under_lock_depth > 0
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in _MUTATORS:
                continue
            attr = _root_attr(func.value, self._aliases)
            if attr is not None:
                self._record("container", attr, sub.lineno, under)

    def _record(
        self, kind: str, attr: str, line: int, under_lock: bool
    ) -> None:
        self.accesses.append(SharedAccess(kind, attr, line, under_lock))


def _exempt_fields(cls: ast.ClassDef) -> Dict[str, str]:
    """Parse ``_DDSLINT_EXEMPT = {"field": "why", ...}`` if present."""
    for stmt in cls.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == EXEMPT_DECLARATION
            for t in stmt.targets
        ):
            continue
        if not isinstance(stmt.value, ast.Dict):
            return {}
        fields: Dict[str, str] = {}
        for key, value in zip(stmt.value.keys, stmt.value.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
                and value.value.strip()
            ):
                fields[key.value] = value.value
        return fields
    return {}


def _methods(
    cls: ast.ClassDef,
) -> Iterable[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt


def check_shared_state(
    tree: ast.Module,
    path: str,
    classes: FrozenSet[str],
) -> List[Finding]:
    """Run DDS101/DDS102 (shared) and DDS201 (instrumented) over a file."""
    findings: List[Finding] = []
    shared = "shared" in classes
    instrumented = "instrumented" in classes
    if not (shared or instrumented):
        return findings
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        exempt = _exempt_fields(node)
        for method in _methods(node):
            if method.name == "__init__":
                continue  # construction precedes publication
            args = method.args.posonlyargs + method.args.args
            if not args or args[0].arg != "self":
                continue
            scanner = _FunctionScanner()
            scanner.scan_block(method.body, lock_depth=0)
            if not scanner.accesses:
                continue
            yields = _yield_point_lines(method)
            for access in scanner.accesses:
                excused = access.under_lock or access.attr in exempt
                if shared and not excused:
                    rule = "DDS101" if access.kind == "rmw" else "DDS102"
                    what = (
                        "read-modify-write on"
                        if access.kind == "rmw"
                        else "non-atomic container mutation of"
                    )
                    findings.append(
                        Finding(
                            rule,
                            path,
                            access.line,
                            f"{what} shared attribute "
                            f"'{access.attr}' in "
                            f"{node.name}.{method.name} without "
                            "AtomicCounter, lock, or "
                            f"{EXEMPT_DECLARATION} entry",
                        )
                    )
                if instrumented and not any(
                    line <= access.line for line in yields
                ):
                    findings.append(
                        Finding(
                            "DDS201",
                            path,
                            access.line,
                            "shared access to "
                            f"'{access.attr}' in "
                            f"{node.name}.{method.name} has no "
                            "lexically preceding yield_point(); the "
                            "interleaving harness cannot schedule "
                            "around it",
                        )
                    )
    return findings
