"""Unused-import check (DDS601): what pyflakes would say, in-tree.

ruff is not installable in the development sandbox, so the one pyflakes
finding a refactor reliably produces — an import left behind by deleted
code — gets a rule here.  A name bound by ``import`` / ``from … import``
counts as used when it appears as a name anywhere in the module, inside
a string annotation (the ``if TYPE_CHECKING:`` idiom), or in
``__all__``.  ``__init__.py`` files are skipped: their imports are the
package's re-exports.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set

from .rules import Finding

__all__ = ["check_unused_imports"]

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _quoted_names(tree: ast.Module) -> Iterator[str]:
    """Identifiers inside string annotations and ``__all__``."""
    roots: List[Optional[ast.AST]] = []
    for node in ast.walk(tree):
        roots.append(getattr(node, "annotation", None))
        roots.append(getattr(node, "returns", None))
        targets = getattr(node, "targets", [getattr(node, "target", None)])
        if any(getattr(target, "id", None) == "__all__" for target in targets):
            roots.append(getattr(node, "value", None))
    for root in filter(None, roots):
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield from _IDENTIFIER.findall(node.value)


def check_unused_imports(tree: ast.Module, path: str) -> List[Finding]:
    """Run DDS601 over one module, whatever its lint classes."""
    if path.endswith("__init__.py"):
        return []
    used: Set[str] = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    used.update(_quoted_names(tree))
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in used:
                findings.append(
                    Finding(
                        "DDS601",
                        path,
                        alias.lineno,
                        f"'{bound}' imported but never used in the module",
                    )
                )
    return findings
