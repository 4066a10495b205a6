"""The tree both censuses read: which modules define, which call.

``tests/test_settings_census.py`` and ``tests/test_caller_census.py``
parse the same files the same way.  Definitions come from
``src/repro`` less ``analysis/`` and ``concurrency/`` (test and lint
tooling); callers are everything under ``src/``, ``benchmarks/`` and
``examples/``.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
SKIPPED = ("analysis", "concurrency")
CALLERS = ("src", "benchmarks", "examples")


def _files(top):
    for base, dirs, names in os.walk(top):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(base, name)


def _parse(path):
    with open(path) as handle:
        return ast.parse(handle.read(), path)


def _name(node):
    """The last name of a callee or base class (None for an expression)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _modules():
    """``(dotted module, parsed tree)`` for every censused module."""
    for path in _files(PACKAGE):
        relative = os.path.relpath(path, PACKAGE)
        if relative.split(os.sep)[0] in SKIPPED:
            continue
        yield relative[:-3].replace(os.sep, "."), _parse(path)
