"""The ``ddslint`` driver: file discovery, suppressions, reporting.

Run as ``python -m repro.analysis [paths...]`` (defaults to the
installed ``repro`` package) or through the ``ddslint`` console script.
Exit status 0 means every finding is either absent or explicitly
suppressed; 1 means unsuppressed findings; 2 means a file failed to
parse.

Suppression syntax (both forms require a justification after ``--``):

* inline, on the reported line or the line directly above::

      self._head += 1  # ddslint: disable=DDS101 -- single consumer

* file-level, in the first 10 lines::

      # ddslint: disable-file=DDS301 -- replay tool, wall clock is data

Suppressed findings are retained (``Finding.suppressed = True``) so the
test tier can assert the baseline inventory instead of silently
trusting it; ``--show-suppressed`` prints them.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .determinism import check_determinism
from .pushdown_admission import check_pushdown_admission
from .rules import Finding, classes_for
from .shared_state import check_shared_state
from .unused_imports import check_unused_imports

__all__ = [
    "lint_source",
    "lint_file",
    "lint_tree",
    "iter_python_files",
    "main",
]

_INLINE_RE = re.compile(
    r"#\s*ddslint:\s*disable=([A-Z0-9,\s]+?)"
    r"(?:\s*--\s*(?P<why>.*))?\s*$"
)
_FILE_RE = re.compile(
    r"#\s*ddslint:\s*disable-file=([A-Z0-9,\s]+?)"
    r"(?:\s*--\s*(?P<why>.*))?\s*$"
)


def _parse_rules(raw: str) -> FrozenSet[str]:
    return frozenset(
        rule.strip() for rule in raw.split(",") if rule.strip()
    )


def _suppressions(
    source_lines: List[str],
) -> Tuple[Dict[int, Tuple[FrozenSet[str], str]], Dict[str, str]]:
    """(per-line suppressions, file-level suppressions with reasons)."""
    by_line: Dict[int, Tuple[FrozenSet[str], str]] = {}
    file_wide: Dict[str, str] = {}
    for index, line in enumerate(source_lines, start=1):
        match = _INLINE_RE.search(line)
        if match:
            why = (match.group("why") or "").strip()
            by_line[index] = (_parse_rules(match.group(1)), why)
        if index <= 10:
            fmatch = _FILE_RE.search(line)
            if fmatch:
                why = (fmatch.group("why") or "").strip()
                for rule in _parse_rules(fmatch.group(1)):
                    file_wide[rule] = why
    return by_line, file_wide


def _apply_suppressions(
    findings: List[Finding], source_lines: List[str]
) -> List[Finding]:
    by_line, file_wide = _suppressions(source_lines)
    result: List[Finding] = []
    for finding in findings:
        why: Optional[str] = None
        if finding.rule in file_wide:
            why = file_wide[finding.rule]
        else:
            for line in (finding.line, finding.line - 1):
                entry = by_line.get(line)
                if entry and finding.rule in entry[0]:
                    why = entry[1]
                    break
        if why is not None:
            result.append(
                Finding(
                    finding.rule,
                    finding.path,
                    finding.line,
                    finding.message,
                    suppressed=True,
                    justification=why,
                )
            )
        else:
            result.append(finding)
    return result


def lint_source(
    source: str,
    path: str,
    classes: FrozenSet[str],
) -> List[Finding]:
    """Lint one module's source under explicit class membership."""
    tree = ast.parse(source, filename=path)
    findings = check_shared_state(tree, path, classes)
    findings += check_determinism(tree, path, classes)
    findings += check_pushdown_admission(tree, path, classes)
    findings += check_unused_imports(tree, path)
    findings.sort(key=lambda f: (f.line, f.rule))
    return _apply_suppressions(findings, source.splitlines())


def _relative_module_path(path: Path, root: Path) -> str:
    """Posix path relative to the repro package root, best effort.

    Anchors on the last ``repro`` package directory in the path, so
    ``src/repro/structures/rings.py`` classifies as
    ``structures/rings.py`` whether the lint root is ``src``,
    ``src/repro``, or the file itself.
    """
    parts = path.resolve().parts
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[anchor + 1:])
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.name


def lint_file(path: Path, root: Path) -> List[Finding]:
    """Lint one file, classifying it by its path under ``root``."""
    relpath = _relative_module_path(path, root)
    classes = classes_for(relpath)
    source = path.read_text(encoding="utf-8")
    return lint_source(source, str(path), classes)


def iter_python_files(root: Path) -> Iterable[Path]:
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        yield path


def lint_tree(root: Path) -> List[Finding]:
    """Lint every Python file under ``root``."""
    findings: List[Finding] = []
    for path in iter_python_files(root):
        findings.extend(lint_file(path, root))
    return findings


def _default_root() -> Path:
    """The installed ``repro`` package directory."""
    return Path(__file__).resolve().parents[1]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ddslint",
        description=(
            "Concurrency-aware static analysis for the DDS "
            "reproduction: atomicity discipline, yield-point "
            "coverage, and DES determinism."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print findings silenced by ddslint comments",
    )
    args = parser.parse_args(argv)
    roots = args.paths or [_default_root()]

    active: List[Finding] = []
    suppressed: List[Finding] = []
    for root in roots:
        if not root.exists():
            print(f"ddslint: no such path: {root}", file=sys.stderr)
            return 2
        try:
            findings = lint_tree(root)
        except SyntaxError as exc:
            print(f"ddslint: parse error: {exc}", file=sys.stderr)
            return 2
        for finding in findings:
            (suppressed if finding.suppressed else active).append(
                finding
            )

    for finding in active:
        print(finding.format())
    if args.show_suppressed:
        for finding in suppressed:
            print(
                f"{finding.format()}"
                f" -- {finding.justification or '(no justification)'}"
            )
    print(
        f"ddslint: {len(active)} finding(s), "
        f"{len(suppressed)} suppressed"
    )
    return 1 if active else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
