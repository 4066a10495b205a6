"""Code references in the docs resolve.

Every backticked dotted name in README.md, DESIGN.md and EXPERIMENTS.md
whose head is a ``repro`` subpackage or module (``hardware.specs.DPU_CPU``,
``repro.sim.engine.Environment``) must import and ``getattr``-resolve, and
every bare backticked UPPER_SNAKE name (``HOST_OS_TCP``) must be assigned
at module level or in a class body somewhere in ``src/repro``, so a
renamed or deleted definition cannot stay in the docs.  The e2e tracer's
metric and span names share that shape without being code; they are
listed in :data:`NOT_CODE`.

Every backticked repository path (``benchmarks/e2e/run.py``,
``sim/engine.py``, ``tests/test_sim_engine.py::test_timeout_advances_clock``)
must exist too, under the repository root or one of :data:`PATH_BASES`;
a bare file name may live anywhere in the tree, and a ``::name`` suffix
must be a name the file defines or mentions.

Every ``python -m X`` command in those docs, inline or in a fenced
block, must name a module that imports and has an entry point: a
package's ``__main__.py`` or a module's ``if __name__ == "__main__"``
guard.

No source file cites a ROADMAP item: the roadmap renumbers its items
when it is re-anchored, so such a citation goes stale.
"""

import ast
import fnmatch
import glob
import importlib
import importlib.util
import os
import re

import pytest

from .census_tree import PACKAGE, ROOT, _files, _parse

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
    "TYPE_CHECKING": "typing's import-time flag, not a repro name",
}

_HEADS = sorted(
    name[:-3] if name.endswith(".py") else name
    for name in os.listdir(PACKAGE)
    if not name.startswith("__")
    and (name.endswith(".py") or os.path.isdir(os.path.join(PACKAGE, name)))
)
_SPANS = re.compile(r"`([^`\n]+)`")
#: A dotted name not inside a path (``src/repro/sim/engine.py``).
_DOTTED = re.compile(
    r"(?<![\w./-])(?:repro\.)?((?:%s)(?:\.[A-Za-z_]\w*)+)" % "|".join(_HEADS)
)
#: A bare constant name: not part of a dotted name, a word or a call.
_CONSTANT = re.compile(r"(?<![\w.])([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+)(?![\w.(])")


def references():
    """``(doc, name)`` for every code-shaped reference: dotted names and
    bare constant names."""
    found = set()
    for doc in DOCS:
        with open(os.path.join(ROOT, doc)) as handle:
            text = handle.read()
        for span in _SPANS.findall(text):
            for pattern in (_DOTTED, _CONSTANT):
                found.update((doc, m.group(1)) for m in pattern.finditer(span))
    return sorted(found)


def constants():
    """Every name assigned at module level or in a class body in src/repro."""
    names = set()

    def visit(body):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                names.update(
                    leaf.id for target in targets for leaf in ast.walk(target)
                    if isinstance(leaf, ast.Name)
                )

    for path in _files(PACKAGE):
        visit(_parse(path).body)
    return names


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


#: Where a relative path in the docs may start, besides the root: the
#: package (``sim/engine.py``), ``src/`` and the benchmark, example and
#: test directories.
PATH_BASES = (
    "", "src", os.path.join("src", "repro"), "benchmarks",
    os.path.join("benchmarks", "e2e"), os.path.join("benchmarks", "results"),
    "examples", "tests", os.path.join("tests", "fixtures"),
)
#: A file path (an extension) or a directory path (a slash), optionally
#: with ``::`` names after it; ``*`` globs.  Placeholders (``<name>``)
#: and slash-separated lists of upper-case words are not paths.
_PATH = re.compile(
    r"([\w.*/-]+?(?:\.(?:py|md|json|txt|sh|toml)|/|/[\w*-]+))((?:::[\w*]+)*)"
)


def _tree_files():
    """Every file of the repository, relative to the root."""
    found = []
    for base, dirs, names in os.walk(ROOT):
        dirs[:] = [d for d in dirs if not d.startswith(".") and d != "__pycache__"]
        found.extend(
            os.path.relpath(os.path.join(base, name), ROOT) for name in names
        )
    return found


def path_references():
    """``(doc, path, names)`` for every backticked span that is one path."""
    found = set()
    for doc in DOCS:
        for span in _SPANS.findall(_text(os.path.join(ROOT, doc))):
            match = _PATH.fullmatch(span)
            if match and re.search("[a-z]", match.group(1)):
                found.add((doc, match.group(1), match.group(2)))
    return sorted(found)


def _text(path):
    with open(path) as handle:
        return handle.read()


def locate(path, files):
    """The files or directories a doc path names (empty if none)."""
    hits = []
    for base in PATH_BASES:
        hits.extend(glob.glob(os.path.join(ROOT, base, path)))
    if not hits and "/" not in path:
        hits = [
            os.path.join(ROOT, name) for name in files
            if fnmatch.fnmatch(os.path.basename(name), path)
        ]
    return hits


def test_the_docs_name_code():
    names = {name for _doc, name in references()}
    assert len(names) > 50
    assert "storage.disk.SpdkBdev" in names
    assert "sim.calls" in names
    assert "HOST_OS_TCP" in names


@pytest.mark.parametrize("doc", DOCS)
def test_every_code_reference_resolves(doc):
    broken = []
    defined = constants()
    for where, name in references():
        if where != doc or name in NOT_CODE:
            continue
        if "." not in name:
            if name not in defined:
                broken.append(f"{name}: assigned nowhere in src/repro")
            continue
        try:
            resolve(name)
        except (ImportError, AttributeError) as exc:
            broken.append(f"{name}: {exc}")
    assert not broken, f"{doc} names code that does not exist:\n  " + "\n  ".join(broken)


_ROADMAP_ITEM = re.compile(r"ROADMAP[\s#]*items?\s*\d+")


def test_no_source_cites_a_roadmap_item():
    cited = [
        f"{os.path.relpath(path, ROOT)}: {match.group(0)!r}"
        for path in _files(PACKAGE)
        for match in _ROADMAP_ITEM.finditer(_text(path))
    ]
    assert not cited, "ROADMAP item numbers go stale:\n  " + "\n  ".join(cited)


def test_not_code_entries_are_used():
    stale = set(NOT_CODE) - {name for _doc, name in references()}
    assert not stale, f"NOT_CODE lists names no doc uses: {sorted(stale)}"


def test_the_docs_name_paths():
    paths = {path for _doc, path, _names in path_references()}
    assert len(paths) > 100
    assert {"sim/engine.py", "benchmarks/e2e", "benchmarks/results/*.txt"} <= paths
    assert not {"LOOP/END", "/"} & paths


@pytest.mark.parametrize("doc", DOCS)
def test_every_path_exists(doc):
    files = _tree_files()
    broken = []
    for where, path, names in path_references():
        if where != doc:
            continue
        hits = locate(path, files)
        if not hits:
            broken.append(f"{path}: no such file or directory")
            continue
        for name in filter(None, names.split("::")):
            pattern = re.compile(r"\b%s\b" % re.escape(name).replace(r"\*", r"\w*"))
            if not any(
                os.path.isfile(hit) and pattern.search(_text(hit)) for hit in hits
            ):
                broken.append(f"{path}::{name}: not in {path}")
    assert not broken, f"{doc} names paths that do not exist:\n  " + "\n  ".join(broken)


_PYTHON_M = re.compile(r"\bpython3?\s+-m\s+([A-Za-z_][\w.]*)")
_MAIN_GUARD = re.compile(r"""^if __name__ == ["']__main__["']\s*:""", re.M)


def module_commands(text):
    """The module of every ``python -m`` command in ``text``."""
    return sorted(set(_PYTHON_M.findall(text)))


def entry_point_problem(module):
    """Why ``python -m module`` cannot run, or None if it can."""
    try:
        importlib.import_module(module)
    except ImportError as exc:
        return f"does not import ({exc})"
    spec = importlib.util.find_spec(module)
    if spec.submodule_search_locations is not None:
        if importlib.util.find_spec(module + ".__main__") is None:
            return "a package without __main__.py"
        return None
    source = spec.loader.get_source(module)
    if source is None or not _MAIN_GUARD.search(source):
        return 'no `if __name__ == "__main__"` guard'
    return None


def test_module_commands_are_checked():
    text = (
        "Run `python -m repro.bench.figurez fig14`, then\n"
        "```\npython3 -m\n  pytest -q\n```"
    )
    assert module_commands(text) == ["pytest", "repro.bench.figurez"]
    assert "does not import" in entry_point_problem("repro.bench.figurez")
    assert entry_point_problem("repro.bench") == "a package without __main__.py"
    assert "guard" in entry_point_problem("repro.bench.harness")
    assert entry_point_problem("repro.bench.figures") is None
    assert entry_point_problem("repro.analysis") is None


@pytest.mark.parametrize("doc", DOCS)
def test_every_python_m_command_runs(doc):
    broken = []
    for module in module_commands(_text(os.path.join(ROOT, doc))):
        problem = entry_point_problem(module)
        if problem:
            broken.append(f"python -m {module}: {problem}")
    assert not broken, f"{doc} runs modules that cannot run:\n  " + "\n  ".join(broken)
