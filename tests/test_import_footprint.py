"""A process loads only what it runs.

The end-to-end benchmark's children and every harness process import
``repro``; a module nothing on their path executes must not be loaded
there.  Each check runs a fresh interpreter, because this test process
has long since imported everything.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
E2E = os.path.join(ROOT, "benchmarks", "e2e")

#: The packages whose ``__init__`` loads some names on first use.
FACADES = ("repro.concurrency", "repro.core", "repro.net", "repro.pushdown")

#: The submodules those façades load only on first use.
LAZY_SUBMODULES = (
    "repro.concurrency.scheduler",
    "repro.concurrency.explore",
    "repro.net.tcp",
    "repro.net.pep",
    "repro.pushdown.frontend",
)

#: Test-time tools and helpers no benchmark workload executes.
NOT_ON_THE_RUN_PATH = (
    "_hashlib",  # OpenSSL's libcrypto, for a digest built into CPython
    "asyncio",
    "unittest.mock",
    "repro.analysis",
    *LAZY_SUBMODULES,
)


def _exporting_packages() -> list:
    """Every ``repro`` package whose ``__init__`` declares ``__all__``
    (``repro.topology`` deliberately exports nothing)."""
    packages = []
    for base, _dirs, names in sorted(os.walk(os.path.join(ROOT, "src", "repro"))):
        if "__init__.py" not in names:
            continue
        with open(os.path.join(base, "__init__.py")) as handle:
            tree = ast.parse(handle.read())
        if any(
            isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)
            for node in tree.body
        ):
            relative = os.path.relpath(base, os.path.join(ROOT, "src"))
            packages.append(relative.replace(os.sep, "."))
    return packages


EXPORTING = _exporting_packages()


def _loaded_after(statements: str) -> set:
    """Module names a fresh interpreter holds after ``statements``."""
    code = statements + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, timeout=60, env=env, cwd=ROOT,
    ).stdout
    return set(json.loads(out))


def _repro_imports(path: str) -> str:
    """The module-level ``repro`` imports of one benchmark file."""
    with open(path) as handle:
        tree = ast.parse(handle.read())
    return "\n".join(
        ast.unparse(node) for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "repro"
    )


def _offenders(loaded: set, forbidden) -> list:
    return sorted(
        name for name in loaded
        if any(name == bad or name.startswith(bad + ".") for bad in forbidden)
    )


def test_benchmark_workloads_load_nothing_they_do_not_run():
    statements = "\n".join(
        _repro_imports(os.path.join(E2E, name))
        for name in ("workloads.py", "probes.py")
    )
    assert "repro.topology.registry" in statements  # the parse found them
    loaded = _loaded_after(statements)
    assert _offenders(loaded, NOT_ON_THE_RUN_PATH) == []
    assert "repro.digest" in loaded


def test_harness_import_loads_neither_openssl_nor_asyncio():
    loaded = _loaded_after("import repro.bench")
    assert _offenders(loaded, ("_hashlib", "asyncio", "unittest.mock")) == []


def test_every_facade_declares_its_exports():
    assert set(FACADES) <= set(EXPORTING)
    assert "repro.topology" not in EXPORTING


@pytest.mark.parametrize("package", EXPORTING)
def test_every_exported_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listing = dir(module)
    for name in module.__all__:
        scope = {}
        exec(f"from {package} import {name}", scope)
        assert scope[name] is getattr(module, name)
        assert name in listing
    assert listing == sorted(listing)


def test_lazy_names_load_on_first_use_in_a_fresh_process():
    loaded = _loaded_after(
        "import repro.concurrency, repro.net, repro.pushdown"
    )
    assert _offenders(loaded, LAZY_SUBMODULES) == []
    loaded = _loaded_after("from repro.net import TcpSender")
    assert "repro.net.tcp" in loaded


def test_the_checker_hears_the_stream_without_loading_the_replicator():
    """Every e2e child imports ``repro.faults``; the checker needs the
    event types, not the protocol that emits them."""
    loaded = _loaded_after("import repro.faults")
    assert "repro.topology.events" in loaded
    assert "repro.topology.replication" not in loaded


@pytest.mark.parametrize("package", FACADES)
def test_unknown_attribute_names_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"{package!r}.*'no_such_name'"):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name", {})
