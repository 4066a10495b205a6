"""Every definition has a caller.

A *definition* is a public name in ``src/repro`` (``analysis/`` and
``concurrency/`` are test and lint tooling, so they are skipped): a
module-level function or class, a method or property of a public class,
or an upper-case module- or class-level constant.

The census counts a definition as reached when its name appears in
``src/``, ``benchmarks/`` (``e2e`` included) or ``examples/`` as a name,
an attribute, or an identifier string (which catches ``getattr`` and
``hasattr`` probes).  An appearance inside the name's own definition, in
an ``__all__`` list or among a package ``__init__``'s re-exported names
does not count.  Names are matched alone, so two definitions that share
one pool their uses: a collision can hide an unused definition, never
flag a used one.  Every unreached definition must be listed in
:data:`ALLOWED` with the reason it stays.
"""

import ast
import os

import pytest

from .census_tree import CALLERS, ROOT, _files, _modules, _parse

pytestmark = pytest.mark.ddslint

_FILE_API = "§4.3's file API (flat directories, files over segments)"
_GATHER = (
    "§4.3's file API: DESIGN §2's FileLibrary row lists gather/scatter"
)
_DURABLE = (
    "safety: the device-timed metadata flush that the torn-write "
    "recovery tests drive"
)
_WINDOW = (
    "invariant wiring: the chaos tier opens and closes the overload "
    "window that OL1 samples goodput in"
)
_PEP = (
    "§5.2: TCP splitting ends the client's connection at the DPU, so the "
    "host's responses and the client's ACKs for them arrive at the proxy"
)

#: Unreached definitions that stay, each with its reason.
ALLOWED = {
    "core.file_library:DdsFileLibrary.read_scatter": _GATHER,
    "core.file_library:DdsFileLibrary.write_gather": _GATHER,
    "faults.invariants:InvariantChecker.set_slo": (
        "invariant wiring: only the chaos tier declares tenant SLOs (OL2)"
    ),
    "faults.invariants:InvariantChecker.begin_overload_window": _WINDOW,
    "faults.invariants:InvariantChecker.end_overload_window": _WINDOW,
    "net.pep:TcpSplittingPep.on_client_ack": _PEP,
    "net.pep:TcpSplittingPep.on_host_response_segment": _PEP,
    "pushdown.isa:field_filter": "README's documented pushdown example",
    "sim.trace:EventLog": (
        "the event-trace hook that ROADMAP item 1B's typed events replace"
    ),
    "storage.filesystem:DdsFileSystem.delete_file": _FILE_API,
    "storage.filesystem:DdsFileSystem.list_directory": _FILE_API,
    "storage.filesystem:DdsFileSystem.flush_metadata": _DURABLE,
    "storage.filesystem:DdsFileSystem.serialize_metadata": _DURABLE,
    "storage.filesystem:DdsFileSystem.metadata_seq": (
        "safety: the sequence number recovery picks the newer metadata "
        "slot by; the torn-write tests aim at the slot after it"
    ),
    "storage.layout:SegmentAllocator.free_segments": (
        "conservation accessor: the segment-leak and recovery invariant "
        "tests count free segments"
    ),
    "structures.memory:BufferPool.bytes_available": (
        "conservation accessor: the buffer-pool invariant tests check "
        "that leases return every byte"
    ),
}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _bound(node):
    """Names whose definition ``node`` is: a def, a class or an assignment."""
    if isinstance(node, _DEFS):
        return {node.name}
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    return {target.id for target in targets if isinstance(target, ast.Name)}


def _public(node):
    """The public functions, classes and upper-case constants ``node`` defines."""
    return sorted(
        name for name in _bound(node)
        if not name.startswith("_") and (isinstance(node, _DEFS) or name.isupper())
    )


def definitions():
    """``(label, name)`` for every censused definition."""
    for module, tree in _modules():
        for node in tree.body:
            for name in _public(node):
                yield f"{module}:{name}", name
            if not (isinstance(node, ast.ClassDef) and _public(node)):
                continue
            for item in node.body:
                if not isinstance(item, ast.ClassDef):
                    for name in _public(item):
                        yield f"{module}:{node.name}.{name}", name


def _use(node, reexports):
    """The name ``node`` refers to, if any."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.isidentifier()
        and not reexports  # a package __init__'s strings re-export names
    ):
        return node.value
    return None


def reached():
    """Every name the caller trees use."""
    names = set()

    def visit(node, own, reexports):
        bound = _bound(node)
        if "__all__" in bound:
            return
        own = own | bound
        name = _use(node, reexports)
        if name is not None and name not in own:
            names.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own, reexports)

    for top in CALLERS:
        for path in _files(os.path.join(ROOT, top)):
            visit(_parse(path), frozenset(), path.endswith("__init__.py"))
    return names


def unreached():
    used = reached()
    return sorted(label for label, name in definitions() if name not in used)


def test_the_census_sees_the_tree():
    labels = [label for label, _name in definitions()]
    assert len(labels) > 800
    assert "storage.filesystem:DdsFileSystem.write" in labels
    assert "hardware.specs:NVME_1TB" in labels
    assert "core.offload_engine:OffloadEngine.OFFFUNC_COST" in labels
    assert not any(label.startswith(("analysis.", "concurrency.")) for label in labels)


def test_every_definition_has_a_caller_outside_the_tests():
    found = unreached()
    unlisted = sorted(set(found) - set(ALLOWED))
    assert not unlisted, (
        "Nothing in src/, benchmarks/ or examples/ reaches these:\n  "
        + "\n  ".join(unlisted)
        + "\nThe simplicity guide asks for the removal of a capability that "
        "no caller uses.  Delete each (with the private state and the "
        "tests that only it reached), or list it in ALLOWED with the "
        "reason it stays: a paper anchor naming a section, figure or "
        "table; safety code; invariant wiring; a documented example; or "
        "a test seam that substitutes a fake.  'A test reads it' is not "
        "a reason."
    )
    stale = sorted(set(ALLOWED) - set(found))
    assert not stale, f"ALLOWED lists definitions that are now reached or gone: {stale}"
