"""Every setting has a second caller.

A *setting* is a defaulted parameter of a public function, method or
constructor in ``src/repro``, or a defaulted dataclass field.  The
Options rule keeps one settable only while callers outside the tests
need different values; with a single value in use it is a named constant
at its owner, which a test that needs another value sets with
``monkeypatch``.

The census parses the tree (``analysis/`` and ``concurrency/`` are test
and lint tooling, so they are skipped) and counts a setting as used when
some call in ``src/``, ``benchmarks/`` or ``examples/`` passes it: by
keyword, positionally past its index, or through a ``*``/``**`` splat.
Calls are matched by the callee's last name only, so two functions that
share a name pool their callers: a collision can hide an unused setting,
never flag a used one.  A record field the program writes after building
the record (``stats.x += 1``, ``report.items.append(...)``) is state,
not a setting.  Every unused setting must be listed in :data:`ALLOWED`
with the reason it stays.
"""

import ast
import os

import pytest

from .census_tree import CALLERS, PACKAGE, ROOT, _files, _modules, _name, _parse

pytestmark = pytest.mark.ddslint

#: In-place container methods: calling one on a record's field writes it.
MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "insert",
    "pop", "popleft", "remove", "setdefault", "update",
})

_CLI = "a command-line seam: tests pass arguments instead of sys.argv"
_FAULT = (
    "fault-plan vocabulary: the chaos tier composes plans from it; the "
    "one fault a measured run injects is ShardKill"
)
_WIRE = "a field of a wire record that tests build by hand, not a setting"
_SEAM = "a test seam: tests substitute a small or seeded instance"
_INTERP = (
    "the interpreter's host-fallback API: the host runs refused programs "
    "with host-sized bounds, and the differential tests drive it raw"
)

#: Unused settings that stay settable, each with its reason.
ALLOWED = {
    "apps.faster:FasterKv.rmw(update)": (
        "YCSB RMW's update function: Figure 5 increments, a test checks "
        "that another function is applied"
    ),
    "bench.figures:main(argv)": _CLI,
    "bench.trajectory:main(argv)": _CLI,
    "bench.trajectory:write_bench(directory)": (
        "an output path (a deployment setting): tests write into a "
        "temporary directory"
    ),
    "core.offload_engine:OffloadEngine(pool)": _SEAM,
    "hardware.ssd:NvmeDevice(rng)": _SEAM,
    "faults.invariants:InvariantChecker.set_slo(exempt)": (
        "OL2's flooder exemption: only the chaos tier's flood tenant is "
        "measured but not held to its SLO"
    ),
    "faults.plan:NicFault(duration)": _FAULT,
    "faults.plan:NicFault(drop)": _FAULT,
    "faults.plan:NicFault(duplicate)": _FAULT,
    "faults.plan:NicFault(reorder)": _FAULT,
    "faults.plan:NicFault(corrupt)": _FAULT,
    "faults.plan:NicFault(reorder_delay)": _FAULT,
    "faults.plan:SsdErrorBurst(count)": _FAULT,
    "faults.plan:SsdErrorBurst(shard)": _FAULT,
    "faults.plan:SsdLatencySpike(ops)": _FAULT,
    "faults.plan:SsdLatencySpike(extra)": _FAULT,
    "faults.plan:SsdLatencySpike(shard)": _FAULT,
    "faults.plan:EngineCrash(down_for)": _FAULT,
    "faults.plan:EngineCrash(shard)": _FAULT,
    "net.packet:AppSignature(client_ip)": _WIRE,
    "net.packet:AppSignature(client_port)": _WIRE,
    "net.packet:AppSignature(server_ip)": _WIRE,
    "net.packet:AppSignature(protocol)": _WIRE,
    "net.packet:Segment(syn)": _WIRE,
    "net.packet:Segment(fin)": _WIRE,
    "net.packet:Segment(flow)": _WIRE,
    "pushdown.isa:Program(scratch)": (
        "program input, not a setting: the verifier's fixtures write "
        "programs that overrun the scratch bound"
    ),
    "pushdown.interp:interpret(acc)": _INTERP,
    "pushdown.interp:interpret(stack_limit)": _INTERP,
    "pushdown.interp:interpret_pipeline(stack_limit)": _INTERP,
}


def _is_dataclass(node):
    return any(
        _name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )


def _defaulted(function, bound):
    """``(name, positional index or None)`` of each defaulted parameter;
    ``bound`` skips the ``self``/``cls`` slot of a method."""
    args = function.args.posonlyargs + function.args.args
    first = len(args) - len(function.args.defaults)
    for index, arg in enumerate(args):
        if index >= max(first, int(bound)):
            yield arg.arg, index - int(bound)
    for arg, default in zip(function.args.kwonlyargs, function.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def settings():
    """``(label, callee, name, index, is_field)`` for every setting."""
    for module, tree in _modules():
        for node in tree.body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                for name, index in _defaulted(node, bound=False):
                    yield f"{module}:{node.name}({name})", node.name, name, index, False
            elif isinstance(node, ast.ClassDef):
                yield from _class_settings(module, node)


def _class_settings(module, node):
    if _is_dataclass(node):
        fields = [
            item for item in node.body
            if isinstance(item, ast.AnnAssign)
            and "ClassVar" not in ast.unparse(item.annotation)
        ]
        for index, item in enumerate(fields):
            value = item.value
            if value is None or (
                isinstance(value, ast.Call)
                and any(k.arg == "init" for k in value.keywords)
            ):
                continue
            name = item.target.id
            yield f"{module}:{node.name}({name})", node.name, name, index, True
    for item in node.body:
        if not isinstance(item, ast.FunctionDef):
            continue
        if item.name == "__init__":
            callee, label = node.name, node.name
        elif item.name.startswith("_"):
            continue
        else:
            callee, label = item.name, f"{node.name}.{item.name}"
        static = any(_name(d) == "staticmethod" for d in item.decorator_list)
        for name, index in _defaulted(item, bound=not static):
            yield f"{module}:{label}({name})", callee, name, index, False


def _subclasses():
    """Class name -> every class name below it (a subclass without its
    own ``__init__`` is called with its base's parameters)."""
    bases = {}
    for path in _files(PACKAGE):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(map(_name, node.bases))

    def below(name, seen):
        for child, parents in bases.items():
            if name in parents and child not in seen:
                seen.add(child)
                below(child, seen)
        return seen

    return {name: below(name, set()) for name in bases}


class _Calls:
    """Every call in the caller trees, by callee name."""

    def __init__(self):
        self.keywords = set()
        self.positional = {}
        self.starred = set()
        self.double_starred = set()
        for top in CALLERS:
            for path in _files(os.path.join(ROOT, top)):
                self._visit(_parse(path), None)

    def _visit(self, node, klass):
        if isinstance(node, ast.ClassDef):
            klass = node
        if isinstance(node, ast.Call):
            self._record(node, klass)
        for child in ast.iter_child_nodes(node):
            self._visit(child, klass)

    def _record(self, call, klass):
        func, args = call.func, list(call.args)
        names = [_name(func)]
        if names[0] == "partial" and args:
            names = [_name(args.pop(0))]
        elif names[0] == "replace":
            args = []  # dataclasses.replace(record, field=value)
        elif klass is not None and (
            names[0] == "cls" or ast.unparse(func) == "type(self)"
        ):
            names = [klass.name]
        elif names[0] == "__init__" and isinstance(func, ast.Attribute):
            if ast.unparse(func.value) == "super()" and klass is not None:
                names = [_name(base) for base in klass.bases]
            else:  # Base.__init__(self, ...)
                names, args = [_name(func.value)], args[1:]
        for name in filter(None, names):
            for keyword in call.keywords:
                if keyword.arg is None:
                    self.double_starred.add(name)
                else:
                    self.keywords.add((name, keyword.arg))
            if any(isinstance(arg, ast.Starred) for arg in args):
                self.starred.add(name)
            self.positional[name] = max(self.positional.get(name, 0), len(args))

    def pass_(self, callee, name, index):
        return (
            (callee, name) in self.keywords
            or callee in self.double_starred
            or index is not None
            and (callee in self.starred or self.positional.get(callee, 0) > index)
        )


def _written_fields():
    """Attribute names ``src/`` writes on an object after building it.
    ``self.x = v`` is how a constructor stores a parameter, so it does
    not count."""
    names = set()
    for path in _files(os.path.join(ROOT, "src")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                targets = [node.func.value] if node.func.attr in MUTATORS else []
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.Assign):
                targets = [
                    t for t in node.targets
                    if not (isinstance(t, ast.Attribute) and ast.unparse(t.value) == "self")
                ]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Subscript):
                    target = target.value
                if isinstance(target, ast.Attribute):
                    names.add(target.attr)
    return names


def unused_settings():
    calls, subclasses, written = _Calls(), _subclasses(), _written_fields()
    unused = []
    for label, callee, name, index, is_field in settings():
        callees = {callee} | subclasses.get(callee, set())
        if callee[0].isupper():
            callees.add("replace")
        if is_field and name in written:
            continue
        if not any(calls.pass_(c, name, index) for c in callees):
            unused.append(label)
    return unused


def test_the_census_sees_the_tree():
    labels = [label for label, *_ in settings()]
    assert len(labels) > 300
    assert "core.client:ClientConfig(file_size)" in labels
    assert "topology.sharding:ShardedOffloadServer(context_slots)" in labels


def test_every_setting_has_a_caller_outside_the_tests():
    unused = unused_settings()
    unlisted = sorted(set(unused) - set(ALLOWED))
    assert not unlisted, (
        "No call in src/, benchmarks/ or examples/ sets these:\n  "
        + "\n  ".join(unlisted)
        + "\nThe Options rule keeps a setting settable only when two callers "
        "outside the tests need different values.  Make each a named "
        "constant at its owner (a test that needs another value sets it "
        "with monkeypatch), delete it, or list it in ALLOWED with the "
        "reason it stays."
    )
    stale = sorted(set(ALLOWED) - set(unused))
    assert not stale, f"ALLOWED lists settings that are now used or gone: {stale}"
