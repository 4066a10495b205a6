"""ddslint self-tests: fixtures with known violations, exact positions.

Each fixture under ``tests/fixtures/ddslint/`` encodes one rule family;
the tests assert the *exact* (rule, line) inventory so a checker change
that silently widens or narrows a rule fails loudly.  Suppression
machinery (inline, line-above, file-level, ``_DDSLINT_EXEMPT``) is
covered by the ``suppressed.py`` fixture.
"""

from pathlib import Path

import pytest

from repro.analysis import RULES, classes_for, lint_source
from repro.analysis.driver import main

FIXTURES = Path(__file__).parent / "fixtures" / "ddslint"

SHARED = frozenset({"shared"})
INSTRUMENTED = frozenset({"instrumented"})
SIM = frozenset({"sim"})
SIM_HOT = frozenset({"sim", "sim_hot"})
OFFLOAD = frozenset({"offload"})


def _lint(fixture, classes):
    source = (FIXTURES / fixture).read_text(encoding="utf-8")
    return lint_source(source, fixture, classes)


def _inventory(findings):
    return sorted((f.rule, f.line) for f in findings if not f.suppressed)


# ----------------------------------------------------------------------
# DDS101 / DDS102: atomicity
# ----------------------------------------------------------------------
def test_shared_bad_exact_rules_and_lines():
    findings = _lint("shared_bad.py", SHARED)
    assert _inventory(findings) == [
        ("DDS101", 12),  # self.count += 1
        ("DDS101", 16),  # self.count = self.count + ...
        ("DDS102", 13),  # self.items.append(item)
        ("DDS102", 19),  # del self.table[key]
        ("DDS102", 23),  # mutation through the local alias `bucket`
        ("DDS102", 31),  # alias bound by self.table.get(key)
        ("DDS102", 34),  # self.table.setdefault(...) itself
        ("DDS102", 35),  # alias bound by self.table.setdefault(...)
        ("DDS102", 39),  # alias bound by `self.table[key] or ()`
    ]


def test_lock_guarded_mutation_is_excused():
    findings = _lint("shared_bad.py", SHARED)
    assert all(f.line != 27 for f in findings)  # with self._lock: append


def test_messages_name_class_method_and_attribute():
    findings = _lint("shared_bad.py", SHARED)
    by_line = {f.line: f for f in findings}
    assert "'count'" in by_line[12].message
    assert "BadQueue.push" in by_line[12].message
    assert "'items'" in by_line[23].message


def test_element_getter_and_or_default_aliases_are_tracked():
    # `.get`/`.setdefault` on a self chain, and `<self chain> or
    # <default>`, alias the field; a rebinding or a copy does not.
    findings = _lint("shared_bad.py", SHARED)
    alias_lines = [
        line for rule, line in _inventory(findings) if 29 <= line <= 48
    ]
    assert alias_lines == [31, 34, 35, 39]
    by_line = {f.line: f for f in findings}
    for line, method in [
        (31, "get_alias_mutation"),
        (35, "setdefault_alias_mutation"),
        (39, "or_alias_mutation"),
    ]:
        assert "'table'" in by_line[line].message
        assert f"BadQueue.{method}" in by_line[line].message


# ----------------------------------------------------------------------
# DDS201: yield-point coverage
# ----------------------------------------------------------------------
def test_instrumented_bad_flags_uncovered_and_late_yield():
    findings = _lint("instrumented_bad.py", INSTRUMENTED)
    assert _inventory(findings) == [
        ("DDS201", 15),  # no yield_point in the function
        ("DDS201", 18),  # yield_point only after the access
    ]


def test_yield_point_before_access_satisfies_dds201():
    findings = _lint("instrumented_bad.py", INSTRUMENTED)
    assert all(f.line != 12 for f in findings)


def test_shared_bad_under_instrumentation_needs_yields_even_under_lock():
    # DDS201 is orthogonal to DDS101/102 excuses: the lock-guarded
    # append at line 27 still needs a schedule point for the harness.
    findings = _lint("shared_bad.py", INSTRUMENTED)
    assert _inventory(findings) == [
        ("DDS201", 12),
        ("DDS201", 13),
        ("DDS201", 16),
        ("DDS201", 19),
        ("DDS201", 23),
        ("DDS201", 27),
        ("DDS201", 31),
        ("DDS201", 34),
        ("DDS201", 35),
        ("DDS201", 39),
    ]


# ----------------------------------------------------------------------
# DDS301 / DDS302 / DDS303: DES determinism
# ----------------------------------------------------------------------
def test_sim_bad_exact_rules_and_lines():
    findings = _lint("sim_bad.py", SIM)
    assert _inventory(findings) == [
        ("DDS301", 10),  # time.time()
        ("DDS301", 14),  # datetime.now()
        ("DDS302", 18),  # random.random()
        ("DDS302", 26),  # os.urandom(8)
        ("DDS303", 30),  # builtin hash()
        ("DDS303", 34),  # iterating a set literal
    ]


def test_seeded_random_instantiation_is_allowed():
    findings = _lint("sim_bad.py", SIM)
    assert all(f.line != 22 for f in findings)  # random.Random(seed)


def test_determinism_rules_only_apply_to_sim_modules():
    assert _lint("sim_bad.py", SHARED) == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
def test_suppressed_fixture_has_no_active_findings():
    findings = _lint("suppressed.py", frozenset({"shared", "sim"}))
    assert _inventory(findings) == []


def test_suppressed_findings_are_retained_with_justifications():
    findings = _lint("suppressed.py", frozenset({"shared", "sim"}))
    suppressed = {
        (f.rule, f.line): f.justification
        for f in findings
        if f.suppressed
    }
    assert suppressed == {
        ("DDS101", 14): "test-only counter",
        ("DDS101", 18): "suppression on the line above",
        ("DDS301", 22): "replay tooling; the wall clock is data",
    }


def test_exempt_declaration_silences_the_field_entirely():
    # `tail` is in _DDSLINT_EXEMPT: not even a suppressed finding.
    findings = _lint("suppressed.py", frozenset({"shared", "sim"}))
    assert all(f.line != 11 for f in findings)


def test_suppression_comment_does_not_cover_other_rules():
    source = (
        "class C:\n"
        "    def f(self):\n"
        "        self.x += 1  # ddslint: disable=DDS102 -- wrong rule\n"
    )
    findings = lint_source(source, "inline.py", SHARED)
    assert _inventory(findings) == [("DDS101", 3)]


# ----------------------------------------------------------------------
# clean module, classification, CLI plumbing
# ----------------------------------------------------------------------
def test_clean_fixture_is_clean_under_every_class():
    classes = frozenset({"shared", "instrumented", "sim"})
    assert _lint("clean.py", classes) == []


@pytest.mark.parametrize(
    "relpath, expected",
    [
        ("structures/rings.py", {"shared", "instrumented"}),
        ("structures/cuckoo.py", {"shared", "instrumented"}),
        # The context ring is explored under real threads; the rest of
        # the engine is simulation code like all of core/.
        ("core/offload_engine.py", {
            "shared", "instrumented", "sim", "sim_hot",
        }),
        ("topology/sharding.py", {"sim", "sim_hot", "offload"}),  # host fallback
        ("net/packet.py", {"sim", "sim_hot"}),
        ("hardware/cpu.py", {"sim", "sim_hot"}),
        ("baselines/__init__.py", {"sim", "sim_hot"}),
        ("sim/engine.py", {"sim"}),  # owns the queues: no sim_hot
        ("sim/rng.py", set()),  # implements the blessed idiom
        ("core/server.py", {"sim", "sim_hot"}),
        ("analysis/driver.py", set()),
        ("apps/compressed_storage.py", set()),  # dispatches no programs
        ("hardware/accelerators.py", {"sim", "sim_hot"}),
        ("pushdown/scan.py", {"offload"}),
        ("pushdown/frontend.py", {"offload"}),
        ("pushdown/interp.py", set()),  # implements the raw entry
        ("pushdown/verifier.py", set()),  # mints the tokens
        ("pushdown/engine.py", set()),  # the sanctioned redeemer
        ("topology/stages.py", {"sim", "sim_hot", "offload"}),  # redeems tokens
        ("core/retry.py", {"sim", "sim_hot"}),  # backoff RNG and timers
        ("topology/replication.py", {"sim", "sim_hot"}),
        ("topology/resharding.py", {"sim", "sim_hot"}),
        ("core/traffic_director.py", {"sim", "sim_hot"}),
    ],
)
def test_default_config_classification(relpath, expected):
    assert classes_for(relpath) == frozenset(expected)


def test_scheduler_bypass_exact_rules_and_lines():
    """DDS304: heapq imports and engine-private queue access."""
    findings = _lint("scheduler_bypass.py", SIM_HOT)
    assert _inventory(findings) == [
        ("DDS304", 2),  # import heapq
        ("DDS304", 3),  # from heapq import heappush
        ("DDS304", 12),  # self.env._heap
        ("DDS304", 15),  # self.env._ready
        ("DDS304", 18),  # self.env._eid
    ]


def test_engine_itself_is_exempt_from_dds304():
    """sim/engine.py classifies as sim-without-sim_hot: no DDS304."""
    findings = _lint("scheduler_bypass.py", SIM)
    assert all(f.rule != "DDS304" for f in findings)


def test_spawn_and_join_exact_rules_and_lines():
    """DDS305: a process started only to be waited for on the spot."""
    findings = _lint("spawn_join.py", SIM_HOT)
    assert _inventory(findings) == [
        ("DDS305", 10),  # data = yield self.env.process(gen(...))
        ("DDS305", 14),  # yield env.process(gen(...)) over three lines
    ]
    kept = [f for f in findings if f.suppressed]
    assert [(f.rule, f.line) for f in kept] == [("DDS305", 20)]
    assert kept[0].justification == "the hop decides a same-instant tie"


def test_spawn_and_join_only_applies_to_hot_sim_modules():
    assert _lint("spawn_join.py", SIM) == []
    assert _lint("spawn_join.py", SHARED) == []


def test_pushdown_admission_exact_rules_and_lines():
    """DDS501/DDS502: raw execution and forged proof tokens."""
    findings = _lint("pushdown_bad.py", OFFLOAD)
    assert _inventory(findings) == [
        ("DDS501", 9),  # interpret() with no verify in scope
        ("DDS501", 13),  # interp.interpret_pipeline() via attribute
        ("DDS501", 19),  # verify exists but only *after* execution
        ("DDS501", 40),  # interp.interpret_page(): the page-level entry
        ("DDS502", 27),  # VerifiedPipeline built by hand
    ]


def test_pushdown_fixture_ignored_outside_offload_class():
    assert _lint("pushdown_bad.py", frozenset()) == []
    assert _lint("pushdown_bad.py", SHARED | SIM) == []


def test_pushdown_admission_suppressible():
    source = (FIXTURES / "pushdown_bad.py").read_text(encoding="utf-8")
    patched = source.replace(
        "# DDS501 line 9",
        "# ddslint: disable=DDS501 -- caller verified",
    )
    findings = lint_source(patched, "pushdown_bad.py", OFFLOAD)
    flagged = [
        (f.rule, f.line) for f in findings if not f.suppressed
    ]
    assert ("DDS501", 9) not in flagged
    assert ("DDS501", 13) in flagged


def test_unused_imports_exact_rules_and_lines():
    """DDS601: what pyflakes would say; applies whatever the class."""
    findings = _lint("unused_import_bad.py", frozenset())
    assert _inventory(findings) == [
        ("DDS601", 5),  # import os
        ("DDS601", 6),  # import struct as packer
        ("DDS601", 7),  # OrderedDict (deque is in __all__)
        ("DDS601", 10),  # import xml.dom binds `xml`
        ("DDS601", 14),  # TYPE_CHECKING import no annotation names
    ]
    # List: a name; Decimal, Optional: inside string annotations.
    assert "'OrderedDict'" in findings[2].message
    # A package's __init__ imports are its re-exports.
    source = (FIXTURES / "unused_import_bad.py").read_text(encoding="utf-8")
    assert lint_source(source, "pkg/__init__.py", frozenset()) == []


def test_rule_registry_covers_every_reported_rule():
    rules = set()
    for fixture, classes in [
        ("shared_bad.py", SHARED | INSTRUMENTED),
        ("sim_bad.py", SIM),
        ("scheduler_bypass.py", SIM_HOT),
        ("spawn_join.py", SIM_HOT),
        ("pushdown_bad.py", OFFLOAD),
        ("unused_import_bad.py", frozenset()),
    ]:
        rules.update(f.rule for f in _lint(fixture, classes))
    assert rules <= set(RULES)


def test_cli_exits_two_on_missing_path(tmp_path, capsys):
    assert main([str(tmp_path / "does-not-exist")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_cli_exits_two_on_syntax_error(tmp_path, capsys):
    bad = tmp_path / "repro" / "structures"
    bad.mkdir(parents=True)
    (bad / "broken.py").write_text("def broken(:\n")
    assert main([str(tmp_path / "repro")]) == 2
    assert "parse error" in capsys.readouterr().err
