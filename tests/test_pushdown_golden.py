"""Golden pins for the legacy three-mode pushdown scan.

The DSL refactor moved :class:`PushdownScanner` out of the extensions
package into :mod:`repro.pushdown.scan` and put its operator through
verifier admission.  These tests pin that move both ways:

* the *costs and results* of all three placements are byte-identical
  to the pre-refactor implementation (exact floats, captured from the
  seed revision), and
* the *structure* is the refactored one — the class lives in
  ``repro.pushdown.scan`` alone (no compatibility shim), and the
  scanner carries a verifier proof token (these assertions fail on the
  pre-refactor tree).
"""

from __future__ import annotations

import importlib

import pytest

from repro.pushdown.scan import PushdownScanner, run_pushdown_experiment
from repro.pushdown.verifier import VerifiedPipeline
from repro.sim import Environment

#: mode -> (scan_seconds, matches, wire_bytes, arm_core_seconds) at
#: pages=32, selectivity=0.05, seed=55 — captured before the refactor.
GOLDEN_32P_S05 = {
    "ship-all": (0.0002193486114352291, 83, 262144, 0.0),
    "dpu-software": (0.0010792334787596309, 83, 10624, 0.0009925624999999995),
    "dpu-regex": (0.0002270880492477291, 83, 10624, 0.0),
}

#: Same capture at pages=16, selectivity=0.25, seed=77.
GOLDEN_16P_S25 = {
    "ship-all": (0.00012361100499717035, 263, 131072, 0.0),
    "dpu-regex": (0.00012765496390342035, 263, 33664, 0.0),
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_32P_S05))
def test_three_mode_golden(mode):
    expected = GOLDEN_32P_S05[mode]
    result = run_pushdown_experiment(mode, pages=32, selectivity=0.05)
    assert (
        result.scan_seconds,
        result.matches,
        result.wire_bytes,
        result.arm_core_seconds,
    ) == expected


@pytest.mark.parametrize("mode", sorted(GOLDEN_16P_S25))
def test_golden_alternate_seed_and_selectivity(mode):
    expected = GOLDEN_16P_S25[mode]
    result = run_pushdown_experiment(
        mode, pages=16, selectivity=0.25, seed=77
    )
    assert (
        result.scan_seconds,
        result.matches,
        result.wire_bytes,
        result.arm_core_seconds,
    ) == expected


def test_same_seed_is_deterministic():
    first = run_pushdown_experiment("dpu-regex", pages=8, selectivity=0.1)
    second = run_pushdown_experiment("dpu-regex", pages=8, selectivity=0.1)
    assert first == second


def test_scanner_has_one_home_and_no_shim():
    # Fails before the refactor: the class used to be defined in the
    # extensions package, which later kept a forwarding shim.
    assert PushdownScanner.__module__ == "repro.pushdown.scan"
    with pytest.raises(ImportError):
        importlib.import_module("repro.extensions.pushdown")


def test_scanner_carries_admission_token():
    # Fails before the refactor: legacy scanners had no verifier step.
    scanner = PushdownScanner(Environment(), pages=1, mode="ship-all")
    assert isinstance(scanner.token, VerifiedPipeline)
    assert scanner.admission.ok
    assert scanner.token.pattern == rb"needle-\d{8}"
