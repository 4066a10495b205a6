"""Every example's printed output, recorded.

The ``examples/*.py`` scripts are deterministic.  Each runs here in an
interpreter of its own (``PYTHONPATH=src``), must exit 0, and leaves its
stdout+stderr in ``benchmarks/results/examples/<name>.txt``.  Those
files are committed, so ``git diff --exit-code -- benchmarks/results``
after this run says whether a change left every example's output
byte-identical.
"""

import os
import subprocess
import sys

import pytest

from _tables import RESULTS_DIR

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(ROOT, "examples")
EXAMPLES = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_output_is_recorded(name):
    run = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        timeout=600,
    )
    out_dir = os.path.join(RESULTS_DIR, "examples")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name[:-3] + ".txt"), "wb") as handle:
        handle.write(run.stdout)
    assert run.returncode == 0, run.stdout.decode(errors="replace")[-2000:]
