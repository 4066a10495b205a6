"""Shipped vs each reference implementation, 300 seeds per scenario.

Idle-poll elision, booked holds with inlined I/O and in-place
completions each change nothing but the event count (DESIGN.md §11),
up to same-instant ties.  This runs the kit's two differential
scenarios against the three references in ``tests/reference_datapath.py``
over seeds 1–300 and records, per reference and scenario, how many
seeds diverge and the events both sides scheduled; and per diverging
seed, the first divergence (key, list index, shipped and reference
value) and the site(s) that alone reproduce it.  The record documents
the residual ties rather than asserting them away: a change that moves
one commits the new ``benchmarks/results/differential.txt`` and says
why.  The three-seed canaries are the tier-1 ``*_is_unobservable``
tests.

Run from the repository root (``tests`` must be importable):
``PYTHONPATH=src python -m pytest benchmarks/test_differential.py``.
"""

from _tables import emit

from repro.bench.harness import HOST_PATH, REPLICATED, differential
from tests.reference_datapath import REFERENCES

SEEDS = range(1, 301)


def test_differential_record():
    reports = {
        label: differential(scenario, REFERENCES, SEEDS)
        for label, scenario in (
            ("host_path", HOST_PATH), ("replicated", REPLICATED)
        )
    }
    rows = []
    for name in REFERENCES:
        for label, by_reference in reports.items():
            report = by_reference[name]
            shipped, reference = map(sum, zip(*report.events.values()))
            # Not vacuous: every reference is the longer way round.
            assert shipped < reference, (name, label)
            rows.append((
                name, label, f"{SEEDS[0]}-{SEEDS[-1]}",
                f"{len(report.divergences)} of {len(SEEDS)}",
                f"{shipped} events", f"{reference} events", "",
            ))
            for seed, found in sorted(report.divergences.items()):
                key = found.key
                if found.index is not None:
                    key = f"{key}[{found.index}]"
                rows.append((
                    name, label, seed, key, repr(found.shipped),
                    repr(found.reference), " ".join(found.sites),
                ))
    emit(
        "differential",
        "shipped vs reference: diverging seeds, first divergence, "
        "bisected site(s)",
        ("reference", "scenario", "seed", "diverges at", "shipped",
         "reference", "site(s)"),
        rows,
    )
