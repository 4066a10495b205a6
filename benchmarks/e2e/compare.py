"""Compare two result sets written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (workload, metric): both medians with their quartiles, the
ratio B/A *with its base*, and a verdict for B against A:

``better`` / ``worse``
    the median moved, in the metric's good or bad direction, by more
    than the metric's bound;
``same``
    it moved by no more than the bound;
``unresolved``
    the distance between the quartiles of either side, as a share of its
    median, exceeds the bound — the runs were too noisy to tell, which
    is not the same as unchanged.

Per-layer metrics have no bound, so their rows carry the ratio only.
The exit code is 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

__all__ = ["verdict", "compare_sets", "format_table", "main"]


def _spread(summary: dict) -> float:
    """Inter-quartile distance as a share of the median."""
    median = summary["median"]
    return abs(summary["q3"] - summary["q1"]) / abs(median) if median else 0.0


def verdict(a: dict, b: dict, better: str, bound: Optional[float]) -> str:
    """B against A for one metric (``a``/``b`` are run.py summaries)."""
    if bound is None:
        return ""
    if _spread(a) > bound or _spread(b) > bound:
        return "unresolved"
    base = a["median"]
    if base == 0:
        return "same" if b["median"] == 0 else "unresolved"
    change = (b["median"] - base) / abs(base)
    if better == "lower":
        change = -change
    if change > bound:
        return "better"
    if change < -bound:
        return "worse"
    return "same"


def compare_sets(first: dict, second: dict) -> List[dict]:
    kind = "per_layer" if first["trace"] else "end_to_end"
    declared = first["declared"][kind]
    rows = []
    for workload, result in first["workloads"].items():
        other = second["workloads"].get(workload)
        if other is None:
            continue
        for name, a in result["metrics"].items():
            b = other["metrics"].get(name)
            if b is None:
                continue
            meta = declared[name]
            rows.append({
                "workload": workload, "metric": name, "unit": meta["unit"],
                "a": a, "b": b,
                "ratio": b["median"] / a["median"] if a["median"] else None,
                "verdict": verdict(a, b, meta["better"], meta.get("bound")),
            })
    return rows


def _cell(summary: dict) -> str:
    text = f"{summary['median']:.6g}"
    if summary["n"] > 1:
        text += f" [{summary['q1']:.6g}..{summary['q3']:.6g}]"
    return text


def format_table(rows: List[dict]) -> str:
    lines = [
        f"{'workload':<20}{'metric':<24}{'A median [q1..q3]':<36}"
        f"{'B median [q1..q3]':<36}{'B/A (base A)':<34}verdict"
    ]
    for row in rows:
        ratio = (
            f"{row['ratio']:.4f} of {row['a']['median']:.6g} {row['unit']}"
            if row["ratio"] is not None else "base is 0"
        )
        lines.append(
            f"{row['workload']:<20}{row['metric']:<24}{_cell(row['a']):<36}"
            f"{_cell(row['b']):<36}{ratio:<34}{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        first = json.load(handle)
    with open(argv[1]) as handle:
        second = json.load(handle)
    if first["trace"] != second["trace"]:
        print("one set is traced and the other is not", file=sys.stderr)
        return 2
    rows = compare_sets(first, second)
    print(format_table(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
