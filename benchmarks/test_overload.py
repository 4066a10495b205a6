"""Overload benchmark: goodput-vs-offered curves and flash-crowd recovery.

Runs the DESIGN §15 overload study — the same deployment and tenant
population as the committed ``BENCH_overload.json`` record — and
emits the two tables the graceful-degradation claim rests on:

* ``overload`` — goodput, p99, retry amplification, and shed rate at
  each offered-load multiple of capacity, for the stock configuration
  (OFF: 8-attempt retries, no dedup, no admission control) and the
  defended one (ON: QoS gate + retry budget + dedup).  OFF collapses
  past saturation; ON holds >= 80% of peak at 2x capacity.
* the flash-crowd rows — goodput before / during / after a 5x spike.
  OFF stays depressed after the crowd leaves (metastable failure); ON
  recovers to >= 95% of pre-crowd demand.

Run with ``pytest benchmarks/test_overload.py``.
"""

import pytest
from _tables import emit, kops

from repro.bench.trajectory import run_workload


@pytest.fixture(scope="module")
def detail():
    return run_workload("overload", "full")["detail"]


@pytest.fixture(scope="module")
def table(detail):
    rows = []
    for key, label in (("off", "stock"), ("on", "defended")):
        for point in detail["curve"][key]:
            rows.append((
                label,
                f"{point['multiplier']:.1f}x",
                kops(point["offered_iops"]),
                kops(point["goodput_iops"]),
                f"{point['p99_ms']:.2f}ms",
                f"{point['amplification']:.2f}x",
                f"{100 * point['shed_rate']:.0f}%",
            ))
    emit(
        "overload",
        "open-loop overload: goodput vs offered load (1 shard, 64KiB reads)",
        ("config", "load", "offered", "goodput", "p99", "amplify", "shed"),
        rows,
    )
    flash_rows = [
        (
            {"off": "stock", "on": "defended"}[key],
            kops(flash["pre_iops"]),
            kops(flash["during_iops"]),
            kops(flash["post_iops"]),
            f"{100 * flash['recovery']:.0f}%",
            f"{flash['p99_ms']:.2f}ms",
            flash["retries"],
        )
        for key, flash in detail["flash_crowd"].items()
    ]
    emit(
        "overload_flash_crowd",
        "flash crowd (5x for 6ms over 0.8x-capacity base): recovery",
        ("config", "pre", "during", "post", "recovery", "p99", "retries"),
        flash_rows,
    )
    return detail


class TestGoodputCurve:
    def test_defended_curve_holds_at_twice_capacity(self, table):
        """The acceptance bar: ON goodput at 2x >= 80% of ON peak."""
        assert table["on_goodput_2x_pct_of_peak"] >= 80.0

    def test_stock_curve_collapses(self, table):
        """OFF goodput falls as offered load rises past saturation —
        the signature of congestion collapse, not graceful saturation."""
        off = {p["multiplier"]: p["goodput_iops"] for p in table["curve"]["off"]}
        assert off[3.0] < 0.65 * max(off.values())
        assert table["off_collapse_pct_of_peak"] < 65.0

    def test_stock_overload_amplifies_offered_load(self, table):
        """Past saturation the stock retry policy multiplies demand;
        the budgeted configuration stays within ~1.1x."""
        for point in table["curve"]["off"]:
            if point["multiplier"] >= 2.0:
                assert point["amplification"] > 2.0
        for point in table["curve"]["on"]:
            assert point["amplification"] <= 1.15

    def test_defenses_shed_explicitly_not_silently(self, table):
        """ON converts excess into THROTTLED sheds; OFF sheds nothing
        explicitly (its losses hide in queues and timeouts)."""
        on_2x = next(
            p for p in table["curve"]["on"] if p["multiplier"] == 2.0
        )
        assert on_2x["shed_rate"] > 0.4
        for point in table["curve"]["off"]:
            assert point["shed_rate"] == 0.0

    def test_interactive_class_keeps_low_p99_under_overload(self, table):
        """The 4x-weighted interactive tenants ride through 2x overload
        with millisecond-class p99 while batch absorbs the queueing."""
        classes = table["tenant_class_p99_ms_at_2x"]
        assert classes["int"] < 5.0
        assert classes["int"] <= classes["batch"]


class TestFlashCrowd:
    def test_defended_recovers_after_the_crowd(self, table):
        assert table["flash_crowd"]["on"]["recovery"] >= 0.95

    def test_stock_stays_collapsed_after_the_crowd(self, table):
        """Metastability: the trigger is gone, the collapse persists."""
        flash = table["flash_crowd"]["off"]
        assert flash["recovery"] < 0.8
        assert flash["retries"] > 10 * table["flash_crowd"]["on"]["retries"]
