"""Overload benchmark: goodput-vs-offered curves and flash-crowd recovery.

Runs the DESIGN §15 overload study — the same deployment and tenant
population as the committed ``BENCH_overload.json`` record — and
emits the two tables the graceful-degradation claim rests on:

* ``overload`` — goodput, p99, retry amplification, and shed rate at
  each offered-load multiple of capacity, for the stock configuration
  (OFF: 8-attempt retries, no dedup, no admission control) and the
  defended one (ON: QoS gate + retry budget + dedup).
* ``overload_flash_crowd`` — goodput before / during / after a 5x spike.
"""

from _tables import (
    NONDECREASING, Claim, above, at_least, at_most, below, bench, each, emit, equals, kops
)

from repro.bench.trajectory import run_workload

DESIGN = "DESIGN 15: graceful degradation"


def _points(key, field, at_least_x=0.0):
    """``field`` of each curve point of config ``key`` at or past a load
    multiple."""
    return lambda d: [
        point[field] for point in d["curve"][key]
        if point["multiplier"] >= at_least_x
    ]


def _on_2x(detail):
    return next(p for p in detail["curve"]["on"] if p["multiplier"] == 2.0)


def _p99_at_2x(detail):
    return detail["tenant_class_p99_ms_at_2x"]


def _off_goodput_3x_of_peak(detail):
    off = {p["multiplier"]: p["goodput_iops"] for p in detail["curve"]["off"]}
    return off[3.0] / max(off.values())


CLAIMS = (
    Claim("overload", "defended goodput at 2x, % of peak", DESIGN,
          lambda d: d["on_goodput_2x_pct_of_peak"], at_least(80.0)),
    Claim("overload", "stock goodput at 3x / peak", "collapse, not saturation",
          _off_goodput_3x_of_peak, below(0.65)),
    Claim("overload", "stock collapse, % of peak", "collapse, not saturation",
          lambda d: d["off_collapse_pct_of_peak"], below(65.0)),
    Claim("overload", "stock amplification at >= 2x", "retries multiply demand",
          _points("off", "amplification", 2.0), each(above(2.0))),
    Claim("overload", "defended amplification, every load", DESIGN,
          _points("on", "amplification"), each(at_most(1.15))),
    Claim("overload", "defended shed rate at 2x", "sheds explicitly",
          lambda d: _on_2x(d)["shed_rate"], above(0.4)),
    Claim("overload", "stock shed rate, every load", "sheds nothing explicitly",
          _points("off", "shed_rate"), each(equals(0.0))),
    Claim("overload", "interactive p99 at 2x (ms)", "weighted tenants ride through",
          lambda d: _p99_at_2x(d)["int"], below(5.0)),
    Claim("overload", "p99 at 2x (ms): interactive, batch", "batch absorbs the queueing",
          lambda d: [_p99_at_2x(d)[c] for c in ("int", "batch")], NONDECREASING),
    Claim("overload_flash_crowd", "defended recovery", DESIGN,
          lambda d: d["flash_crowd"]["on"]["recovery"], at_least(0.95)),
    Claim("overload_flash_crowd", "stock recovery", "metastable failure",
          lambda d: d["flash_crowd"]["off"]["recovery"], below(0.8)),
    Claim("overload_flash_crowd", "retries, stock / defended",
          "metastable failure",
          lambda d: d["flash_crowd"]["off"]["retries"]
          / d["flash_crowd"]["on"]["retries"],
          above(10)),
)


def run_figure():
    detail = run_workload("overload", "full")["detail"]
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
        rows, CLAIMS, detail,
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
        flash_rows, CLAIMS, detail,
    )
    return detail


test_overload = bench(run_figure)
