"""The core-time account: where every simulated core's time is booked.

The paper's cost metric is cores consumed (Figures 2, 14, 16, 25), and
each :class:`~repro.sim.Environment` keeps one account of it
(``env.account``).  Every figure that reports cores is a query on it;
nothing else sums core time.

**Rows.**  Every :class:`~repro.hardware.cpu.CpuPool` and every
:class:`~repro.net.stack.StackLayer` on a CPU adds itself as one row
when it is built, and a :class:`ConstantRow` stands for a core that is
busy whether or not work flows (Redy's ``redy-pollers``).  A row has

* a *side* — ``"host"``, ``"dpu"`` or ``"client"``: the machine whose
  cores it spends;
* a *name* — a pool's unit (the stage it serves: ``dds-backend-0``,
  ``sharded-director``, ``pushdown-1``, ``kernel-io-serial``, the host
  pool's ``EPYC-host``, …) or a layer's stack (``host-os-tcp``,
  ``host-app-net``, ``sql-page``, …);
* *part of* — for a layer, the pool row its work runs on (the layer
  takes that pool's side); None for a pool or a constant row.

**Part-of rule.**  A layer's time is a share of its pool's: the pool
books the hold and the layer names what it was for, so a pool row is
never less than the sum of its layers, and side totals count pools and
constant rows only.  Queries by name (:meth:`CoreAccount.named`) read
layers too — Figure 2's split is four of them.

**Summation order.**  :meth:`CoreAccount.cores` folds a side unit by
unit: the rows of one name are summed first (in the order they were
added), and those subtotals are added in the order the units appeared.
A steering stage that sums cores built before it — every shard's
director cores — :meth:`~CoreAccount.claim`\\ s its unit when it joins,
which moves the unit to the end.  Each row is divided by ``elapsed``
before it is added, because ``a/e + b/e`` and ``(a + b)/e`` differ in
the last bit and the committed figures pin the former.

**Accrual.**  A row accrues after the hold it books has finished: a
pool adds ``busy_time`` once the booked instant is yielded, a layer its
``core_seconds`` once its pool returns, so a query mid-hold sees only
finished work, and the hot path does one float add per hold and no
call.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["ConstantRow", "CoreAccount"]

SIDES = ("host", "dpu", "client")


class ConstantRow:
    """``cores`` cores busy all the time on one side."""

    part_of = None

    def __init__(self, side: str, name: str, cores: float) -> None:
        self.side = side
        self.name = name
        self.cores = float(cores)

    def cores_consumed(self, elapsed: float) -> float:
        return self.cores


class CoreAccount:
    """The rows of one environment, in the order they were added."""

    def __init__(self) -> None:
        self.rows: List[object] = []
        #: (side, name) -> the pool and constant rows of that unit, in
        #: fold order.
        self._units: Dict[Tuple[str, str], List[object]] = {}

    def add(self, row) -> None:
        """Book ``row`` (it has ``side``, ``name``, ``part_of`` and
        ``cores_consumed(elapsed)``)."""
        if row.side not in SIDES:
            raise ValueError(f"unknown side: {row.side!r}")
        self.rows.append(row)
        if row.part_of is None:
            self._units.setdefault((row.side, row.name), []).append(row)

    def claim(self, side: str, name: str) -> None:
        """Move a unit to the end of the fold (module docstring)."""
        key = (side, name)
        self._units[key] = self._units.pop(key, [])

    def cores(self, side: str, elapsed: float) -> float:
        """Average cores one side consumed over ``elapsed`` seconds."""
        total = 0.0
        for (unit_side, _name), rows in self._units.items():
            if unit_side == side:
                unit = 0.0
                for row in rows:
                    unit += row.cores_consumed(elapsed)
                total += unit
        return total

    def named(self, side: str, name: str, elapsed: float) -> float:
        """Average cores of the rows called ``name`` on one side, layers
        included."""
        total = 0.0
        for row in self.rows:
            if row.side == side and row.name == name:
                total += row.cores_consumed(elapsed)
        return total
