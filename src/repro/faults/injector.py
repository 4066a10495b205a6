"""The fault injector: schedules a plan's events on the sim clock.

``FaultInjector(env, server, plan).arm()`` spawns one named process per
fault event (``fault:...``); recoveries run as their own named
processes (``recover:...``), at exactly the times the plan dictates.
Every application and revert is appended to ``fault_log`` — a list of
:class:`~repro.faults.plan.FaultRecord` — whose formatted lines are
byte-identical across same-seed runs (the golden artifact chaos tests
compare).

Fault targets are resolved against the server's public wiring — every
DDS deployment lists its per-DPU ``filesystems``, every offload
deployment its ``shards``:

* NIC windows install a :class:`~repro.faults.netem.NetworkChaos` on the
  server's ``submit`` boundary;
* SSD events reach shard ``i``'s :class:`~repro.hardware.ssd.
  NvmeDevice` through ``filesystems[i]``'s bdev;
* engine crashes call ``shards[i].engine``'s :meth:`~repro.core.
  offload_engine.OffloadEngine.crash` / ``restart``;
* shard kills call the sharded server's ``kill_shard`` /
  ``recover_shard`` (the latter replays §4.3 metadata recovery from the
  raw disk).
"""

from __future__ import annotations

from typing import Generator, List, Optional

from ..hardware.ssd import NvmeDevice
from ..sim import Environment
from .netem import NetworkChaos
from .plan import (
    EngineCrash,
    FaultEvent,
    FaultPlan,
    FaultRecord,
    NicFault,
    ShardKill,
    SsdErrorBurst,
    SsdLatencySpike,
)

__all__ = ["FaultInjector"]


class FaultInjector:
    """Applies a :class:`FaultPlan` to a running deployment."""

    def __init__(
        self,
        env: Environment,
        server,
        plan: FaultPlan,
    ) -> None:
        self.env = env
        self.server = server
        self.plan = plan
        self.fault_log: List[FaultRecord] = []
        self.chaos: Optional[NetworkChaos] = None
        self._armed = False

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Schedule every event of the plan; idempotent per injector."""
        if self._armed:
            raise RuntimeError("fault plan already armed")
        self._armed = True
        for index, event in enumerate(self.plan.events):
            self._spawn(
                self._run_event(index, event), f"fault:{event.describe()}"
            )
        return self

    def _spawn(self, generator: Generator, name: str) -> None:
        generator.__name__ = name  # type: ignore[attr-defined]
        self.env.process(generator)

    def _log(self, kind: str, detail: str) -> None:
        self.fault_log.append(FaultRecord(self.env.now, kind, detail))

    def fault_log_lines(self) -> List[str]:
        """The deterministic, formatted fault log (golden artifact)."""
        return [record.format() for record in self.fault_log]

    # ------------------------------------------------------------------
    # target resolution
    # ------------------------------------------------------------------
    def _device(self, shard: int) -> NvmeDevice:
        return self.server.filesystems[shard].bdev.device

    # ------------------------------------------------------------------
    # event execution
    # ------------------------------------------------------------------
    def _run_event(self, index: int, event: FaultEvent) -> Generator:
        yield self.env.now + event.at
        if isinstance(event, NicFault):
            yield from self._run_nic(index, event)
        elif isinstance(event, SsdErrorBurst):
            self._device(event.shard).inject_errors(event.count)
            self._log("ssd-error-burst", event.describe())
        elif isinstance(event, SsdLatencySpike):
            self._device(event.shard).inject_latency_spikes(
                event.ops, event.extra
            )
            self._log("ssd-latency-spike", event.describe())
        elif isinstance(event, EngineCrash):
            self._run_engine_crash(event)
        elif isinstance(event, ShardKill):
            self._run_shard_kill(event)
        else:  # pragma: no cover - plan validates its vocabulary
            raise TypeError(f"unknown fault event {event!r}")

    def _run_nic(self, index: int, event: NicFault) -> Generator:
        chaos = NetworkChaos(
            self.env,
            self.plan.rng(f"nic:{index}"),
            drop=event.drop,
            duplicate=event.duplicate,
            reorder=event.reorder,
            corrupt=event.corrupt,
            reorder_delay=event.reorder_delay,
        )
        self.chaos = chaos
        self.server.network_chaos = chaos
        self._log("nic-fault", event.describe())
        yield self.env.now + event.duration
        if self.server.network_chaos is chaos:
            self.server.network_chaos = None
        self._log(
            "nic-clear",
            f"dropped={chaos.dropped} corrupted={chaos.corrupted} "
            f"duplicated={chaos.duplicated} reordered={chaos.reordered}",
        )

    def _run_engine_crash(self, event: EngineCrash) -> None:
        engine = self.server.shards[event.shard].engine
        dropped = engine.crash()
        self._log(
            "engine-crash",
            f"{event.describe()} dropped_contexts={dropped}",
        )

        def restart() -> Generator:
            yield self.env.now + event.down_for
            engine.restart()
            self._log("engine-restart", f"shard={event.shard}")

        self._spawn(restart(), f"recover:engine:shard{event.shard}")

    def _run_shard_kill(self, event: ShardKill) -> None:
        self.server.kill_shard(event.shard)
        self._log("shard-kill", event.describe())

        def recover() -> Generator:
            yield self.env.now + event.down_for
            started = self.env.now
            yield from self.server.recover_shard(event.shard)
            self._log(
                "shard-recover",
                f"shard={event.shard} "
                f"recovery_time={(self.env.now - started) * 1e6:.2f}us",
            )

        self._spawn(recover(), f"recover:shard{event.shard}")
