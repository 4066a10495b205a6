"""YCSB workload generator [24] for the KV-service experiments (§9.2).

Standard workload mixes over a fixed key space with uniform key
popularity, as in the paper's §9.2 read benchmark.  Each draw yields an
operation tuple the KV driver executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from ..sim import SeededRng

__all__ = ["YcsbWorkload", "WORKLOAD_MIXES"]

#: Operation mixes of the classic YCSB workloads (read, update, rmw).
WORKLOAD_MIXES = {
    "A": {"read": 0.5, "update": 0.5, "rmw": 0.0},
    "B": {"read": 0.95, "update": 0.05, "rmw": 0.0},
    "C": {"read": 1.0, "update": 0.0, "rmw": 0.0},
    "F": {"read": 0.5, "update": 0.0, "rmw": 0.5},
    "RMW": {"read": 0.0, "update": 0.0, "rmw": 1.0},  # Figure 5's benchmark
}


@dataclass
class YcsbOp:
    """One generated operation."""

    kind: str  # "read" | "update" | "rmw"
    key: int
    value: Optional[bytes] = None


class YcsbWorkload:
    """Generates YCSB operations with 8-byte keys and 8-byte values."""

    VALUE_BYTES = 8

    def __init__(self, records: int, mix: str = "C", seed: int = 7) -> None:
        if records < 1:
            raise ValueError("need at least one record")
        if mix not in WORKLOAD_MIXES:
            raise ValueError(
                f"unknown mix {mix!r}; choose from {sorted(WORKLOAD_MIXES)}"
            )
        self.records = records
        self.mix = mix
        self.rng = SeededRng(seed)
        self._weights = WORKLOAD_MIXES[mix]

    def draw_key(self) -> int:
        """One key, uniform over the key space."""
        return self.rng.randrange(self.records)

    def draw_op(self) -> YcsbOp:
        """One operation from the configured mix."""
        key = self.draw_key()
        roll = self.rng.random()
        if roll < self._weights["read"]:
            return YcsbOp("read", key)
        if roll < self._weights["read"] + self._weights["update"]:
            return YcsbOp("update", key, self._value_for(key))
        return YcsbOp("rmw", key)

    def _value_for(self, key: int) -> bytes:
        return (key & 0xFFFFFFFFFFFFFFFF).to_bytes(self.VALUE_BYTES, "little")

    def ops(self, count: int) -> Iterator[YcsbOp]:
        """A finite stream of operations."""
        for _ in range(count):
            yield self.draw_op()

    def load_keys(self) -> Iterator[Tuple[int, bytes]]:
        """The initial-load phase: every key with its seed value."""
        for key in range(self.records):
            yield key, self._value_for(key)
