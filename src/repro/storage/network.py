"""A tiny message-level network simulator for the DSN.

Models the properties the storage layer's tests exercise: per-message
latency, byte accounting, node crash/recovery and partitions.  The DSN
client talks to storage nodes exclusively through this layer, so failure
injection exercises real code paths (timeouts -> shard unavailability ->
erasure-decoding from survivors).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


class NetworkError(RuntimeError):
    """Raised when a message cannot be delivered (crash or partition)."""


@dataclass
class NetworkStats:
    messages: int = 0
    bytes_sent: int = 0
    total_latency: float = 0.0


@dataclass
class SimulatedNetwork:
    """Latency + failure fabric connecting DSN participants by name."""

    base_latency: float = 0.020       # 20 ms
    jitter: float = 0.010
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    stats: NetworkStats = field(default_factory=NetworkStats)
    _down: set[str] = field(default_factory=set)
    _partitions: list[set[str]] = field(default_factory=list)

    # -- failure injection -----------------------------------------------------

    def crash(self, name: str) -> None:
        self._down.add(name)

    def recover(self, name: str) -> None:
        self._down.discard(name)

    def partition(self, *groups: set[str]) -> None:
        self._partitions = [set(g) for g in groups]

    def heal_partition(self) -> None:
        self._partitions = []

    def _reachable(self, src: str, dst: str) -> bool:
        if dst in self._down or src in self._down:
            return False
        if not self._partitions:
            return True
        for group in self._partitions:
            if src in group and dst in group:
                return True
        # Names not mentioned in any partition group are isolated from
        # everything partitioned and connected to each other.
        in_any = any(src in g for g in self._partitions) or any(
            dst in g for g in self._partitions
        )
        return not in_any

    # -- transport ---------------------------------------------------------------

    def send(self, src: str, dst: str, payload_bytes: int) -> float:
        """Deliver a message; returns simulated latency or raises."""
        if not self._reachable(src, dst):
            raise NetworkError(f"{dst} unreachable from {src}")
        latency = self.base_latency + self.rng.random() * self.jitter
        self.stats.messages += 1
        self.stats.bytes_sent += payload_bytes
        self.stats.total_latency += latency
        return latency
