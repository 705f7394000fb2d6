"""Provider-selection strategies for shard placement.

The baseline client places shards on the DHT successors of the file key
(pure Chord semantics).  Real deployments weigh more than ring position:
the paper's ecosystem discussion implies providers should be chosen by
*reputation* (Section VI-A).  Each strategy returns an ordered provider
list that :meth:`~repro.storage.node.DsnClient.store` and
:meth:`~repro.storage.node.DsnClient.repair` walk, skipping any provider
that declines a shard (a full disk), until every shard is placed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol

if TYPE_CHECKING:
    from .node import DsnCluster


class PlacementStrategy(Protocol):
    def select(self, cluster: DsnCluster, file_id: str, n: int) -> list[str]:
        """Ordered provider names to receive shards (length >= n)."""
        ...


@dataclass
class RingPlacement:
    """Pure Chord: ring successors of the file key (the client's default).

    Returns the *full* ring ordering so callers have fallbacks when a
    preferred node declines a shard (capacity, failures).
    """

    def select(self, cluster: DsnCluster, file_id: str, n: int) -> list[str]:
        if n > len(cluster.nodes):
            raise RuntimeError(f"need {n} providers, ring has {len(cluster.nodes)}")
        return [
            node.name
            for node in cluster.ring.successors(file_id, len(cluster.nodes))
        ]


@dataclass
class ReputationWeightedPlacement:
    """Best-reputation-first among ring candidates (Section VI-A selection).

    ``score_of`` is any callable name -> score; typically
    ``lambda name: chain.call(registry_address, "score_of", name)``.
    """

    score_of: Callable[[str], float]
    minimum_score: float = 0.3

    def select(self, cluster: DsnCluster, file_id: str, n: int) -> list[str]:
        candidates = cluster.ring.successors(file_id, len(cluster.nodes))
        eligible = [
            node.name
            for node in candidates
            if self.score_of(node.name) >= self.minimum_score
        ]
        if len(eligible) < n:
            raise RuntimeError(
                f"only {len(eligible)} providers meet the reputation bar"
            )
        return sorted(eligible, key=lambda name: -self.score_of(name))
