"""Placement strategies, and the one walk ``DsnClient.store`` and
``DsnClient.repair`` take over a strategy's ordering."""

from __future__ import annotations

import random

import pytest

from repro.storage import DsnClient, DsnCluster, SimulatedNetwork
from repro.storage.placement import ReputationWeightedPlacement, RingPlacement


@pytest.fixture()
def cluster():
    # 8 KiB nodes: the capacity tests fill nodes to the brim, and at the
    # default 1 GiB that is a 10 GiB allocation (44 s of tier-1, mostly
    # system time).  Nothing here stores more than ~2 KB per node.
    cluster = DsnCluster(network=SimulatedNetwork(rng=random.Random(2)))
    for index in range(10):
        cluster.add_node(f"node-{index}", capacity_bytes=8 << 10)
    return cluster


def _fill(node) -> None:
    node.put("filler", 0, b"\x00" * (node.capacity_bytes - 10))


class TestPlacement:
    def test_ring_matches_client_default(self, cluster):
        strategy = RingPlacement()
        selected = strategy.select(cluster, "file-x", 4)
        expected = [n.name for n in cluster.ring.successors("file-x", 4)]
        assert selected[:4] == expected
        assert len(selected) == len(cluster.nodes)  # full fallback ordering
        with pytest.raises(RuntimeError):
            strategy.select(cluster, "file-x", len(cluster.nodes) + 1)
        manifest = DsnClient("owner", cluster).store("file-x", b"ring " * 40, n=4, k=2)
        assert [s.provider for s in manifest.shards] == expected

    def test_capacity_aware_skips_full_nodes(self, cluster):
        """The default walk passes over a provider that declines a shard."""
        ring_order = RingPlacement().select(cluster, "file-y", 10)
        _fill(cluster.node(ring_order[0]))
        payload = b"\x02" * 2000
        client = DsnClient("owner", cluster)
        manifest = client.store("file-y", payload, n=4, k=2)
        assert [s.provider for s in manifest.shards] == ring_order[1:5]
        assert client.retrieve(manifest) == payload

    def test_capacity_aware_fails_when_impossible(self, cluster):
        for node in cluster.nodes.values():
            _fill(node)
        with pytest.raises(RuntimeError, match="ran out of providers"):
            DsnClient("owner", cluster).store("file-z", b"\x03" * 2000, n=2, k=1)

    def test_reputation_weighted_orders_by_score(self, cluster):
        scores = {name: 0.5 for name in cluster.nodes}
        scores["node-3"] = 0.9
        scores["node-7"] = 0.05  # below the bar: excluded
        strategy = ReputationWeightedPlacement(score_of=lambda n: scores[n])
        selected = strategy.select(cluster, "file-r", 5)
        assert selected[0] == "node-3"
        assert "node-7" not in selected

    def test_reputation_bar_enforced(self, cluster):
        strategy = ReputationWeightedPlacement(score_of=lambda n: 0.0)
        with pytest.raises(RuntimeError):
            strategy.select(cluster, "file-r", 2)

    def test_place_with_strategy_end_to_end(self, cluster):
        client = DsnClient("owner", cluster)
        payload = b"strategic placement " * 40
        scores = {name: 0.5 for name in cluster.nodes}
        scores["node-3"] = 0.9
        manifest = client.store(
            "strat-file", payload, n=5, k=2,
            strategy=ReputationWeightedPlacement(score_of=lambda n: scores[n]),
        )
        assert len(manifest.shards) == 5
        assert manifest.shards[0].provider == "node-3"
        assert client.retrieve(manifest) == payload

    def test_place_with_strategy_skips_full_nodes(self, cluster):
        # Choke every ring-preferred node except enough for the file.
        client = DsnClient("owner", cluster)
        order = RingPlacement().select(cluster, "strat-2", 10)
        full = cluster.node(order[0])
        full.put("filler", 0, b"\x00" * (full.capacity_bytes - 4))
        payload = b"\x01" * 2000
        manifest = client.store(
            "strat-2", payload, n=4, k=2, strategy=RingPlacement()
        )
        assert order[0] not in {s.provider for s in manifest.shards}
        assert client.retrieve(manifest) == payload
        # Repair walks the same ordering the same way: the full node is
        # passed over again and the next free one takes the shard.
        victim = manifest.shards[0].provider
        repaired = client.repair(manifest, victim, strategy=RingPlacement())
        replacement = repaired.shards[0].provider
        assert replacement == order[5]
        assert client.retrieve(repaired) == payload
