"""Capability strings and placement strategies."""

from __future__ import annotations

import random

import pytest

from repro.storage import DsnClient, DsnCluster, SimulatedNetwork
from repro.storage.capabilities import (
    CapabilityError,
    ReadCap,
    VerifyCap,
    check_verify_cap,
    make_read_cap,
    storage_index_from_key,
)
from repro.storage.placement import (
    CapacityAwarePlacement,
    LatencyAwarePlacement,
    ReputationWeightedPlacement,
    RingPlacement,
    place_with_strategy,
)


@pytest.fixture()
def cluster():
    # 8 KiB nodes: the capacity tests fill nodes to the brim, and at the
    # default 1 GiB that is a 10 GiB allocation (44 s of tier-1, mostly
    # system time).  Nothing here stores more than ~2 KB per node.
    cluster = DsnCluster(network=SimulatedNetwork(rng=random.Random(2)))
    for index in range(10):
        cluster.add_node(f"node-{index}", capacity_bytes=8 << 10)
    return cluster


class TestCapabilities:
    @pytest.fixture()
    def read_cap(self, cluster):
        client = DsnClient("owner", cluster)
        manifest = client.store("caps-file", b"capability test data " * 30, n=4, k=2)
        return make_read_cap(client.keys["caps-file"], manifest), manifest, client

    def test_roundtrip_strings(self, read_cap):
        cap, _, _ = read_cap
        assert ReadCap.from_string(cap.to_string()) == cap
        verify = cap.attenuate()
        assert VerifyCap.from_string(verify.to_string()) == verify

    def test_attenuation_is_one_way(self, read_cap):
        """The verify cap exposes the storage index, never the key."""
        cap, _, _ = read_cap
        verify = cap.attenuate()
        assert verify.storage_index == storage_index_from_key(cap.key)
        assert cap.key not in verify.to_string().encode()
        assert len(verify.storage_index) == 16

    def test_verify_cap_binds_to_manifest(self, read_cap, cluster):
        cap, manifest, client = read_cap
        verify = cap.attenuate()
        assert check_verify_cap(verify, cap.key, manifest)
        other_manifest = client.store("other-file", b"different data", n=3, k=2)
        assert not check_verify_cap(verify, cap.key, other_manifest)

    def test_wrong_prefix_rejected(self):
        with pytest.raises(CapabilityError):
            ReadCap.from_string("URI:VERIFY:aaaa:bbbb")
        with pytest.raises(CapabilityError):
            VerifyCap.from_string("URI:READ:aaaa:bbbb")

    def test_distinct_keys_distinct_indices(self):
        assert storage_index_from_key(b"\x01" * 32) != storage_index_from_key(
            b"\x02" * 32
        )


class TestPlacement:
    def test_ring_matches_client_default(self, cluster):
        strategy = RingPlacement()
        selected = strategy.select(cluster, "file-x", 4)
        expected = [n.name for n in cluster.ring.successors("file-x", 4)]
        assert selected[:4] == expected
        assert len(selected) == len(cluster.nodes)  # full fallback ordering
        with pytest.raises(RuntimeError):
            strategy.select(cluster, "file-x", len(cluster.nodes) + 1)

    def test_capacity_aware_skips_full_nodes(self, cluster):
        ring_order = RingPlacement().select(cluster, "file-y", 10)
        # Fill the first-choice node completely.
        first = cluster.node(ring_order[0])
        first.put("filler", 0, b"\x00" * (first.capacity_bytes - 10))
        strategy = CapacityAwarePlacement(shard_bytes=1000)
        selected = strategy.select(cluster, "file-y", 4)
        assert ring_order[0] not in selected[:4]

    def test_capacity_aware_fails_when_impossible(self, cluster):
        for node in cluster.nodes.values():
            node.put("filler", 0, b"\x00" * (node.capacity_bytes - 10))
        strategy = CapacityAwarePlacement(shard_bytes=1000)
        with pytest.raises(RuntimeError):
            strategy.select(cluster, "file-z", 2)

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

    def test_latency_aware_skips_dead_nodes(self, cluster):
        cluster.network.crash("node-0")
        strategy = LatencyAwarePlacement()
        selected = strategy.select(cluster, "file-l", 5)
        assert "node-0" not in selected

    def test_place_with_strategy_end_to_end(self, cluster):
        client = DsnClient("owner", cluster)
        payload = b"strategic placement " * 40
        manifest = place_with_strategy(
            client, RingPlacement(), "strat-file", payload, n=5, k=2
        )
        assert len(manifest.shards) == 5
        assert client.retrieve(manifest) == payload

    def test_place_with_strategy_skips_full_nodes(self, cluster):
        # Choke every ring-preferred node except enough for the file.
        client = DsnClient("owner", cluster)
        order = RingPlacement().select(cluster, "strat-2", 10)
        full = cluster.node(order[0])
        full.put("filler", 0, b"\x00" * (full.capacity_bytes - 4))
        payload = b"\x01" * 2000
        manifest = place_with_strategy(
            client, RingPlacement(), "strat-2", payload, n=4, k=2
        )
        assert order[0] not in {s.provider for s in manifest.shards}
        assert client.retrieve(manifest) == payload
