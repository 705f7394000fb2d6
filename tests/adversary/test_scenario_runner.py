"""ScenarioRunner through the engine, plus byzantine DSN nodes."""

from __future__ import annotations

import pytest

from repro.adversary import ScenarioRunner, StrategySpec
from repro.core import ProtocolParams
from repro.sim.workloads import adversarial_fleet_mix
from repro.storage import DsnClient, DsnCluster


@pytest.fixture(scope="module")
def full_mix_report():
    runner = ScenarioRunner(
        [
            StrategySpec("honest", count=2),
            StrategySpec("forge"),
            StrategySpec("replay"),
            StrategySpec("selective", rho=0.4),
            StrategySpec("bitrot", rho=0.4),
            StrategySpec("offline", rho=1.0),
        ],
        params=ProtocolParams(s=4, k=4),
        file_bytes=1200,
    )
    return runner, runner.run(epochs=2)


class TestScenarioRunner:
    def test_no_false_accepts_or_rejects_across_the_mix(self, full_mix_report):
        _, report = full_mix_report
        assert report.zero_false_accepts
        assert report.zero_false_rejects

    def test_per_strategy_detection_counts(self, full_mix_report):
        _, report = full_mix_report
        assert report.stats["honest"].detected == 0
        assert report.stats["forge"].detected == report.epochs
        # replay: honest in its first answered epoch, caught afterwards
        assert report.stats["replay"].detected == report.epochs - 1
        # churn at rho=1.0 never answers: every audit is a timeout detection
        assert report.stats["offline"].detected == report.epochs

    def test_rejections_localize_to_adversarial_files(self, full_mix_report):
        runner, report = full_mix_report
        adversarial = {
            name for name, (kind, _) in runner.kinds.items() if kind != "honest"
        }
        for _, rejected in report.rejected_log:
            assert set(rejected) <= adversarial

    def test_summary_lines_render(self, full_mix_report):
        _, report = full_mix_report
        text = "\n".join(report.summary_lines())
        for kind in ("honest", "forge", "replay", "selective", "bitrot"):
            assert kind in text
        assert "false accepts: 0" in text

    def test_duplicate_kinds_rejected(self):
        with pytest.raises(ValueError):
            ScenarioRunner(
                [StrategySpec("forge"), StrategySpec("forge")],
                params=ProtocolParams(s=4, k=3),
            )


class TestByzantineStorageNode:
    """A provider misbehaving at the shard interface is a plain
    ``StorageNode`` under fault injection: ``drop_file`` keeps nothing
    (selective storage), ``corrupt_shard`` rots a shard in place, and a
    network crash takes the node offline."""

    def _cluster(self) -> tuple[DsnCluster, DsnClient]:
        cluster = DsnCluster()
        for index in range(6):
            cluster.add_node(f"node-{index}")
        return cluster, DsnClient("owner", cluster)

    @pytest.mark.parametrize("mode", ["selective", "bitrot", "offline"])
    def test_redundancy_rides_out_one_byzantine_node(self, mode):
        cluster, client = self._cluster()
        payload = b"adversarial shard payload " * 40
        manifest = client.store("file-x", payload, n=6, k=2)
        bad = manifest.shards[0]  # the first shard retrieval tries
        node = cluster.node(bad.provider)
        if mode == "selective":
            assert node.drop_file("file-x") == 1
        elif mode == "bitrot":
            assert node.corrupt_shard("file-x", bad.shard_index)
        else:
            cluster.network.crash(node.name)
        assert client.retrieve(manifest) == payload

    def test_bitrot_shard_fails_checksum(self):
        cluster, client = self._cluster()
        payload = b"checksummed payload " * 32
        manifest = client.store("file-y", payload, n=6, k=2)
        victim = manifest.shards[0]
        assert cluster.node(victim.provider).corrupt_shard(
            "file-y", victim.shard_index
        )
        # retrieval skips the corrupted shard and still succeeds
        assert client.retrieve(manifest) == payload


def test_runner_accepts_plain_pairs_from_workloads():
    """The sim.workloads mix shape feeds ScenarioRunner directly."""
    runner = ScenarioRunner(
        adversarial_fleet_mix(
            honest=1, cheaters_per_strategy=1, strategies=("forge",)
        ),
        params=ProtocolParams(s=4, k=3),
        file_bytes=600,
    )
    assert {kind for kind, _ in runner.kinds.values()} == {"honest", "forge"}


def test_adversarial_fleet_mix_shape():
    mix = adversarial_fleet_mix(honest=4, cheaters_per_strategy=1)
    assert ("honest", 4) in mix
    kinds = [kind for kind, _ in mix]
    for kind in ("forge", "replay", "selective", "bitrot", "offline"):
        assert kind in kinds
    assert adversarial_fleet_mix(honest=0)[0][0] == "forge"
    with pytest.raises(ValueError):
        adversarial_fleet_mix(honest=-1)
