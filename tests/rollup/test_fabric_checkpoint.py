"""Cross-shard checkpoint aggregation: sharding must not move a verdict.

Acceptance properties (ISSUE 4 tentpole, part 3):

* across the full PR 2 adversary strategy mix, the 4-lane fabric accepts
  and rejects exactly the file set the single-lane run does, epoch by
  epoch;
* a light client verifies any round from the 87-byte fabric commitment
  via a leaf → lane-root → fabric-root proof, and every tamper class
  (wrong lane set, flipped leaf, crossed epochs) is named and rejected;
* the per-lane fraud-proof grounds of the checkpoint contract survive
  sharding: a forged lane checkpoint is slashed on its own lane.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.adversary import StrategySpec, make_prover
from repro.chain import ShardedChainFabric, Transaction
from repro.chain.light_client import (
    CheckpointLightClient,
    audit_the_auditor_fabric,
)
from repro.core import DataOwner
from repro.engine import AuditExecutor, AuditInstance, EpochScheduler
from repro.randomness import HashChainBeacon
from repro.rollup import (
    FABRIC_COMMITMENT_BYTES,
    FabricCheckpoint,
    CrossShardAggregator,
    build_checkpoint,
    build_epoch_checkpoint,
    build_fabric_checkpoint,
)
from repro.rollup.fabric import roll_up
from repro.sim.workloads import archive_file

EPOCHS = 2
LANES = 4

#: The PR 2 strategy mix (mirrors tests/rollup/test_checkpoint_equivalence).
STRATEGY_MIX = (
    StrategySpec("honest", count=2),
    StrategySpec("forge"),
    StrategySpec("replay"),
    StrategySpec("selective", rho=0.5),
    StrategySpec("bitrot", rho=0.5),
    StrategySpec("offline", rho=1.0),
)


def _build_fleet(params):
    """Packages plus per-name deterministic strategy constructors.

    Strategy provers are stateful (replay caches its first proof,
    selective discards a random subset at construction), so each run gets
    its *own* prover instances seeded identically per file — the verdict
    sets can then be compared across runs.
    """
    rng = random.Random(0xFA8)
    owner = DataOwner(params, rng=rng)
    instances, specs = [], {}
    serial = 0
    for spec in STRATEGY_MIX:
        for _ in range(spec.count):
            package = owner.prepare(
                archive_file(900, tag=f"xshard-{serial}").data,
                fresh_keypair=serial == 0,
            )
            instances.append(AuditInstance.from_package(package, owner_id="xs"))
            specs[package.name] = (spec, package, serial)
            serial += 1
    return instances, specs


def _overrides(specs):
    overrides = {}
    for name, (spec, package, serial) in specs.items():
        if spec.kind == "honest":
            continue
        prover = make_prover(
            spec.kind, package, rng=random.Random(0xBEEF + serial), rho=spec.rho
        )
        overrides[name] = (
            lambda challenge, epoch, prover=prover: prover.respond_private(challenge)
        )
    return overrides


@pytest.fixture(scope="module")
def equivalence_run(params):
    """The same adversarial fleet settled single-lane and on a 4-lane fabric."""
    instances, specs = _build_fleet(params)
    beacon = HashChainBeacon(b"xshard-equivalence")

    with AuditExecutor(instances, workers=1) as executor:
        scheduler = EpochScheduler(
            executor, params, beacon, rng=random.Random(1)
        )
        for name, override in _overrides(specs).items():
            scheduler.set_override(name, override)
        single = [
            build_epoch_checkpoint(scheduler.run_epoch(epoch))
            for epoch in range(EPOCHS)
        ]

    with AuditExecutor(instances, workers=1) as executor:
        fabric = ShardedChainFabric(num_lanes=LANES)
        aggregator = CrossShardAggregator(
            fabric, executor, params, beacon, rng=random.Random(2)
        )
        for name, override in _overrides(specs).items():
            aggregator.set_override(name, override)
        sharded = aggregator.run(EPOCHS)

    return {
        "params": params,
        "beacon": beacon,
        "instances": instances,
        "specs": specs,
        "single": single,
        "sharded": sharded,
        "aggregator": aggregator,
        "fabric": fabric,
    }


class TestVerdictEquivalence:
    def test_accept_reject_sets_match_single_lane_run(self, equivalence_run):
        saw_accept = saw_reject = False
        for single_bundle, settlement in zip(
            equivalence_run["single"], equivalence_run["sharded"]
        ):
            assert set(settlement.accepted_names()) == set(
                single_bundle.accepted_names()
            ), f"epoch {settlement.epoch}: accepted sets diverge under sharding"
            assert set(settlement.rejected_names()) == set(
                single_bundle.rejected_names()
            ), f"epoch {settlement.epoch}: rejected sets diverge under sharding"
            saw_accept |= bool(single_bundle.accepted_names())
            saw_reject |= bool(single_bundle.rejected_names())
            # Counts in the super-commitment match the single-lane tree.
            fabric_ckpt = settlement.fabric.checkpoint
            assert fabric_ckpt.accepted == single_bundle.checkpoint.accepted
            assert fabric_ckpt.rejected == single_bundle.checkpoint.rejected
            assert fabric_ckpt.num_leaves == single_bundle.checkpoint.num_leaves
        assert saw_accept and saw_reject

    def test_every_instance_settles_on_its_placement_lane(self, equivalence_run):
        aggregator = equivalence_run["aggregator"]
        fabric = equivalence_run["fabric"]
        for settlement in equivalence_run["sharded"]:
            for lane_id, settled in settlement.lanes.items():
                for record in settled.bundle.records:
                    assert fabric.lane_index_for(record.name) == lane_id
        assert len(aggregator.pipelines) >= 2  # the mix actually sharded

    def test_lane_commitments_sit_on_their_lane_chain(self, equivalence_run):
        aggregator = equivalence_run["aggregator"]
        fabric = equivalence_run["fabric"]
        for lane_id, pipeline in aggregator.pipelines.items():
            assert (
                fabric.lane_index_of_contract(pipeline.contract_address) == lane_id
            )
            assert len(pipeline.contract.checkpoints) == EPOCHS


class TestFabricInclusion:
    @pytest.fixture()
    def client(self, equivalence_run):
        return CheckpointLightClient(
            equivalence_run["aggregator"].export_instance_registry(),
            equivalence_run["params"],
            equivalence_run["beacon"],
        )

    def test_every_round_verifiable_from_fabric_commitment(
        self, equivalence_run, client
    ):
        for settlement in equivalence_run["sharded"]:
            bundle = settlement.fabric
            for _, lane_bundle in bundle.lanes:
                for record in lane_bundle.records:
                    proof = bundle.prove(record.name)
                    assert bundle.verify_inclusion(proof)
                    outcome = client.verify_fabric_inclusion(
                        bundle.checkpoint, proof
                    )
                    assert outcome.ok, (record.name, outcome.reason)

    def test_commitment_byte_layout_round_trips(self, equivalence_run):
        commitment = equivalence_run["sharded"][0].fabric.checkpoint
        encoded = commitment.to_bytes()
        assert len(encoded) == FABRIC_COMMITMENT_BYTES == commitment.byte_size()
        assert FabricCheckpoint.from_bytes(encoded) == commitment
        with pytest.raises(ValueError):
            FabricCheckpoint.from_bytes(encoded[:-1])
        with pytest.raises(ValueError):
            FabricCheckpoint.from_bytes(bytes([0xFF]) + encoded[1:])

    def test_flipped_leaf_is_named_by_the_fabric_path(
        self, equivalence_run, client
    ):
        settlement = equivalence_run["sharded"][0]
        bundle = settlement.fabric
        lane_id, lane_bundle = bundle.lanes[0]
        flipped = list(lane_bundle.records)
        flipped[0] = flipped[0].flipped()
        forged_lane = build_checkpoint(settlement.epoch, tuple(flipped))
        forged_fabric = build_fabric_checkpoint(
            settlement.epoch,
            [(lane_id, forged_lane)]
            + [(l, b) for l, b in bundle.lanes if l != lane_id],
        )
        proof = forged_fabric.prove(flipped[0].name)
        outcome = client.verify_fabric_inclusion(
            forged_fabric.checkpoint, proof
        )
        assert not outcome.ok and outcome.reason == "verdict-flipped"
        # The forged lane cannot be proven into the honest fabric root.
        crossed = client.verify_fabric_inclusion(bundle.checkpoint, proof)
        assert not crossed.ok and crossed.reason == "lane-not-included"

    def test_proof_must_open_the_record_it_claims(self, equivalence_run, client):
        """A DA server cannot answer a query about file X with some other
        (genuinely included, genuinely accepted) record."""
        from repro.rollup import FabricInclusionProof

        bundle = equivalence_run["sharded"][0].fabric
        _, lane_bundle = bundle.lanes[0]
        names = [record.name for record in lane_bundle.records]
        target = next(
            r.name
            for _, b in bundle.lanes
            for r in b.records
            if r.name not in names
        )
        honest_other = bundle.prove(names[0])
        forged = FabricInclusionProof(
            name=target,
            lane_id=honest_other.lane_id,
            lane_proof=honest_other.lane_proof,
            leaf_proof=honest_other.leaf_proof,
        )
        outcome = client.verify_fabric_inclusion(bundle.checkpoint, forged)
        assert not outcome.ok and outcome.reason == "name-mismatch"

    def test_placement_rule_enforced_when_lane_count_known(
        self, equivalence_run
    ):
        from repro.rollup import FabricInclusionProof

        strict = CheckpointLightClient(
            equivalence_run["aggregator"].export_instance_registry(),
            equivalence_run["params"],
            equivalence_run["beacon"],
            fabric_lanes=LANES,
        )
        bundle = equivalence_run["sharded"][0].fabric
        record = bundle.lanes[0][1].records[0]
        honest = bundle.prove(record.name)
        assert strict.verify_fabric_inclusion(bundle.checkpoint, honest).ok
        misplaced = FabricInclusionProof(
            name=honest.name,
            lane_id=(honest.lane_id + 1) % LANES,
            lane_proof=honest.lane_proof,
            leaf_proof=honest.leaf_proof,
        )
        outcome = strict.verify_fabric_inclusion(bundle.checkpoint, misplaced)
        assert not outcome.ok and outcome.reason == "lane-misplaced"

    def test_epoch_crossed_lane_commitment_is_rejected(
        self, equivalence_run, client
    ):
        first = equivalence_run["sharded"][0].fabric
        second = equivalence_run["sharded"][1].fabric
        lane_id, _ = first.lanes[0]
        # Graft epoch 1's lane bundle under epoch 0's other lanes.
        mixed = build_fabric_checkpoint(
            second.checkpoint.epoch,
            [(lane_id, second.lane_bundle(lane_id))]
            + [(l, b) for l, b in second.lanes if l != lane_id],
        )
        proof = mixed.prove(second.lane_bundle(lane_id).records[0].name)
        # Proof verifies against its own commitment...
        assert client.verify_fabric_inclusion(mixed.checkpoint, proof).ok
        # ...but a stale fabric commitment rejects the crossed lane.
        outcome = client.verify_fabric_inclusion(first.checkpoint, proof)
        assert not outcome.ok and outcome.reason == "lane-not-included"

    def test_build_rejects_mixed_epochs_and_duplicate_lanes(
        self, equivalence_run
    ):
        first = equivalence_run["sharded"][0].fabric
        second = equivalence_run["sharded"][1].fabric
        with pytest.raises(ValueError):
            build_fabric_checkpoint(0, list(first.lanes) + [second.lanes[0]])
        with pytest.raises(ValueError):
            build_fabric_checkpoint(0, [first.lanes[0], first.lanes[0]])
        with pytest.raises(ValueError):
            build_fabric_checkpoint(0, [])

    def test_fabric_replay_is_consistent(self, equivalence_run):
        report = audit_the_auditor_fabric(equivalence_run["aggregator"])
        assert report.consistent
        assert report.checkpoints_checked == EPOCHS * len(
            equivalence_run["aggregator"].pipelines
        )


    def test_served_super_commitment_must_be_the_lane_roll_up(
        self, equivalence_run, client
    ):
        """Counts, digest and lane set are checked, not just ``fabric_root``.

        Inclusion proofs open the root only, so a ``checkpoint_get`` reply
        with any counts or digest used to pass every check there was.
        """
        aggregator = equivalence_run["aggregator"]
        settlement = aggregator.settled[0]
        honest = settlement.fabric.checkpoint
        on_chain = [
            pipeline.chain.call(
                pipeline.contract_address, "checkpoint_for_epoch", settlement.epoch
            )
            for _, pipeline in sorted(aggregator.pipelines.items())
        ]
        assert client.verify_fabric_rollup(honest, on_chain)
        assert honest.accepted != honest.rejected
        forgeries = {
            "swapped counts": dataclasses.replace(
                honest, accepted=honest.rejected, rejected=honest.accepted
            ),
            "wrong lanes_digest": dataclasses.replace(
                honest, lanes_digest=bytes(32)
            ),
            "dropped lane": roll_up(settlement.epoch, on_chain[1:])[0],
        }
        for label, forged in forgeries.items():
            assert not client.verify_fabric_rollup(forged, on_chain), label
        # The full audit runs the same check for every settled epoch.
        aggregator.settled[0] = dataclasses.replace(
            settlement,
            fabric=dataclasses.replace(
                settlement.fabric, checkpoint=forgeries["swapped counts"]
            ),
        )
        try:
            report = audit_the_auditor_fabric(aggregator)
        finally:
            aggregator.settled[0] = settlement
        assert report.root_mismatches == [settlement.epoch]
        assert not report.consistent and not report.disagreements

    def test_fabric_replay_audits_the_aggregators_published_leaf_sets(
        self, equivalence_run
    ):
        """The replay reads ``aggregator.settled``, the record the RPC
        service serves: a leaf set swapped there is what gets audited."""
        aggregator = equivalence_run["aggregator"]
        settlement = aggregator.settled[0]
        lane_id = min(settlement.lanes)
        honest = settlement.lanes[lane_id]
        records = list(honest.bundle.records)
        records[0] = records[0].flipped()
        settlement.lanes[lane_id] = dataclasses.replace(
            honest, bundle=build_checkpoint(settlement.epoch, tuple(records))
        )
        try:
            report = audit_the_auditor_fabric(aggregator)
        finally:
            settlement.lanes[lane_id] = honest
        assert not report.consistent
        assert report.root_mismatches == [settlement.epoch]
        assert report.disagreements == [(settlement.epoch, records[0].name)]


class TestPerLaneFraudGrounds:
    def test_forged_lane_checkpoint_is_slashed_on_its_lane(
        self, equivalence_run
    ):
        aggregator = equivalence_run["aggregator"]
        fabric = equivalence_run["fabric"]
        lane_id = min(aggregator.pipelines)
        pipeline = aggregator.pipelines[lane_id]
        lane = fabric.lane(lane_id)
        _, honest = pipeline.audit_epoch(EPOCHS)
        records = list(honest.records)
        records[0] = records[0].flipped()
        forged = build_checkpoint(EPOCHS, tuple(records))
        receipt = lane.transact(
            Transaction(
                sender=pipeline.aggregator,
                to=pipeline.contract_address,
                method="post_checkpoint",
                args=(forged.checkpoint.to_bytes(),),
                value=pipeline.contract.posting_bond_wei,
            ),
            payload_bytes=forged.checkpoint.byte_size(),
        )
        assert receipt.success
        challenger = lane.create_account(1.0, label="challenger")
        opening = forged.prove(records[0].name)
        challenge_receipt = lane.transact(
            Transaction(
                sender=challenger,
                to=pipeline.contract_address,
                method="challenge_leaf",
                args=(
                    receipt.return_value,
                    opening.leaf_data,
                    opening.leaf_index,
                    opening.siblings,
                    opening.directions,
                ),
                value=pipeline.contract.challenge_bond_wei,
            ),
            payload_bytes=len(opening.leaf_data) + 32 * len(opening.siblings),
        )
        assert challenge_receipt.success
        assert any(
            e.name == "checkpoint_slashed" for e in challenge_receipt.events
        )
