"""CheckpointContract: bonded posting, fraud proofs, slashing, finality.

The acceptance property under test: a tampered checkpoint — flipped
verdict (either direction), substituted challenge, unregistered file — is
caught and slashed via the fraud-proof window, while honest checkpoints
finalize and frivolous challenges forfeit their bond.
"""

from __future__ import annotations

import random

import pytest

from repro.chain import (
    Blockchain,
    CheckpointContract,
    CheckpointStatus,
    ReputationRegistry,
    Transaction,
)
from repro.core import DataOwner
from repro.engine import AuditExecutor, AuditInstance, EpochScheduler
from repro.randomness import HashChainBeacon
from repro.rollup import RoundRecord, build_checkpoint, build_epoch_checkpoint
from repro.sim.workloads import archive_file

WINDOW = 500.0


@pytest.fixture(scope="module")
def rollup_env(params):
    """Three settled epochs' worth of bundles over a 4-file fleet.

    Epoch 2 includes one withheld response (override returning ``None``),
    so its bundle carries a genuine ``no-proof`` rejection — the leaf the
    reject->accept forgery test flips.
    """
    rng = random.Random(0xC4E0)
    owner = DataOwner(params, rng=rng)
    instances = []
    for index in range(4):
        package = owner.prepare(
            archive_file(900, tag=f"ckpt-{index}").data,
            fresh_keypair=index == 0,
        )
        instances.append(AuditInstance.from_package(package, owner_id="ckpt"))
    beacon = HashChainBeacon(b"checkpoint-contract-test")
    with AuditExecutor(instances, workers=1) as executor:
        scheduler = EpochScheduler(
            executor, params, beacon, rng=rng
        )
        bundles = {
            0: build_epoch_checkpoint(scheduler.run_epoch(0)),
            1: build_epoch_checkpoint(scheduler.run_epoch(1)),
        }
        withheld_name = instances[-1].name
        scheduler.set_override(withheld_name, lambda challenge, epoch: None)
        bundles[2] = build_epoch_checkpoint(scheduler.run_epoch(2))
    return {
        "params": params,
        "beacon": beacon,
        "instances": instances,
        "bundles": bundles,
        "withheld_name": withheld_name,
    }


@pytest.fixture()
def deployed(rollup_env):
    """A fresh chain + contract with every instance registered."""
    chain = Blockchain(block_time=15.0)
    aggregator = chain.create_account(10.0, label="aggregator")
    challenger = chain.create_account(10.0, label="challenger")
    contract = CheckpointContract(
        rollup_env["beacon"], rollup_env["params"], fraud_window=WINDOW
    )
    address = chain.deploy(contract, deployer=aggregator)
    for instance in rollup_env["instances"]:
        receipt = chain.transact(
            Transaction(
                sender=aggregator,
                to=address,
                method="register_instance",
                args=(instance.name, instance.public.to_bytes(), instance.num_chunks),
            )
        )
        assert receipt.success, receipt.error
    return chain, contract, address, aggregator, challenger


def _post(chain, contract, address, sender, bundle):
    receipt = chain.transact(
        Transaction(
            sender=sender,
            to=address,
            method="post_checkpoint",
            args=(bundle.checkpoint.to_bytes(),),
            value=contract.posting_bond_wei,
        ),
        payload_bytes=bundle.checkpoint.byte_size(),
    )
    assert receipt.success, receipt.error
    return receipt.return_value


def _challenge(chain, contract, address, sender, checkpoint_id, proof):
    return chain.transact(
        Transaction(
            sender=sender,
            to=address,
            method="challenge_leaf",
            args=(
                checkpoint_id,
                proof.leaf_data,
                proof.leaf_index,
                proof.siblings,
                proof.directions,
            ),
            value=contract.challenge_bond_wei,
        ),
        payload_bytes=len(proof.leaf_data) + 32 * len(proof.siblings),
    )


class TestPostingAndFinality:
    def test_honest_checkpoint_finalizes_and_refunds_bond(self, rollup_env, deployed):
        chain, contract, address, aggregator, _ = deployed
        supply = chain.total_supply()
        checkpoint_id = _post(
            chain, contract, address, aggregator, rollup_env["bundles"][0]
        )
        entry = contract.checkpoints[checkpoint_id]
        assert entry.status is CheckpointStatus.OPEN
        assert entry.bond_wei == contract.posting_bond_wei

        early = chain.transact(
            Transaction(sender=aggregator, to=address,
                        method="finalize_checkpoint", args=(checkpoint_id,))
        )
        assert not early.success and "window still open" in early.error

        chain.advance_time(WINDOW + chain.block_time)
        receipt = chain.transact(
            Transaction(sender=aggregator, to=address,
                        method="finalize_checkpoint", args=(checkpoint_id,))
        )
        assert receipt.success, receipt.error
        entry = contract.checkpoints[checkpoint_id]  # storage is written by replacement
        assert entry.status is CheckpointStatus.FINAL
        assert entry.bond_wei == 0
        assert chain.total_supply() == supply  # nothing minted or burned

    def test_commitment_is_85_bytes_per_epoch(self, rollup_env, deployed):
        chain, contract, address, aggregator, _ = deployed
        for epoch in (0, 1):
            _post(chain, contract, address, aggregator, rollup_env["bundles"][epoch])
        assert contract.total_commitment_bytes() == 2 * 85
        assert contract.audited_rounds() == 8  # 4 files x 2 epochs

    def test_duplicate_epoch_and_bad_commitment_rejected(self, rollup_env, deployed):
        chain, contract, address, aggregator, _ = deployed
        _post(chain, contract, address, aggregator, rollup_env["bundles"][0])
        duplicate = chain.transact(
            Transaction(
                sender=aggregator, to=address, method="post_checkpoint",
                args=(rollup_env["bundles"][0].checkpoint.to_bytes(),),
                value=contract.posting_bond_wei,
            )
        )
        assert not duplicate.success and "already checkpointed" in duplicate.error
        garbage = chain.transact(
            Transaction(
                sender=aggregator, to=address, method="post_checkpoint",
                args=(b"\x00" * 10,), value=contract.posting_bond_wei,
            )
        )
        assert not garbage.success and "bad commitment" in garbage.error
        unbonded = chain.transact(
            Transaction(
                sender=aggregator, to=address, method="post_checkpoint",
                args=(rollup_env["bundles"][1].checkpoint.to_bytes(),), value=0,
            )
        )
        assert not unbonded.success and "posting bond" in unbonded.error


class TestFraudProofs:
    def test_flipped_accept_to_reject_is_slashed(self, rollup_env, deployed):
        chain, contract, address, aggregator, challenger = deployed
        bundle = rollup_env["bundles"][0]
        records = list(bundle.records)
        records[1] = records[1].flipped()  # honest pass committed as fail
        forged = build_checkpoint(0, tuple(records))
        checkpoint_id = _post(chain, contract, address, aggregator, forged)

        before = chain.balance_of(challenger)
        receipt = _challenge(
            chain, contract, address, challenger, checkpoint_id,
            forged.prove(records[1].name),
        )
        assert receipt.success, receipt.error
        names = [e.name for e in receipt.events]
        assert names == ["checkpoint_challenged", "checkpoint_slashed"]
        entry = contract.checkpoints[checkpoint_id]
        assert entry.status is CheckpointStatus.SLASHED
        assert "verdict-flipped" in entry.fraud_reason
        # Bounty: the poster's bond net of gas fees lands with the challenger.
        assert chain.balance_of(challenger) > before

    def test_flipped_reject_to_accept_is_slashed(self, rollup_env, deployed):
        chain, contract, address, aggregator, challenger = deployed
        bundle = rollup_env["bundles"][2]
        withheld = rollup_env["withheld_name"]
        records = list(bundle.records)
        index = next(i for i, r in enumerate(records) if r.name == withheld)
        assert not records[index].verdict  # genuine no-proof rejection
        records[index] = records[index].flipped()  # forged into a pass
        forged = build_checkpoint(2, tuple(records))
        checkpoint_id = _post(chain, contract, address, aggregator, forged)

        receipt = _challenge(
            chain, contract, address, challenger, checkpoint_id,
            forged.prove(withheld),
        )
        assert receipt.success, receipt.error
        entry = contract.checkpoints[checkpoint_id]
        assert entry.status is CheckpointStatus.SLASHED
        assert "committed pass, re-verification says fail" in entry.fraud_reason

    def test_substituted_challenge_is_slashed(self, rollup_env, deployed):
        """An aggregator cannot swap in a favorable (non-beacon) challenge."""
        chain, contract, address, aggregator, challenger = deployed
        bundle0, bundle1 = rollup_env["bundles"][0], rollup_env["bundles"][1]
        victim = bundle1.records[0]
        wrong_challenge = bundle0.record_for(victim.name).challenge_bytes
        records = list(bundle1.records)
        records[0] = RoundRecord(
            name=victim.name,
            epoch=victim.epoch,
            challenge_bytes=wrong_challenge,  # epoch 0's challenge in epoch 1
            proof_bytes=victim.proof_bytes,
            verdict=victim.verdict,
            reject_code=victim.reject_code,
        )
        forged = build_checkpoint(1, tuple(records))
        checkpoint_id = _post(chain, contract, address, aggregator, forged)
        receipt = _challenge(
            chain, contract, address, challenger, checkpoint_id,
            forged.prove(victim.name),
        )
        assert receipt.success, receipt.error
        entry = contract.checkpoints[checkpoint_id]
        assert entry.status is CheckpointStatus.SLASHED
        assert "challenge-mismatch" in entry.fraud_reason

    def test_frivolous_challenge_forfeits_bond(self, rollup_env, deployed):
        chain, contract, address, aggregator, challenger = deployed
        bundle = rollup_env["bundles"][0]
        checkpoint_id = _post(chain, contract, address, aggregator, bundle)
        poster_before = chain.balance_of(aggregator)
        receipt = _challenge(
            chain, contract, address, challenger, checkpoint_id,
            bundle.prove(bundle.records[0].name),
        )
        assert receipt.success, receipt.error
        assert [e.name for e in receipt.events] == [
            "checkpoint_challenged", "checkpoint_upheld",
        ]
        entry = contract.checkpoints[checkpoint_id]
        assert entry.status is CheckpointStatus.OPEN  # still challengeable
        assert (
            chain.balance_of(aggregator)
            == poster_before + contract.challenge_bond_wei
        )

    def test_bogus_inclusion_proof_reverts(self, rollup_env, deployed):
        chain, contract, address, aggregator, challenger = deployed
        bundle = rollup_env["bundles"][0]
        checkpoint_id = _post(chain, contract, address, aggregator, bundle)
        proof = bundle.prove(bundle.records[0].name)
        tampered = type(proof)(
            leaf_index=proof.leaf_index,
            leaf_data=proof.leaf_data + b"\x00",  # not the committed leaf
            siblings=proof.siblings,
            directions=proof.directions,
        )
        receipt = _challenge(
            chain, contract, address, challenger, checkpoint_id, tampered
        )
        assert not receipt.success
        assert "does not open the committed root" in receipt.error
        assert contract.checkpoints[checkpoint_id].status is CheckpointStatus.OPEN

    def test_window_closes_challenges(self, rollup_env, deployed):
        chain, contract, address, aggregator, challenger = deployed
        records = list(rollup_env["bundles"][0].records)
        records[0] = records[0].flipped()
        forged = build_checkpoint(0, tuple(records))
        checkpoint_id = _post(chain, contract, address, aggregator, forged)
        chain.advance_time(WINDOW + chain.block_time)
        receipt = _challenge(
            chain, contract, address, challenger, checkpoint_id,
            forged.prove(records[0].name),
        )
        assert not receipt.success and "window closed" in receipt.error
        # The forgery survives only as a *finalized* commitment — the
        # window is the trust assumption, exactly as in optimistic rollups.

    def test_slashed_checkpoint_cannot_finalize(self, rollup_env, deployed):
        chain, contract, address, aggregator, challenger = deployed
        records = list(rollup_env["bundles"][0].records)
        records[0] = records[0].flipped()
        forged = build_checkpoint(0, tuple(records))
        checkpoint_id = _post(chain, contract, address, aggregator, forged)
        assert _challenge(
            chain, contract, address, challenger, checkpoint_id,
            forged.prove(records[0].name),
        ).success
        chain.advance_time(WINDOW + chain.block_time)
        receipt = chain.transact(
            Transaction(sender=aggregator, to=address,
                        method="finalize_checkpoint", args=(checkpoint_id,))
        )
        assert not receipt.success and "slashed" in receipt.error


class TestSlanderAndCounts:
    """The fraud grounds a single honest leaf opening cannot expose."""

    def test_no_proof_slander_rebutted_with_counterproof(
        self, rollup_env, deployed
    ):
        """An aggregator marking an *answered* round as withheld is caught.

        The slanderous leaf is internally consistent (empty proof
        re-verifies to reject), so a plain opening is upheld — the wronged
        provider instead submits the real proof for the epoch's beacon
        challenge as a counterproof, which a correct aggregator's
        ``no-proof`` record could never coexist with.
        """
        chain, contract, address, aggregator, challenger = deployed
        bundle = rollup_env["bundles"][0]
        victim = bundle.records[0]
        assert victim.verdict and victim.proof_bytes  # genuinely answered
        slander = RoundRecord(
            name=victim.name,
            epoch=victim.epoch,
            challenge_bytes=victim.challenge_bytes,
            proof_bytes=b"",
            verdict=False,
            reject_code="no-proof",
        )
        records = list(bundle.records)
        records[0] = slander
        forged = build_checkpoint(0, tuple(records))
        checkpoint_id = _post(chain, contract, address, aggregator, forged)

        # Without the counterproof the slander is self-consistent: upheld.
        plain = _challenge(
            chain, contract, address, challenger, checkpoint_id,
            forged.prove(victim.name),
        )
        assert plain.success and "checkpoint_upheld" in [
            e.name for e in plain.events
        ]
        entry = contract.checkpoints[checkpoint_id]
        assert entry.status is CheckpointStatus.OPEN

        # With the provider's real proof attached, the lie is provable.
        opening = forged.prove(victim.name)
        receipt = chain.transact(
            Transaction(
                sender=challenger,
                to=address,
                method="challenge_leaf",
                args=(
                    checkpoint_id,
                    opening.leaf_data,
                    opening.leaf_index,
                    opening.siblings,
                    opening.directions,
                    victim.proof_bytes,  # the counterproof
                ),
                value=contract.challenge_bond_wei,
            )
        )
        assert receipt.success, receipt.error
        entry = contract.checkpoints[checkpoint_id]  # storage is written by replacement
        assert entry.status is CheckpointStatus.SLASHED
        assert "rejection-rebutted" in entry.fraud_reason
        # The voided epoch is settleable again: a correct aggregator can
        # post the honest checkpoint for the same epoch afterwards.
        assert contract.checkpoint_for_epoch(None, 0) is None
        honest_id = _post(chain, contract, address, aggregator, bundle)
        assert contract.checkpoints[honest_id].status is CheckpointStatus.OPEN
        assert contract.checkpoint_for_epoch(None, 0) == bundle.checkpoint

    def test_garbage_proof_slander_rebutted_with_counterproof(
        self, rollup_env, deployed
    ):
        """Slander variant: the aggregator substitutes garbage proof bytes
        (a self-consistent 'pairing-mismatch' rejection) for a round the
        provider answered.  The counterproof still wins."""
        chain, contract, address, aggregator, challenger = deployed
        bundle = rollup_env["bundles"][0]
        victim = bundle.records[0]
        assert victim.verdict
        slander = RoundRecord(
            name=victim.name,
            epoch=victim.epoch,
            challenge_bytes=victim.challenge_bytes,
            proof_bytes=b"\x00" * len(victim.proof_bytes),
            verdict=False,
            reject_code="pairing-mismatch",
        )
        records = list(bundle.records)
        records[0] = slander
        forged = build_checkpoint(0, tuple(records))
        checkpoint_id = _post(chain, contract, address, aggregator, forged)
        opening = forged.prove(victim.name)
        receipt = chain.transact(
            Transaction(
                sender=challenger,
                to=address,
                method="challenge_leaf",
                args=(
                    checkpoint_id,
                    opening.leaf_data,
                    opening.leaf_index,
                    opening.siblings,
                    opening.directions,
                    victim.proof_bytes,
                ),
                value=contract.challenge_bond_wei,
            )
        )
        assert receipt.success, receipt.error
        entry = contract.checkpoints[checkpoint_id]
        assert entry.status is CheckpointStatus.SLASHED
        assert "rejection-rebutted" in entry.fraud_reason

    def test_garbage_counterproof_does_not_slash(self, rollup_env, deployed):
        """A bogus counterproof cannot turn an honest withheld leaf into
        fraud: epoch 2's genuine no-proof rejection stands."""
        chain, contract, address, aggregator, challenger = deployed
        bundle = rollup_env["bundles"][2]
        withheld = rollup_env["withheld_name"]
        checkpoint_id = _post(chain, contract, address, aggregator, bundle)
        opening = bundle.prove(withheld)
        receipt = chain.transact(
            Transaction(
                sender=challenger,
                to=address,
                method="challenge_leaf",
                args=(
                    checkpoint_id,
                    opening.leaf_data,
                    opening.leaf_index,
                    opening.siblings,
                    opening.directions,
                    b"\x07" * 288,  # structurally plausible, cryptographically junk
                ),
                value=contract.challenge_bond_wei,
            )
        )
        assert receipt.success, receipt.error
        entry = contract.checkpoints[checkpoint_id]
        assert entry.status is CheckpointStatus.OPEN  # upheld, not slashed

    def test_forged_counts_slashed_via_full_data_challenge(
        self, rollup_env, deployed
    ):
        """Forged accepted/rejected counts over an honest root are caught
        by the full-leaf-set challenge (hashing only, no pairings)."""
        from repro.rollup import Checkpoint

        chain, contract, address, aggregator, challenger = deployed
        bundle = rollup_env["bundles"][0]
        honest = bundle.checkpoint
        forged = Checkpoint(
            epoch=honest.epoch,
            root=honest.root,                      # honest tree...
            accepted=0,                            # ...libellous summary
            rejected=honest.num_leaves,
            num_leaves=honest.num_leaves,
            proof_digest=honest.proof_digest,
        )
        receipt = chain.transact(
            Transaction(
                sender=aggregator, to=address, method="post_checkpoint",
                args=(forged.to_bytes(),), value=contract.posting_bond_wei,
            )
        )
        assert receipt.success
        checkpoint_id = receipt.return_value
        leaves = tuple(r.to_bytes() for r in bundle.records)
        challenge = chain.transact(
            Transaction(
                sender=challenger, to=address, method="challenge_counts",
                args=(checkpoint_id, leaves),
                value=contract.challenge_bond_wei,
            ),
            payload_bytes=sum(len(leaf) for leaf in leaves),
        )
        assert challenge.success, challenge.error
        entry = contract.checkpoints[checkpoint_id]
        assert entry.status is CheckpointStatus.SLASHED
        assert "count-mismatch" in entry.fraud_reason

    def test_counts_challenge_needs_the_committed_leaves(
        self, rollup_env, deployed
    ):
        chain, contract, address, aggregator, challenger = deployed
        bundle = rollup_env["bundles"][0]
        checkpoint_id = _post(chain, contract, address, aggregator, bundle)
        wrong = tuple(r.to_bytes() for r in rollup_env["bundles"][1].records)
        receipt = chain.transact(
            Transaction(
                sender=challenger, to=address, method="challenge_counts",
                args=(checkpoint_id, wrong),
                value=contract.challenge_bond_wei,
            )
        )
        assert not receipt.success
        assert "do not rebuild the committed root" in receipt.error

    def test_a_partial_leaf_set_reverts_its_booked_gas(self, rollup_env, deployed):
        """The counts challenge books its hashing gas on the entry before the
        root check refuses a partial set: the revert takes the booking back."""
        chain, contract, address, aggregator, challenger = deployed
        bundle = rollup_env["bundles"][0]
        checkpoint_id = _post(chain, contract, address, aggregator, bundle)
        entry = contract.checkpoints[checkpoint_id]
        partial = tuple(r.to_bytes() for r in bundle.records)[:-1]
        receipt = chain.transact(
            Transaction(
                sender=challenger, to=address, method="challenge_counts",
                args=(checkpoint_id, partial),
                value=contract.challenge_bond_wei,
            )
        )
        assert not receipt.success and "partial-leaf-set" in receipt.error
        assert contract.checkpoints[checkpoint_id] is entry
        assert contract.checkpoints[checkpoint_id].gas_used == entry.gas_used

    def test_frivolous_counts_challenge_forfeits_bond(
        self, rollup_env, deployed
    ):
        chain, contract, address, aggregator, challenger = deployed
        bundle = rollup_env["bundles"][0]
        checkpoint_id = _post(chain, contract, address, aggregator, bundle)
        poster_before = chain.balance_of(aggregator)
        leaves = tuple(r.to_bytes() for r in bundle.records)
        receipt = chain.transact(
            Transaction(
                sender=challenger, to=address, method="challenge_counts",
                args=(checkpoint_id, leaves),
                value=contract.challenge_bond_wei,
            )
        )
        assert receipt.success, receipt.error
        entry = contract.checkpoints[checkpoint_id]
        assert entry.status is CheckpointStatus.OPEN
        assert (
            chain.balance_of(aggregator)
            == poster_before + contract.challenge_bond_wei
        )


def _malformed_keys(public_key_bytes: bytes) -> dict[str, bytes]:
    """Non-canonical encodings of one valid key, each of which decoded
    before ``PublicKey.from_bytes`` checked the framing."""
    count = int.from_bytes(public_key_bytes[:4], "big")
    return {
        "trailing junk": public_key_bytes + b"junk",
        "flag 7": public_key_bytes[:4] + b"\x07" + public_key_bytes[5:],
        "count 0": b"\x00" * 4 + b"\x00" + public_key_bytes[5 : 5 + 128],
        "truncated": public_key_bytes[:-1],
        "count says one more": (count + 1).to_bytes(4, "big") + public_key_bytes[4:],
    }


class TestRegistrationDecoding:
    @pytest.mark.parametrize(
        "case",
        ["trailing junk", "flag 7", "count 0", "truncated", "count says one more"],
    )
    def test_non_canonical_key_bytes_revert(self, rollup_env, deployed, case):
        chain, contract, address, aggregator, _ = deployed
        encoded = rollup_env["instances"][0].public.to_bytes()
        name = 0xBAD0
        receipt = chain.transact(
            Transaction(
                sender=aggregator,
                to=address,
                method="register_instance",
                args=(name, _malformed_keys(encoded)[case], 3),
            )
        )
        assert not receipt.success
        assert "bad public key bytes" in receipt.error
        assert name not in contract.instances

    def test_canonical_key_bytes_register(self, rollup_env, deployed):
        chain, contract, address, aggregator, _ = deployed
        encoded = rollup_env["instances"][0].public.to_bytes()
        receipt = chain.transact(
            Transaction(
                sender=aggregator,
                to=address,
                method="register_instance",
                args=(0xB00D, encoded, 3),
            )
        )
        assert receipt.success, receipt.error
        assert contract.instances[0xB00D].public_key_bytes == encoded


class TestRegistryWiring:
    def test_fraud_also_slashes_reputation_stake(self, rollup_env):
        chain = Blockchain(block_time=15.0)
        aggregator = chain.create_account(10.0, label="aggregator")
        challenger = chain.create_account(10.0, label="challenger")
        registry = ReputationRegistry(min_stake_wei=10**18)
        registry_address = chain.deploy(registry, deployer=aggregator)
        contract = CheckpointContract(
            rollup_env["beacon"],
            rollup_env["params"],
            fraud_window=WINDOW,
            registry_address=registry_address,
        )
        address = chain.deploy(contract, deployer=aggregator)
        for instance in rollup_env["instances"]:
            chain.transact(
                Transaction(
                    sender=aggregator, to=address, method="register_instance",
                    args=(instance.name, instance.public.to_bytes(),
                          instance.num_chunks),
                )
            )
        assert chain.transact(
            Transaction(sender=aggregator, to=registry_address,
                        method="register", value=10**18)
        ).success
        assert chain.transact(
            Transaction(sender=aggregator, to=registry_address,
                        method="authorize_reporter", args=(address,))
        ).success

        records = list(rollup_env["bundles"][0].records)
        records[0] = records[0].flipped()
        forged = build_checkpoint(0, tuple(records))
        checkpoint_id = _post(chain, contract, address, aggregator, forged)
        stake_before = registry.providers[aggregator].stake_wei
        receipt = _challenge(
            chain, contract, address, challenger, checkpoint_id,
            forged.prove(records[0].name),
        )
        assert receipt.success, receipt.error
        assert "stake_slashed" in [e.name for e in receipt.events]
        assert registry.providers[aggregator].stake_wei < stake_before
