"""End-to-end DA over the real stack: pipeline, contract, light client.

Settles real engine epochs through a :class:`CheckpointPipeline` with DA
enabled and works on the :class:`SettledEpoch` values it returns (the
pipeline keeps no history; the cross-shard aggregator does), then
exercises the full availability story: the 119-byte commitment lands on
chain bound to its checkpoint, sampling catches withholding, a k-of-n
reconstruction drives ``challenge_counts`` against a counts-forging
aggregator without trusting it, and every miss (unknown epoch, partial
leaf set, unverified reconstruction) surfaces as a structured,
actionable error instead of a bare KeyError or an opaque revert.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.chain import (
    Blockchain,
    CheckpointContract,
    CheckpointStatus,
    ShardedChainFabric,
    Transaction,
)
from repro.chain.light_client import CheckpointLightClient
from repro.core import DataOwner
from repro.da import (
    DaParams,
    DaReconstructionMismatch,
    DaSampler,
    DaUnreconstructed,
    DaWithholdingDetected,
    build_da_bundle,
    bundle_fetch,
)
from repro.engine import AuditExecutor, AuditInstance, EpochScheduler
from repro.obs import MetricsRegistry
from repro.randomness import HashChainBeacon
from repro.rollup import Checkpoint, CrossShardAggregator
from repro.rollup.fabric import EpochNotSettled
from repro.rollup.pipeline import CheckpointPipeline
from repro.sim.workloads import archive_file

DA_PARAMS = DaParams(n=12, k=4)
WINDOW = 500.0
SEED = b"\x11" * 8


@pytest.fixture(scope="module")
def da_env(params):
    """Two DA-settled epochs plus one settled without DA, on one chain."""
    rng = random.Random(0xDA7A)
    owner = DataOwner(params, rng=rng)
    instances = []
    for index in range(2):
        package = owner.prepare(
            archive_file(600, tag=f"da-pipe-{index}").data,
            fresh_keypair=index == 0,
        )
        instances.append(AuditInstance.from_package(package, owner_id="da"))
    beacon = HashChainBeacon(b"da-pipeline-test")
    chain = Blockchain(block_time=15.0)
    aggregator = chain.create_account(10.0, label="aggregator")
    challenger = chain.create_account(10.0, label="challenger")
    contract = CheckpointContract(beacon, params, fraud_window=WINDOW)
    address = chain.deploy(contract, deployer=aggregator)
    with AuditExecutor(instances, workers=1) as executor:
        scheduler = EpochScheduler(
            executor, params, beacon, rng=rng
        )
        pipeline = CheckpointPipeline(
            scheduler, chain, address, aggregator,
            da_params=DA_PARAMS, lane_id=0,
        )
        pipeline.register_fleet()
        settled = [pipeline.settle_epoch(epoch) for epoch in range(2)]
        # A second aggregator on the same contract, DA disabled: a live
        # checkpoint with no DA root, for the view and post_da_root tests.
        plain = CheckpointPipeline(scheduler, chain, address, aggregator)
        plain_settled = plain.settle_epoch(2)
        # One more engine epoch, kept OFF chain: the counts-fraud test
        # posts a forged commitment for it (epochs are unique on chain).
        _, fraud_bundle = pipeline.audit_epoch(3)
    return {
        "fraud_bundle": fraud_bundle,
        "params": params,
        "beacon": beacon,
        "instances": instances,
        "chain": chain,
        "contract": contract,
        "address": address,
        "aggregator": aggregator,
        "challenger": challenger,
        "pipeline": pipeline,
        "executor": executor,
        "settled": settled,
        "plain_settled": plain_settled,
    }


def _registry_of(env):
    return {
        instance.name: (instance.public.to_bytes(), instance.num_chunks)
        for instance in env["instances"]
    }


def _sampler_for(env, epoch):
    settled = env["settled"][epoch]
    fetch = bundle_fetch({(0, epoch): settled.da})
    return DaSampler(fetch, registry=MetricsRegistry()), settled


# --------------------------------------------------------------------- #
# Settlement wiring                                                     #
# --------------------------------------------------------------------- #

def test_settlement_posts_the_da_commitment(da_env):
    for settled in da_env["settled"]:
        assert settled.da is not None
        assert settled.da_receipt is not None and settled.da_receipt.success
        entry = da_env["contract"].checkpoints[settled.checkpoint_id]
        assert entry.da_commitment == settled.da.commitment
        assert entry.da_commitment.checkpoint_root == settled.bundle.checkpoint.root
        assert entry.da_commitment.n == DA_PARAMS.n
        assert entry.da_commitment.epoch == settled.epoch


def test_da_commitment_view(da_env):
    chain, address = da_env["chain"], da_env["address"]
    commitment = chain.call(address, "da_commitment_for_epoch", 0)
    assert commitment == da_env["settled"][0].da.commitment
    # The DA-less epoch reports None rather than erroring.
    assert chain.call(address, "da_commitment_for_epoch", 2) is None


def test_epoch_lookup_is_indexed_and_structured(da_env):
    # The aggregator holds the one history of settled epochs; a pipeline
    # only returns what it settled.
    aggregator = CrossShardAggregator(
        ShardedChainFabric(num_lanes=1),
        da_env["executor"],
        da_env["params"],
        da_env["beacon"],
        da_params=DA_PARAMS,
    )
    assert aggregator.settled == []
    with pytest.raises(EpochNotSettled) as excinfo:
        aggregator.settlement_for_epoch(99)
    err = excinfo.value
    assert isinstance(err, KeyError)  # legacy except-KeyError callers
    assert err.epoch == 99
    assert err.code == "epoch-not-settled"
    # Unlike a bare KeyError, the message renders without quote-wrapping.
    assert str(err) == "epoch 99 not settled by this aggregator"


# --------------------------------------------------------------------- #
# post_da_root guards                                                   #
# --------------------------------------------------------------------- #

def _post_da(env, sender, checkpoint_id, commitment_bytes):
    return env["chain"].transact(
        Transaction(
            sender=sender,
            to=env["address"],
            method="post_da_root",
            args=(checkpoint_id, commitment_bytes),
        ),
        payload_bytes=len(commitment_bytes),
    )


def test_post_da_root_guards(da_env):
    plain_settled = da_env["plain_settled"]
    checkpoint_id = plain_settled.checkpoint_id
    honest = build_da_bundle(0, 2, plain_settled.bundle, DA_PARAMS)
    good_bytes = honest.commitment.to_bytes()

    receipt = _post_da(da_env, da_env["challenger"], checkpoint_id, good_bytes)
    assert not receipt.success
    assert "only the checkpoint poster" in receipt.error

    receipt = _post_da(da_env, da_env["aggregator"], 10_000, good_bytes)
    assert not receipt.success and "unknown checkpoint" in receipt.error

    receipt = _post_da(da_env, da_env["aggregator"], checkpoint_id, b"\x00\x01")
    assert not receipt.success and "bad DA commitment" in receipt.error

    # A commitment binding a different checkpoint's root is refused.
    foreign = da_env["settled"][0].da.commitment.to_bytes()
    receipt = _post_da(da_env, da_env["aggregator"], checkpoint_id, foreign)
    assert not receipt.success
    assert "does not bind the committed checkpoint root" in receipt.error

    # The honest posting lands; a second binding is refused.
    receipt = _post_da(da_env, da_env["aggregator"], checkpoint_id, good_bytes)
    assert receipt.success, receipt.error
    receipt = _post_da(da_env, da_env["aggregator"], checkpoint_id, good_bytes)
    assert not receipt.success and "already posted" in receipt.error


# --------------------------------------------------------------------- #
# Sampling + reconstruction over pipeline-served bundles                #
# --------------------------------------------------------------------- #

def test_sampling_a_faithful_pipeline_is_clean(da_env):
    sampler, settled = _sampler_for(da_env, 0)
    report = sampler.sample(settled.da.commitment, SEED, budget=8)
    assert report.available
    report.raise_if_withheld()
    # O(samples) download: a light client never pulls the full leaf set.
    assert report.chunk_bytes == 8 * settled.da.commitment.chunk_bytes


def test_withholding_pipeline_chunks_is_detected(da_env):
    sampler, settled = _sampler_for(da_env, 1)
    settled.da.withheld.clear()
    try:
        settled.da.withhold(range(DA_PARAMS.n - DA_PARAMS.k + 1))
        report = sampler.sample(settled.da.commitment, SEED, budget=DA_PARAMS.n)
        with pytest.raises(DaWithholdingDetected):
            report.raise_if_withheld()
    finally:
        settled.da.withheld.clear()


def test_reconstruction_replays_through_the_light_client(da_env):
    sampler, settled = _sampler_for(da_env, 0)
    reconstruction = sampler.reconstruct(settled.da.commitment, SEED)
    assert reconstruction.verified
    assert reconstruction.records == settled.bundle.records
    client = CheckpointLightClient(
        _registry_of(da_env), da_env["params"], da_env["beacon"]
    )
    report = client.replay_reconstructed(
        settled.bundle.checkpoint, reconstruction
    )
    assert report.consistent
    assert report.rounds_checked == len(settled.bundle.records)


def test_replay_refuses_unverified_or_mismatched_reconstructions(da_env):
    sampler, settled = _sampler_for(da_env, 0)
    reconstruction = sampler.reconstruct(settled.da.commitment, SEED)
    client = CheckpointLightClient(
        _registry_of(da_env), da_env["params"], da_env["beacon"]
    )
    shaky = dataclasses.replace(reconstruction, verified=False)
    with pytest.raises(DaUnreconstructed, match="sample and"):
        client.replay_reconstructed(settled.bundle.checkpoint, shaky)
    other = da_env["settled"][1]
    with pytest.raises(DaReconstructionMismatch, match="different checkpoint"):
        client.replay_reconstructed(other.bundle.checkpoint, reconstruction)


# --------------------------------------------------------------------- #
# challenge_counts: the partial-set guard and the DA-powered way in     #
# --------------------------------------------------------------------- #

def _challenge_counts(env, checkpoint_id, leaves):
    return env["chain"].transact(
        Transaction(
            sender=env["challenger"],
            to=env["address"],
            method="challenge_counts",
            args=(checkpoint_id, tuple(leaves)),
            value=env["contract"].challenge_bond_wei,
        ),
        payload_bytes=sum(len(leaf) for leaf in leaves),
    )


def test_partial_leaf_set_gets_a_structured_refusal(da_env):
    settled = da_env["settled"][0]
    leaves = [r.to_bytes() for r in settled.bundle.records][:-1]
    receipt = _challenge_counts(da_env, settled.checkpoint_id, leaves)
    assert not receipt.success
    assert "partial-leaf-set" in receipt.error
    assert "da_sample_get" in receipt.error  # the documented way in
    # The checkpoint is untouched by the refused challenge.
    entry = da_env["contract"].checkpoints[settled.checkpoint_id]
    assert entry.status is CheckpointStatus.OPEN


def test_equal_size_wrong_leaves_keep_the_legacy_revert(da_env):
    settled = da_env["settled"][0]
    other = da_env["settled"][1]
    wrong = [r.to_bytes() for r in other.bundle.records]
    assert len(wrong) == settled.bundle.checkpoint.num_leaves
    receipt = _challenge_counts(da_env, settled.checkpoint_id, wrong)
    assert not receipt.success
    assert "do not rebuild the committed root" in receipt.error


def test_counts_fraud_slashed_from_da_reconstruction_alone(da_env):
    """The tentpole acceptance path: a counts-forging aggregator is slashed
    by a challenger who never saw the leaf set — only DA chunks."""
    bundle = da_env["fraud_bundle"]
    honest = bundle.checkpoint
    forged = Checkpoint(
        epoch=honest.epoch,
        root=honest.root,                       # honest tree...
        accepted=honest.rejected,               # ...swapped summary
        rejected=honest.accepted,
        num_leaves=honest.num_leaves,
        proof_digest=honest.proof_digest,
    )
    assert forged != honest  # the fleet has >= 1 accept and 0 rejects
    receipt = da_env["chain"].transact(
        Transaction(
            sender=da_env["aggregator"],
            to=da_env["address"],
            method="post_checkpoint",
            args=(forged.to_bytes(),),
            value=da_env["contract"].posting_bond_wei,
        )
    )
    assert receipt.success, receipt.error
    checkpoint_id = receipt.return_value
    # The DA obligation still binds the (honest) root, so the commitment
    # posts cleanly — and hands challengers the evidence.
    da_bundle = build_da_bundle(0, honest.epoch, bundle, DA_PARAMS)
    da_receipt = _post_da(
        da_env, da_env["aggregator"], checkpoint_id,
        da_bundle.commitment.to_bytes(),
    )
    assert da_receipt.success, da_receipt.error
    sampler = DaSampler(
        bundle_fetch({(0, honest.epoch): da_bundle}),
        registry=MetricsRegistry(),
    )
    reconstruction = sampler.reconstruct(da_bundle.commitment, SEED)
    challenge = _challenge_counts(
        da_env, checkpoint_id, reconstruction.counts_challenge_leaves()
    )
    assert challenge.success, challenge.error
    entry = da_env["contract"].checkpoints[checkpoint_id]
    assert entry.status is CheckpointStatus.SLASHED
    assert "count-mismatch" in entry.fraud_reason
