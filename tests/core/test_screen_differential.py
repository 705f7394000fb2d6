"""Posted proof bytes get one verdict, whoever judges them.

Four judges read proof bytes off a chain: the Fig. 2 contract's round
verdict, the rollup's leaf ground truth (what the checkpoint fraud proof and
the checkpoint light client apply), the per-round light client, and the
checkpoint contract's counterproof rebuttal.  Each turns bytes into a
statement through ``repro.core.batch.screen_proof``.  This differential
holds them to one accept-or-reject answer over honest, forged, replayed,
withheld, truncated and garbage proofs.  Where two judges name a reason
they name the same one, with one exception: only the contract keeps the
history to call a replay ``replayed-proof``.  Every other judge sees a proof
for some other challenge, a ``pairing-mismatch``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import (
    Blockchain,
    CheckpointContract,
    CheckpointStatus,
    ContractTerms,
    State,
    Transaction,
    deploy_audit_contract,
    export_trail,
)
from repro.chain.light_client import LightClient
from repro.core import (
    DataOwner,
    ProtocolParams,
    Prover,
    StorageProvider,
    Verifier,
    epoch_challenge,
)
from repro.core.proof import PRIVATE_PROOF_BYTES
from repro.crypto.bn254 import G1Point
from repro.crypto.field import random_scalar
from repro.randomness import HashChainBeacon
from repro.rollup import RoundRecord, build_checkpoint, leaf_ground_truth

PARAMS = ProtocolParams(s=3, k=2)
EPOCH = 1

#: Each kind of posted bytes, and the reason the contract must record for it
#: (``None``: accepted).  Garbage may happen to decode; then the equation
#: rejects it instead.
KINDS = {
    "honest": {None},
    "forged": {"pairing-mismatch"},
    "replayed": {"replayed-proof"},
    "none": {"no-proof"},
    "empty": {"no-proof"},
    "truncated": {"malformed-proof"},
    "garbage": {"malformed-proof", "pairing-mismatch"},
}


@dataclass(repr=False)  # hypothesis prints fixtures too
class Fleet:
    package: object
    honest: Prover
    forger: random.Random  # draws the forged proofs' random sigma
    beacon: HashChainBeacon
    responses: dict  # (kind, challenge bytes) -> bytes: one answer per challenge


@pytest.fixture(scope="module")
def fleet():
    rng = random.Random(2600)
    package = DataOwner(PARAMS, rng=rng).prepare(b"\x5a" * 300)
    parts = (package.chunked, package.public, list(package.authenticators))
    return Fleet(
        package,
        Prover(*parts, rng=random.Random(2601)),
        random.Random(2602),
        HashChainBeacon(b"screen-differential"),
        {},
    )


def _answer(fleet, prover_kind, challenge) -> bytes:
    key = (prover_kind, challenge.to_bytes())
    if key not in fleet.responses:
        proof = fleet.honest.respond_private(challenge)
        if prover_kind == "forged":
            sigma = G1Point.generator() * random_scalar(fleet.forger)
            proof = replace(proof, sigma=sigma)
        fleet.responses[key] = proof.to_bytes()
    return fleet.responses[key]


def _bytes_for(fleet, kind, challenge, stale, cut, garbage) -> bytes | None:
    """``kind``'s bytes as posted against ``challenge``; ``stale`` is an
    honest answer to an earlier challenge."""
    if kind in ("honest", "forged"):
        return _answer(fleet, kind, challenge)
    if kind == "truncated":
        return _answer(fleet, "honest", challenge)[:cut]
    return {"replayed": stale, "none": None, "empty": b"", "garbage": garbage}[kind]


def _contract_round(fleet, kind, cut, garbage):
    """Round 1 of a two-round Fig. 2 contract whose round 0 was answered
    honestly (so a replay has bytes to copy)."""
    chain = Blockchain(block_time=15.0)
    terms = ContractTerms(num_audits=2, audit_interval=15.0, response_window=15.0)
    deployment = deploy_audit_contract(
        chain, fleet.package, StorageProvider(rng=random.Random(0)), terms,
        fleet.beacon, PARAMS, validate=False,
    )
    contract = chain.contract_at(deployment.contract_address)
    for round_id in range(2):
        chain.mine_block()
        assert contract.state is State.PROVE and contract.cnt == round_id
        challenge = contract.rounds[round_id].challenge
        if round_id == 0:
            payload = _answer(fleet, "honest", challenge)
        else:
            payload = _bytes_for(
                fleet, kind, challenge, contract.rounds[0].proof_bytes, cut, garbage
            )
        if payload is not None and len(payload) == PRIVATE_PROOF_BYTES:
            receipt = chain.transact(
                Transaction(
                    sender=deployment.provider_account,
                    to=deployment.contract_address,
                    method="submit_proof",
                    args=(payload,),
                ),
                payload_bytes=len(payload),
            )
            assert receipt.success, receipt.error
        elif payload is not None:
            # submit_proof refuses any other length, so such bytes reach a
            # round only through a damaged trail; the verdict must still
            # name them.
            contract.rounds[round_id] = replace(contract.rounds[round_id], proof_bytes=payload)
        chain.mine_block()
    assert contract.state is State.CLOSED and contract.rounds[0].passed
    return contract


def _rebutted(fleet, challenge, counterproof) -> bool:
    """Whether ``counterproof`` voids a committed rejection of the file's
    epoch round through ``CheckpointContract.challenge_leaf``."""
    chain = Blockchain(block_time=15.0)
    aggregator = chain.create_account(10.0, label="aggregator")
    challenger = chain.create_account(10.0, label="challenger")
    contract = CheckpointContract(fleet.beacon, PARAMS)
    address = chain.deploy(contract, deployer=aggregator)
    package = fleet.package
    registered = chain.transact(
        Transaction(
            sender=aggregator,
            to=address,
            method="register_instance",
            args=(package.name, package.public.to_bytes(), package.num_chunks),
        )
    )
    assert registered.success, registered.error
    withheld = RoundRecord(
        name=package.name, epoch=EPOCH, challenge_bytes=challenge.to_bytes(),
        proof_bytes=b"", verdict=False, reject_code="no-proof",
    )
    bundle = build_checkpoint(EPOCH, (withheld,))
    posted = chain.transact(
        Transaction(
            sender=aggregator,
            to=address,
            method="post_checkpoint",
            args=(bundle.checkpoint.to_bytes(),),
            value=contract.posting_bond_wei,
        )
    )
    assert posted.success, posted.error
    opening = bundle.prove(package.name)
    receipt = chain.transact(
        Transaction(
            sender=challenger,
            to=address,
            method="challenge_leaf",
            args=(
                posted.return_value, opening.leaf_data, opening.leaf_index,
                opening.siblings, opening.directions, counterproof or b"",
            ),
            value=contract.challenge_bond_wei,
        )
    )
    assert receipt.success, receipt.error
    entry = contract.checkpoints[posted.return_value]
    if entry.status is CheckpointStatus.SLASHED:
        assert entry.fraud_reason.startswith("rejection-rebutted")
        return True
    return False


# Seven kinds, each drawn about four times, with fresh cut points and
# garbage bytes each time.
@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(tuple(KINDS)),
    cut=st.integers(1, PRIVATE_PROOF_BYTES - 1),
    garbage=st.binary(min_size=PRIVATE_PROOF_BYTES, max_size=PRIVATE_PROOF_BYTES),
)
def test_every_judge_of_posted_bytes_reaches_the_same_verdict(fleet, kind, cut, garbage):
    package = fleet.package

    # The Fig. 2 contract's round verdict, and the per-round light client
    # replaying the trail the contract left.
    contract = _contract_round(fleet, kind, cut, garbage)
    posted = contract.rounds[1]
    client = LightClient(package.public.to_bytes(), package.name, package.num_chunks, PARAMS)
    replayed = client.verify_round(export_trail(contract)[1])

    # The rollup's two judges, over the same kind of bytes posted against
    # the epoch's beacon challenge.
    challenge = epoch_challenge(fleet.beacon.output(EPOCH), PARAMS, package.name)
    leaf_bytes = _bytes_for(
        fleet, kind, challenge, contract.rounds[0].proof_bytes, cut, garbage
    )
    leaf = RoundRecord(
        name=package.name, epoch=EPOCH, challenge_bytes=challenge.to_bytes(),
        proof_bytes=leaf_bytes or b"", verdict=False, reject_code="no-proof",
    )
    ground_truth = leaf_ground_truth(
        leaf, EPOCH, PARAMS, fleet.beacon,
        lambda name: Verifier(package.public, name, package.num_chunks),
    )

    verdicts = {
        "contract": posted.passed,
        "per-round light client": bool(replayed),
        "leaf ground truth": ground_truth.actual,
        "counterproof rebuttal": _rebutted(fleet, challenge, leaf_bytes),
    }
    assert set(verdicts.values()) == {kind == "honest"}, verdicts

    assert posted.reject_reason in KINDS[kind]
    light_code = None if replayed else replayed.reason.code
    if kind == "replayed":
        assert light_code == "pairing-mismatch"
    else:
        assert light_code == posted.reject_reason
