"""LightClient.replay / audit_the_auditor over a mixed honest+failed trail.

``test_light_client_factory.py`` replays an all-pass trail; this suite
drives the per-round light client over a contract whose trail mixes
honest passes with genuine failures (provider drops the file mid-contract)
and over deliberately mis-recorded trails — the forged-trail /
mis-executing-contract case the auditor-of-the-auditor exists to catch.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chain import (
    Blockchain,
    ContractTerms,
    audit_the_auditor,
    deploy_audit_contract,
    export_trail,
    run_contract_to_completion,
)
from repro.chain.light_client import LightClient
from repro.core import DataOwner, ProtocolParams, StorageProvider


@pytest.fixture(scope="module")
def mixed_trail_contract(rng):
    """A closed 3-round contract: round 0 passes, rounds 1-2 fail.

    The provider agent drops the file after round 0, so later rounds
    time out (``no-proof`` failures) — a trail mixing verdict classes.
    """
    from repro.randomness import HashChainBeacon

    params = ProtocolParams(s=6, k=3)
    owner = DataOwner(params, rng=rng)
    package = owner.prepare(b"\x3c" * 700)
    provider = StorageProvider(rng=rng)
    chain = Blockchain(block_time=15.0)
    terms = ContractTerms(num_audits=3, audit_interval=100.0, response_window=30.0)
    deployment = deploy_audit_contract(
        chain, package, provider, terms, HashChainBeacon(b"lc-mixed"), params
    )
    deployment.provider_agent.misbehave_after_round = 1
    contract = run_contract_to_completion(chain, deployment)
    assert contract.passes == 1 and contract.fails == 2  # genuinely mixed
    return contract, params


class TestReplayMixedTrail:
    def test_replay_agrees_with_honest_contract(self, mixed_trail_contract):
        contract, params = mixed_trail_contract
        report = audit_the_auditor(contract, params)
        assert report.consistent
        assert report.rounds_checked == 3
        assert report.agreements == 3
        assert report.disagreements == []

    def test_export_trail_carries_verdicts_and_bytes(self, mixed_trail_contract):
        contract, _ = mixed_trail_contract
        trail = export_trail(contract)
        assert [t.claimed_verdict for t in trail] == [True, False, False]
        assert trail[0].proof_bytes is not None
        assert trail[1].proof_bytes is None  # withheld: nothing on chain
        assert all(len(t.challenge_bytes) == 48 for t in trail)

    def test_forged_pass_verdict_is_flagged(self, mixed_trail_contract):
        """A trail claiming a timed-out round passed cannot replay clean."""
        contract, params = mixed_trail_contract
        trail = export_trail(contract)
        trail[1] = dataclasses.replace(trail[1], claimed_verdict=True)
        client = LightClient(
            public_key_bytes=contract.public_key.to_bytes(),
            file_name=contract.file_name,
            num_chunks=contract.num_chunks,
            params=params,
        )
        report = client.replay(trail)
        assert not report.consistent
        assert report.disagreements == [1]
        assert report.agreements == 2

    def test_forged_fail_verdict_is_flagged(self, mixed_trail_contract):
        """A trail claiming the honest round failed is equally caught."""
        contract, params = mixed_trail_contract
        trail = export_trail(contract)
        trail[0] = dataclasses.replace(trail[0], claimed_verdict=False)
        client = LightClient(
            public_key_bytes=contract.public_key.to_bytes(),
            file_name=contract.file_name,
            num_chunks=contract.num_chunks,
            params=params,
        )
        report = client.replay(trail)
        assert report.disagreements == [0]

    def test_substituted_proof_bytes_are_flagged(self, mixed_trail_contract):
        """Swapping round 0's proof for garbage flips its replayed verdict."""
        contract, params = mixed_trail_contract
        trail = export_trail(contract)
        trail[0] = dataclasses.replace(
            trail[0], proof_bytes=b"\x01" * len(trail[0].proof_bytes)
        )
        client = LightClient(
            public_key_bytes=contract.public_key.to_bytes(),
            file_name=contract.file_name,
            num_chunks=contract.num_chunks,
            params=params,
        )
        report = client.replay(trail)
        assert report.disagreements == [0]

    def test_verify_round_recomputes_each_verdict(self, mixed_trail_contract):
        contract, params = mixed_trail_contract
        trail = export_trail(contract)
        client = LightClient(
            public_key_bytes=contract.public_key.to_bytes(),
            file_name=contract.file_name,
            num_chunks=contract.num_chunks,
            params=params,
        )
        assert bool(client.verify_round(trail[0])) is True
        assert bool(client.verify_round(trail[1])) is False  # missing proof
        assert bool(client.verify_round(trail[2])) is False

    def test_a_served_challenge_that_does_not_decode_is_a_rejected_round(
        self, mixed_trail_contract
    ):
        """A node serves the trail, so its bytes are untrusted: a 47-byte
        challenge is judged a rejection, not raised, and so disagrees
        exactly when the round claims a pass."""
        contract, params = mixed_trail_contract
        trail = export_trail(contract)
        short = trail[0].challenge_bytes[:47]
        trail[0] = dataclasses.replace(trail[0], challenge_bytes=short)
        trail[2] = dataclasses.replace(trail[2], challenge_bytes=short)
        client = LightClient(
            public_key_bytes=contract.public_key.to_bytes(),
            file_name=contract.file_name,
            num_chunks=contract.num_chunks,
            params=params,
        )
        verdict = client.verify_round(trail[0])
        assert not verdict and verdict.reason.code == "malformed-proof"
        report = client.replay(trail)
        assert report.rounds_checked == 3
        assert report.disagreements == [0]  # round 2 claims a fail: agreed
