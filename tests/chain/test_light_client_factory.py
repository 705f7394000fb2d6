"""Light-client replay (public verifiability)."""

from __future__ import annotations

import pytest

from repro.chain import (
    Blockchain,
    ContractTerms,
    deploy_audit_contract,
    run_contract_to_completion,
)
from repro.chain.light_client import LightClient, audit_the_auditor, export_trail
from repro.core import DataOwner, ProtocolParams, StorageProvider
from repro.randomness import HashChainBeacon


@pytest.fixture(scope="module")
def finished_contract(rng):
    params = ProtocolParams(s=5, k=3)
    owner = DataOwner(params, rng=rng)
    package = owner.prepare(b"\x91" * 600)
    provider = StorageProvider(rng=rng)
    chain = Blockchain()
    terms = ContractTerms(num_audits=2, audit_interval=60.0, response_window=20.0)
    deployment = deploy_audit_contract(
        chain, package, provider, terms, HashChainBeacon(b"lc"), params
    )
    contract = run_contract_to_completion(chain, deployment)
    return params, contract


class TestLightClient:
    def test_replay_agrees_with_contract(self, finished_contract):
        params, contract = finished_contract
        report = audit_the_auditor(contract, params)
        assert report.rounds_checked == 2
        assert report.consistent

    def test_trail_export_is_pure_bytes(self, finished_contract):
        _, contract = finished_contract
        trail = export_trail(contract)
        assert all(isinstance(r.challenge_bytes, bytes) for r in trail)
        assert all(len(r.challenge_bytes) == 48 for r in trail)
        assert all(len(r.proof_bytes) == 288 for r in trail)

    def test_forged_verdict_detected(self, finished_contract):
        """A trail claiming PASS for a garbage proof must be flagged."""
        import dataclasses

        params, contract = finished_contract
        trail = export_trail(contract)
        garbage = bytearray(288)
        garbage[0] = 0x80  # sigma = infinity
        garbage[64] = 0x80  # psi = infinity
        forged = [
            dataclasses.replace(
                trail[0], proof_bytes=bytes(garbage), claimed_verdict=True
            )
        ] + trail[1:]
        client = LightClient(
            public_key_bytes=contract.public_key.to_bytes(),
            file_name=contract.file_name,
            num_chunks=contract.num_chunks,
            params=params,
        )
        report = client.replay(forged)
        assert not report.consistent
        assert report.disagreements == [0]

    def test_missing_proof_counts_as_fail(self, finished_contract):
        import dataclasses

        params, contract = finished_contract
        trail = export_trail(contract)
        silent = [dataclasses.replace(trail[0], proof_bytes=None,
                                      claimed_verdict=False)]
        client = LightClient(
            public_key_bytes=contract.public_key.to_bytes(),
            file_name=contract.file_name,
            num_chunks=contract.num_chunks,
            params=params,
        )
        report = client.replay(silent)
        assert report.consistent  # fail claimed, fail recomputed

    def test_third_party_needs_only_public_material(self, finished_contract):
        """The client is constructed from bytes alone — no objects shared
        with the contract (public verifiability in the strict sense)."""
        params, contract = finished_contract
        blob = contract.public_key.to_bytes()
        client = LightClient(
            public_key_bytes=bytes(blob),  # a fresh copy
            file_name=contract.file_name,
            num_chunks=contract.num_chunks,
            params=params,
        )
        assert client.replay(export_trail(contract)).consistent

