"""On-chain dispute/arbitration: rejection reasons, bonds, slashing."""

from __future__ import annotations

import dataclasses

import pytest

from repro.adversary import run_onchain_dispute
from repro.chain import (
    Blockchain,
    ContractTerms,
    State,
    Transaction,
    deploy_audit_contract,
    run_contract_to_completion,
)
from repro.core import DataOwner, ProtocolParams, StorageProvider
from repro.randomness import HashChainBeacon


@pytest.fixture(scope="module")
def dispute_params():
    return ProtocolParams(s=4, k=3)


@pytest.fixture(scope="module")
def replay_demo(dispute_params):
    return run_onchain_dispute(
        strategy="replay", rounds=3, params=dispute_params, file_bytes=800
    )


class TestDisputeDemo:
    def test_failed_rounds_record_structured_reasons(self, replay_demo):
        assert replay_demo.passes == 1
        assert replay_demo.fails == 2
        assert replay_demo.reject_reasons == ("replayed-proof", "replayed-proof")

    def test_dispute_slashes_collateral_and_stake(self, replay_demo):
        assert replay_demo.disputes_raised == 2
        assert replay_demo.collateral_slashed_wei > 0
        # the dispute reserve held back at finalize gives even the final
        # round's dispute collateral to slash: one event per failed round
        slashes = [
            event
            for event in replay_demo.explorer.dispute_log()
            if event["name"] == "collateral_slashed"
        ]
        assert len(slashes) == 2
        assert all(e["payload"]["slashed_wei"] > 0 for e in slashes)
        assert replay_demo.stake_after_wei < replay_demo.stake_before_wei
        assert replay_demo.score_after < replay_demo.score_before

    def test_explorer_surfaces_the_dispute_trail(self, replay_demo):
        explorer = replay_demo.explorer
        names = {event["name"] for event in explorer.dispute_log()}
        assert {"disputed", "dispute_upheld", "collateral_slashed",
                "stake_slashed"} <= names
        summary = explorer.audit_contracts()[0]
        assert summary.disputes == 2
        assert "replayed-proof" in summary.reject_reasons
        exported = explorer.export_json()
        assert '"disputes"' in exported and '"reputation"' in exported
        assert "stake_slashed" in exported

    def test_reputation_snapshot_shows_the_slash(self, replay_demo):
        snapshot = replay_demo.explorer.reputation_snapshot()
        assert len(snapshot) == 1
        record = snapshot[0]
        assert record["stake_wei"] == replay_demo.stake_after_wei
        assert record["fails"] == 2

    def test_summary_lines_render(self, replay_demo):
        text = "\n".join(replay_demo.summary_lines())
        assert "collateral slashed" in text
        assert "reputation score" in text


class TestOfflineStrategyOnChain:
    def test_silent_provider_fails_with_no_proof_reason(self, dispute_params):
        result = run_onchain_dispute(
            strategy="offline",
            rho=1.0,
            rounds=2,
            params=dispute_params,
            file_bytes=800,
        )
        assert result.passes == 0
        assert result.fails == 2
        assert set(result.reject_reasons) == {"no-proof"}
        assert result.stake_after_wei < result.stake_before_wei


@pytest.fixture()
def closed_failed_contract(dispute_params, rng):
    """An honest deployment whose provider dropped the file after round 1."""
    owner = DataOwner(dispute_params, rng=rng)
    package = owner.prepare(b"\x5b" * 600)
    provider = StorageProvider(rng=rng)
    chain = Blockchain(block_time=15.0)
    terms = ContractTerms(num_audits=2, audit_interval=100.0, response_window=30.0)
    deployment = deploy_audit_contract(
        chain, package, provider, terms, HashChainBeacon(b"dispute-guards"),
        dispute_params,
    )
    deployment.provider_agent.misbehave_after_round = 1
    contract = run_contract_to_completion(chain, deployment)
    assert contract.state is State.CLOSED
    assert contract.fails == 1
    return chain, deployment, contract, terms


class TestDisputeGuards:
    def test_non_party_cannot_dispute(self, closed_failed_contract):
        chain, deployment, contract, terms = closed_failed_contract
        outsider = chain.create_account(1.0, label="outsider")
        receipt = chain.transact(
            Transaction(
                sender=outsider,
                to=deployment.contract_address,
                method="raise_dispute",
                args=(1,),
                value=terms.dispute_bond_wei,
            )
        )
        assert not receipt.success and "not a party" in receipt.error

    def test_insufficient_bond_reverts(self, closed_failed_contract):
        chain, deployment, _, terms = closed_failed_contract
        receipt = chain.transact(
            Transaction(
                sender=deployment.owner_account,
                to=deployment.contract_address,
                method="raise_dispute",
                args=(1,),
                value=terms.dispute_bond_wei - 1,
            )
        )
        assert not receipt.success and "dispute bond" in receipt.error

    def test_provider_contesting_genuine_failure_loses_bond(
        self, closed_failed_contract
    ):
        chain, deployment, contract, terms = closed_failed_contract
        owner_before = chain.balance_of(deployment.owner_account)
        provider_before = chain.balance_of(deployment.provider_account)
        receipt = chain.transact(
            Transaction(
                sender=deployment.provider_account,
                to=deployment.contract_address,
                method="raise_dispute",
                args=(1,),
                value=terms.dispute_bond_wei,
            )
        )
        assert receipt.success
        record = contract.rounds[1]
        assert record.dispute_verdict == "upheld"
        # the bond (minus gas) moved to the owner
        assert chain.balance_of(deployment.owner_account) == (
            owner_before + terms.dispute_bond_wei
        )
        assert chain.balance_of(deployment.provider_account) < provider_before

    def test_round_cannot_be_disputed_twice(self, closed_failed_contract):
        chain, deployment, _, terms = closed_failed_contract

        def dispute():
            return chain.transact(
                Transaction(
                    sender=deployment.owner_account,
                    to=deployment.contract_address,
                    method="raise_dispute",
                    args=(1,),
                    value=terms.dispute_bond_wei,
                )
            )

        assert dispute().success
        second = dispute()
        assert not second.success and "already disputed" in second.error

    def test_owner_contesting_genuine_pass_loses_bond(
        self, closed_failed_contract
    ):
        chain, deployment, contract, terms = closed_failed_contract
        provider_before = chain.balance_of(deployment.provider_account)
        receipt = chain.transact(
            Transaction(
                sender=deployment.owner_account,
                to=deployment.contract_address,
                method="raise_dispute",
                args=(0,),  # round 0 genuinely passed
                value=terms.dispute_bond_wei,
            )
        )
        assert receipt.success
        assert contract.rounds[0].dispute_verdict == "upheld"
        assert contract.rounds[0].passed is True
        assert chain.balance_of(deployment.provider_account) == (
            provider_before + terms.dispute_bond_wei
        )

    def test_dispute_window_eventually_closes(self, closed_failed_contract):
        chain, deployment, _, terms = closed_failed_contract
        chain.advance_time(terms.dispute_window + chain.block_time)
        receipt = chain.transact(
            Transaction(
                sender=deployment.owner_account,
                to=deployment.contract_address,
                method="raise_dispute",
                args=(1,),
                value=terms.dispute_bond_wei,
            )
        )
        assert not receipt.success and "dispute window closed" in receipt.error

    def test_reserve_withheld_then_reclaimable_after_window(
        self, closed_failed_contract
    ):
        chain, deployment, contract, terms = closed_failed_contract
        # round 1 failed undisputed -> finalize held back the dispute reserve
        reserve = contract.deposits[deployment.provider_account]
        assert reserve == terms.dispute_slash_wei

        early = chain.transact(
            Transaction(
                sender=deployment.provider_account,
                to=deployment.contract_address,
                method="withdraw_reserve",
            )
        )
        assert not early.success and "window still open" in early.error

        chain.advance_time(terms.dispute_window + chain.block_time)
        before = chain.balance_of(deployment.provider_account)
        receipt = chain.transact(
            Transaction(
                sender=deployment.provider_account,
                to=deployment.contract_address,
                method="withdraw_reserve",
            )
        )
        assert receipt.success
        assert chain.balance_of(deployment.provider_account) > before
        assert contract.deposits[deployment.provider_account] == 0

    def test_mis_recorded_trail_is_overturned(self, closed_failed_contract):
        chain, deployment, contract, terms = closed_failed_contract
        # Simulate a corrupted trail (the light-client disagreement case):
        # round 0 genuinely passed but the record claims it failed.
        contract.rounds[0] = dataclasses.replace(contract.rounds[0], passed=False)
        contract.passes -= 1
        contract.fails += 1
        receipt = chain.transact(
            Transaction(
                sender=deployment.provider_account,
                to=deployment.contract_address,
                method="raise_dispute",
                args=(0,),
                value=terms.dispute_bond_wei,
            )
        )
        assert receipt.success
        assert contract.rounds[0].dispute_verdict == "overturned"
        assert contract.rounds[0].passed is True
        assert contract.passes == 1 and contract.fails == 1
        assert any(e.name == "dispute_overturned" for e in receipt.events)

    def test_unresolved_round_cannot_be_disputed(self, dispute_params, rng):
        owner = DataOwner(dispute_params, rng=rng)
        package = owner.prepare(b"\x5c" * 600)
        provider = StorageProvider(rng=rng)
        chain = Blockchain(block_time=15.0)
        terms = ContractTerms(
            num_audits=1, audit_interval=100.0, response_window=30.0
        )
        deployment = deploy_audit_contract(
            chain, package, provider, terms, HashChainBeacon(b"open-round"),
            dispute_params,
        )
        # advance until the challenge opens but do not let S answer
        contract = chain.contract_at(deployment.contract_address)
        while contract.state is not State.PROVE:
            chain.mine_block()
        receipt = chain.transact(
            Transaction(
                sender=deployment.owner_account,
                to=deployment.contract_address,
                method="raise_dispute",
                args=(0,),
                value=terms.dispute_bond_wei,
            )
        )
        assert not receipt.success and "not yet resolved" in receipt.error

    def test_round_accepted_in_a_block_check_is_rearbitrated_from_its_bytes(
        self, dispute_params, rng, equation_checks
    ):
        """Two rounds due in one block are checked together and each
        transaction reads its verdict; a later dispute finds nothing staged
        and re-runs Eq. (2) over the recorded bytes."""
        from repro.chain import run_contracts_to_completion
        from repro.chain.contracts.audit_contract import _BLOCK_VERDICTS

        owner = DataOwner(dispute_params, rng=rng)
        chain = Blockchain(block_time=15.0)
        terms = ContractTerms(num_audits=1, audit_interval=100.0, response_window=30.0)
        packages = [owner.prepare(bytes([0x5D + i]) * 600) for i in range(2)]
        deployments = [
            deploy_audit_contract(
                chain, package, StorageProvider(rng=rng), terms,
                HashChainBeacon(b"memo-then-dispute"), dispute_params,
            )
            for package in packages
        ]
        contracts = run_contracts_to_completion(chain, deployments)
        assert [c.passes for c in contracts] == [1, 1]
        # Both read the block's check, and nothing it held outlives the block.
        assert equation_checks == [] and _BLOCK_VERDICTS.get(None) is None

        provider_before = chain.balance_of(deployments[0].provider_account)
        receipt = chain.transact(
            Transaction(
                sender=deployments[0].owner_account,
                to=deployments[0].contract_address,
                method="raise_dispute",
                args=(0,),
                value=terms.dispute_bond_wei,
            )
        )
        assert receipt.success
        assert equation_checks == [packages[0].name]
        assert contracts[0].rounds[0].dispute_verdict == "upheld"
        assert contracts[0].rounds[0].passed is True
        assert chain.balance_of(deployments[0].provider_account) == (
            provider_before + terms.dispute_bond_wei
        )
