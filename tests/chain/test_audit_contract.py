"""The Fig. 2 state machine: guards, lifecycle, payments, disputes."""

from __future__ import annotations

import pytest

from repro.chain import (
    Blockchain,
    ContractTerms,
    State,
    Transaction,
    deploy_audit_contract,
    run_contract_to_completion,
)
from repro.chain.contracts.audit_contract import AuditContract
from repro.core import DataOwner, ProtocolParams, StorageProvider
from repro.crypto.bn254 import PROCESS_CACHE
from repro.randomness import HashChainBeacon


@pytest.fixture(scope="module")
def contract_params():
    return ProtocolParams(s=6, k=3)


@pytest.fixture(scope="module")
def beacon():
    return HashChainBeacon(b"contract-test-beacon")


@pytest.fixture()
def fresh_deployment(contract_params, beacon, rng):
    owner = DataOwner(contract_params, rng=rng)
    package = owner.prepare(b"\x5a" * 800)
    provider = StorageProvider(rng=rng)
    chain = Blockchain(block_time=15.0)
    terms = ContractTerms(num_audits=3, audit_interval=100.0, response_window=30.0)
    deployment = deploy_audit_contract(
        chain, package, provider, terms, beacon, contract_params
    )
    return chain, deployment, package, provider


class TestLifecycle:
    def test_honest_provider_full_contract(self, fresh_deployment):
        chain, deployment, _, _ = fresh_deployment
        supply = chain.total_supply()
        contract = run_contract_to_completion(chain, deployment)
        assert contract.state is State.CLOSED
        assert contract.passes == 3
        assert contract.fails == 0
        assert chain.total_supply() == supply  # no value minted or burned
        names = [e.name for e in chain.events]
        assert names[:3] == ["negotiated", "acked", "inited"]
        assert names.count("challenged") == 3
        assert names.count("proofposted") == 3
        assert names.count("pass") == 3
        assert names[-1] == "expired"

    def test_provider_paid_per_pass(self, fresh_deployment):
        chain, deployment, _, _ = fresh_deployment
        contract = run_contract_to_completion(chain, deployment)
        provider_balance = chain.balance_of(deployment.provider_account)
        # 10 ETH start - gas + deposit returned + 3 payments.
        expected_gain = 3 * contract.terms.payment_per_round_wei
        assert provider_balance > 10 * 10**18  # net positive despite gas
        assert provider_balance <= 10 * 10**18 + expected_gain

    def test_gas_matches_paper_anchor(self, fresh_deployment):
        from repro.chain import PAPER_AUDIT_GAS

        chain, deployment, _, _ = fresh_deployment
        contract = run_contract_to_completion(chain, deployment)
        assert all(r.gas_used == PAPER_AUDIT_GAS for r in contract.rounds)

    def test_trail_bytes(self, fresh_deployment):
        chain, deployment, _, _ = fresh_deployment
        contract = run_contract_to_completion(chain, deployment)
        # Each round: 48-byte challenge + 288-byte proof.
        assert contract.total_trail_bytes() == 3 * (48 + 288)

    def test_data_dropping_provider_slashed(self, fresh_deployment):
        chain, deployment, _, _ = fresh_deployment
        deployment.provider_agent.misbehave_after_round = 1
        contract = run_contract_to_completion(chain, deployment)
        assert contract.passes == 1
        assert contract.fails == 2
        owner_balance = chain.balance_of(deployment.owner_account)
        # Owner got compensation for the 2 failed rounds.
        assert len(chain.events_named("fail")) == 2
        assert owner_balance > 0

    def test_silent_provider_fails_by_timeout(self, fresh_deployment):
        chain, deployment, _, _ = fresh_deployment
        deployment.provider_agent.misbehave_after_round = 0
        contract = run_contract_to_completion(chain, deployment)
        assert contract.passes == 0
        assert contract.fails == 3
        assert all(r.proof_bytes is None for r in contract.rounds)


class TestProcessCache:
    """The contract verifies over the process cache, like the engine does,
    and releases its file's digests when it closes."""

    @staticmethod
    def _run_to_round(chain, deployment, round_count):
        contract = chain.contract_at(deployment.contract_address)
        while contract.cnt < round_count:
            chain.mine_block()
            deployment.provider_agent.on_block()
        return contract

    def test_second_round_rebuilds_nothing_it_has_seen(
        self, fresh_deployment, monkeypatch
    ):
        import repro.core.authenticator as authenticator

        chain, deployment, package, _ = fresh_deployment
        self._run_to_round(chain, deployment, 1)
        cache = PROCESS_CACHE
        # g2, epsilon and delta are prepared; e(g1, epsilon) has its table.
        assert (len(cache._prepared), len(cache._gt)) == (3, 1)
        seen = set(cache._digests)
        assert seen and {name for name, _ in seen} == {package.name}
        hashed = []
        real = authenticator.block_digest_point
        monkeypatch.setattr(
            authenticator,
            "block_digest_point",
            lambda name, index: hashed.append((name, index)) or real(name, index),
        )
        hits = cache.stats.hits
        contract = self._run_to_round(chain, deployment, 2)
        assert contract.passes == 2
        assert (len(cache._prepared), len(cache._gt)) == (3, 1)
        assert cache.stats.hits > hits
        assert not seen & set(hashed)
        assert len(hashed) == len(set(hashed)) == len(cache._digests) - len(seen)

    def test_a_closed_contract_leaves_no_digest_behind(self, fresh_deployment):
        chain, deployment, package, _ = fresh_deployment
        self._run_to_round(chain, deployment, 1)
        assert any(name == package.name for name, _ in PROCESS_CACHE._digests)
        points = set(PROCESS_CACHE._digests.values())
        contract = run_contract_to_completion(chain, deployment)
        assert contract.state is State.CLOSED
        assert not PROCESS_CACHE._digests
        assert not points & set(PROCESS_CACHE._wnaf)


class TestStateMachineGuards:
    def _bare_contract(self, contract_params, beacon):
        chain = Blockchain()
        owner = chain.create_account(10.0)
        provider = chain.create_account(10.0)
        contract = AuditContract(
            owner=owner,
            provider=provider,
            terms=ContractTerms(num_audits=1),
            beacon=beacon,
            params=contract_params,
        )
        address = chain.deploy(contract, deployer=owner)
        return chain, contract, address, owner, provider

    def test_only_owner_negotiates(self, contract_params, beacon, package):
        chain, contract, address, _, provider = self._bare_contract(
            contract_params, beacon
        )
        receipt = chain.transact(
            Transaction(
                sender=provider, to=address, method="negotiate",
                args=(package.public, package.name, package.num_chunks),
            )
        )
        assert not receipt.success
        assert contract.state is State.NEGOTIATING

    def test_acknowledge_requires_ack_state(self, contract_params, beacon):
        chain, contract, address, _, provider = self._bare_contract(
            contract_params, beacon
        )
        receipt = chain.transact(
            Transaction(sender=provider, to=address, method="acknowledge")
        )
        assert not receipt.success

    def test_freeze_requires_party(self, contract_params, beacon, package):
        chain, contract, address, owner, provider = self._bare_contract(
            contract_params, beacon
        )
        chain.transact(
            Transaction(
                sender=owner, to=address, method="negotiate",
                args=(package.public, package.name, package.num_chunks),
            )
        )
        chain.transact(Transaction(sender=provider, to=address, method="acknowledge"))
        outsider = chain.create_account(10.0)
        receipt = chain.transact(
            Transaction(sender=outsider, to=address, method="freeze", value=10**18)
        )
        assert not receipt.success

    def test_an_over_deposit_reverts_and_locks_nothing(
        self, contract_params, beacon, package
    ):
        """A deposit 1 wei over the agreed amount reverts whole: the contract
        records nothing, so the owner's own deposit cannot open the audit."""
        chain, contract, address, owner, provider = self._bare_contract(
            contract_params, beacon
        )
        chain.transact(
            Transaction(
                sender=owner, to=address, method="negotiate",
                args=(package.public, package.name, package.num_chunks),
            )
        )
        chain.transact(Transaction(sender=provider, to=address, method="acknowledge"))
        terms = contract.terms
        over = chain.transact(
            Transaction(sender=provider, to=address, method="freeze",
                        value=terms.provider_deposit_wei + 1)
        )
        assert not over.success and "exceeds" in over.error
        assert contract.deposits == {owner: 0, provider: 0}
        assert chain.balance_of(address) == 0
        receipt = chain.transact(
            Transaction(sender=owner, to=address, method="freeze",
                        value=terms.owner_deposit_wei)
        )
        assert receipt.success, receipt.error
        assert contract.state is State.FREEZE
        assert contract.deposits == {owner: terms.owner_deposit_wei, provider: 0}

    def test_provider_can_reject(self, contract_params, beacon, package):
        chain, contract, address, owner, provider = self._bare_contract(
            contract_params, beacon
        )
        chain.transact(
            Transaction(
                sender=owner, to=address, method="negotiate",
                args=(package.public, package.name, package.num_chunks),
            )
        )
        receipt = chain.transact(
            Transaction(sender=provider, to=address, method="reject")
        )
        assert receipt.success
        assert contract.state is State.CLOSED
        assert chain.events_named("rejected")

    def test_proof_before_challenge_rejected(self, contract_params, beacon, package):
        chain, contract, address, owner, provider = self._bare_contract(
            contract_params, beacon
        )
        chain.transact(
            Transaction(
                sender=owner, to=address, method="negotiate",
                args=(package.public, package.name, package.num_chunks),
            )
        )
        receipt = chain.transact(
            Transaction(
                sender=provider, to=address, method="submit_proof",
                args=(b"\x00" * 288,),
            )
        )
        assert not receipt.success

    def test_wrong_size_proof_rejected(self, fresh_deployment):
        chain, deployment, _, _ = fresh_deployment
        contract = chain.contract_at(deployment.contract_address)
        # Advance until a challenge is open.
        while contract.state is not State.PROVE:
            chain.mine_block()
        receipt = chain.transact(
            Transaction(
                sender=deployment.provider_account,
                to=deployment.contract_address,
                method="submit_proof",
                args=(b"\x01" * 100,),
            )
        )
        assert not receipt.success

    def test_garbage_proof_of_right_size_fails_audit(self, fresh_deployment):
        chain, deployment, _, provider = fresh_deployment
        contract = chain.contract_at(deployment.contract_address)
        while contract.state is not State.PROVE:
            chain.mine_block()
        # A syntactically valid but cryptographically garbage proof:
        # infinity points + zero scalar + identity GT element.
        garbage = bytearray(288)
        garbage[0] = 0x80
        garbage[64] = 0x80
        receipt = chain.transact(
            Transaction(
                sender=deployment.provider_account,
                to=deployment.contract_address,
                method="submit_proof",
                args=(bytes(garbage),),
            )
        )
        assert receipt.success  # posting succeeds...
        chain.advance_time(31.0)  # ...verification fails
        assert contract.fails >= 1
        assert chain.events_named("fail")
