"""Off-chain agents reacting to on-chain events (the D and S daemons).

The paper's deployment has three processes: the contract on the chain, the
data owner's client and the storage provider's daemon.  These classes are
the two daemons: after every block they inspect the contract state and act
(the provider answers open challenges; the owner just watches — its money
moves automatically through the contract's pass/fail logic).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.challenge import Challenge
from ..core.proof import PrivateProof
from ..core.protocol import OutsourcingPackage, StorageProvider
from ..core.prover import ProveReport, ResponseWithheld
from .blockchain import Blockchain, Transaction
from .contracts.audit_contract import AuditContract, ContractTerms, State


@dataclass
class ProviderAgent:
    """The storage provider's daemon: answers challenges as they appear."""

    chain: Blockchain
    account: str
    provider: StorageProvider
    contract_address: str
    file_name: int
    prove_reports: list[ProveReport] = field(default_factory=list)
    misbehave_after_round: int | None = None  # drop data mid-contract
    #: submit proofs through the chain's mempool instead of transact();
    #: requires the chain to carry a pool.  Proofs then compete for block
    #: space at ``tip_gwei`` under the fee market (audit-storm realism).
    use_pool: bool = False
    tip_gwei: float = 1.0
    pool_gas_limit: int = 1_000_000
    #: keep the legacy gas_price as fee cap + tip instead of the wallet
    #: suggestion — what the differential congestion test uses to prove
    #: the pool path charges bit-identical fees to transact().
    pool_legacy_fees: bool = False

    def pending_challenge(self) -> Challenge | None:
        """The challenge awaiting this agent's proof, if any.

        Applies the misbehaviour schedule (dropping the file when its round
        comes) and returns None when no response is due — either nothing is
        open or the data is gone and the agent stays silent.
        """
        contract = self.chain.contract_at(self.contract_address)
        assert isinstance(contract, AuditContract)
        if contract.state is not State.PROVE:
            return None
        current = contract.rounds[contract.cnt]
        if current.proof_bytes is not None:
            return None
        if (
            self.misbehave_after_round is not None
            and contract.cnt >= self.misbehave_after_round
        ):
            self.provider.drop_file(self.file_name)
        try:
            self.provider.prover_for(self.file_name)
        except KeyError:
            return None  # data gone: stay silent and eat the timeout failure
        return current.challenge

    def submit(self, proof: PrivateProof, report: ProveReport | None = None) -> None:
        """Post a finished proof for the currently-open round."""
        if report is not None:
            self.prove_reports.append(report)
        payload = proof.to_bytes()
        if self.use_pool:
            pool = self.chain.pool
            assert pool is not None, "use_pool requires a mempool-enabled chain"
            if self.pool_legacy_fees:
                max_fee_gwei = tip_gwei = None
            else:
                max_fee_gwei, tip_gwei = pool.suggest_fees(self.tip_gwei)
            self.chain.submit(
                Transaction(
                    sender=self.account,
                    to=self.contract_address,
                    method="submit_proof",
                    args=(payload,),
                    gas_limit=self.pool_gas_limit,
                    max_fee_gwei=max_fee_gwei,
                    priority_fee_gwei=tip_gwei,
                ),
                payload_bytes=len(payload),
            )
            return
        self.chain.transact(
            Transaction(
                sender=self.account,
                to=self.contract_address,
                method="submit_proof",
                args=(payload,),
            ),
            payload_bytes=len(payload),
        )

    def on_block(self) -> None:
        challenge = self.pending_challenge()
        if challenge is None:
            return
        report = ProveReport()
        try:
            proof = self.provider.respond(self.file_name, challenge, report)
        except (KeyError, ResponseWithheld):
            return  # data gone or provider offline: eat the timeout failure
        self.submit(proof, report)


@dataclass
class AuditDeployment:
    """Everything created by :func:`deploy_audit_contract`."""

    contract_address: str
    owner_account: str
    provider_account: str
    provider_agent: ProviderAgent


def deploy_audit_contract(
    chain,
    package: OutsourcingPackage,
    provider: StorageProvider,
    terms: ContractTerms,
    beacon,
    params,
    owner_funds_eth: float = 10.0,
    provider_funds_eth: float = 10.0,
    native_verify_ms: float | None = None,
    registry_address: str | None = None,
    validate: bool = True,
) -> AuditDeployment:
    """Run the full Initialize phase of Fig. 2 and return the live system.

    Performs: account creation, contract deployment, negotiate (D),
    off-chain package validation + acknowledge (S), and both freeze
    deposits; the first challenge is scheduled on the chain clock.  With
    ``registry_address`` the contract reports round outcomes to the
    reputation registry inline and dispute slashes reach the provider's
    stake (the caller must authorize the new contract as a reporter).

    ``chain`` may be a single :class:`Blockchain` or a
    :class:`~repro.chain.fabric.ShardedChainFabric`: on a fabric the whole
    deployment (both accounts and the contract) lands on the audited
    file's deterministic home lane, so agents and the contract never cross
    a shard boundary.
    """
    if hasattr(chain, "home_lane"):  # ShardedChainFabric
        chain = chain.home_lane(package.name)
    owner_account = chain.create_account(owner_funds_eth, label="data-owner")
    provider_account = chain.create_account(provider_funds_eth, label="provider")
    kwargs = {}
    if native_verify_ms is not None:
        kwargs["native_verify_ms"] = native_verify_ms
    contract = AuditContract(
        owner=owner_account,
        provider=provider_account,
        terms=terms,
        beacon=beacon,
        params=params,
        registry_address=registry_address,
        **kwargs,
    )
    address = chain.deploy(contract, deployer=owner_account)

    receipt = chain.transact(
        Transaction(
            sender=owner_account,
            to=address,
            method="negotiate",
            args=(package.public, package.name, package.num_chunks),
        ),
        payload_bytes=package.public.byte_size(),
    )
    if not receipt.success:
        raise RuntimeError(f"negotiate failed: {receipt.error}")

    if not provider.accept(package, validate=validate):
        chain.transact(
            Transaction(sender=provider_account, to=address, method="reject")
        )
        raise RuntimeError("provider rejected the package (invalid metadata)")
    receipt = chain.transact(
        Transaction(sender=provider_account, to=address, method="acknowledge")
    )
    if not receipt.success:
        raise RuntimeError(f"acknowledge failed: {receipt.error}")

    for sender, amount in (
        (owner_account, terms.owner_deposit_wei),
        (provider_account, terms.provider_deposit_wei),
    ):
        receipt = chain.transact(
            Transaction(
                sender=sender, to=address, method="freeze", value=amount
            )
        )
        if not receipt.success:
            raise RuntimeError(f"freeze failed: {receipt.error}")

    agent = ProviderAgent(
        chain=chain,
        account=provider_account,
        provider=provider,
        contract_address=address,
        file_name=package.name,
    )
    return AuditDeployment(
        contract_address=address,
        owner_account=owner_account,
        provider_account=provider_account,
        provider_agent=agent,
    )


def run_contract_to_completion(
    chain,
    deployment: AuditDeployment,
    max_blocks: int = 100_000,
) -> AuditContract:
    """Advance the chain until the contract closes, letting agents react."""
    return run_contracts_to_completion(chain, [deployment], max_blocks)[0]


def run_contracts_to_completion(
    chain,
    deployments: list[AuditDeployment],
    max_blocks: int = 100_000,
) -> list[AuditContract]:
    """Drive many concurrent contracts until all close.

    ``chain`` is a single :class:`Blockchain` or a
    :class:`~repro.chain.fabric.ShardedChainFabric`; a fabric mines every
    lane per step (the lockstep clock) and routes ``contract_at`` to the
    owning lane, while each provider agent submits proofs directly to its
    deployment's home lane.

    All provider agents get to react after every block — necessary because
    contracts share the chain clock: running them one at a time would let
    the others' response windows lapse.
    """
    contracts = []
    for deployment in deployments:
        contract = chain.contract_at(deployment.contract_address)
        assert isinstance(contract, AuditContract)
        contracts.append(contract)
    for _ in range(max_blocks):
        if all(c.state is State.CLOSED for c in contracts):
            return contracts
        chain.mine_block()
        for deployment in deployments:
            deployment.provider_agent.on_block()
    raise RuntimeError("contracts did not close within the block budget")

