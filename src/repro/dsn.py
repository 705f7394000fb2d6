"""End-to-end DSN orchestration: storage + auditing + repair, one object.

This is the "plug-in component" deployment of paper Section VII-A made
concrete: :class:`AuditedDsn` glues the storage substrate (encrypt /
erasure-code / DHT placement), the audit layer (one Fig. 2 contract per
shard-holding provider) and the reputation registry together, and closes
the loop the paper leaves to the reader — when an audit fails, the shard
is repaired onto a fresh provider, and a replacement contract is deployed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chain import Blockchain, ContractTerms, Transaction, deploy_audit_contract
from .chain.agents import AuditDeployment
from .chain.contracts.audit_contract import AuditContract, State
from .chain.contracts.reputation import ReputationRegistry
from .core import DataOwner, ProtocolParams, StorageProvider
from .randomness.beacon import RandomnessBeacon
from .storage import DsnClient, DsnCluster, FileManifest


@dataclass
class ShardAudit:
    """The audit-side record for one placed shard."""

    provider: str
    shard_index: int
    deployment: AuditDeployment
    file_name: int
    replaced: bool = False
    #: Contract rounds already reported to the reputation registry.
    reported_rounds: int = 0


@dataclass
class AuditedFile:
    manifest: FileManifest
    shard_audits: list[ShardAudit] = field(default_factory=list)


class AuditedDsn:
    """A decentralized storage deployment with full on-chain auditing.

    ``chain`` may be a single :class:`~repro.chain.Blockchain` or a
    :class:`~repro.chain.fabric.ShardedChainFabric`: each shard's audit
    contract (and its owner/provider accounts) lands on the audited file
    name's deterministic home lane, ``step()`` mines every lane in
    lockstep, and the reputation registry lives on its own lane with
    reports routed to it by address — so one DSN's audit traffic spreads
    across the fabric instead of serializing through one block producer.
    """

    def __init__(
        self,
        cluster: DsnCluster,
        chain,
        beacon: RandomnessBeacon,
        params: ProtocolParams | None = None,
        terms: ContractTerms | None = None,
        reputation: ReputationRegistry | None = None,
        rng=None,
    ):
        self.cluster = cluster
        self.chain = chain
        self.beacon = beacon
        self.params = params or ProtocolParams(s=8, k=5)
        self.terms = terms or ContractTerms(
            num_audits=3, audit_interval=100.0, response_window=30.0
        )
        self.reputation = reputation
        self._reputation_address: str | None = None
        self._rng = rng
        self.files: dict[str, AuditedFile] = {}
        self._clients: dict[str, DsnClient] = {}
        if reputation is not None:
            operator = chain.create_account(1.0, label="registry-operator")
            self._reputation_address = chain.deploy(reputation, deployer=operator)

    # -- storage + contract deployment --------------------------------------

    def store(
        self, owner_name: str, file_id: str, data: bytes, n: int = 6, k: int = 3
    ) -> AuditedFile:
        """Place a file and put every shard under an audit contract."""
        client = DsnClient(owner_name, self.cluster)
        manifest = client.store(file_id, data, n=n, k=k)
        audited = AuditedFile(manifest=manifest)
        self.files[file_id] = audited
        self._clients[file_id] = client
        for location in manifest.shards:
            self._deploy_shard_contract(audited, location.provider, location.shard_index)
        return audited

    def _deploy_shard_contract(
        self, audited: AuditedFile, provider_name: str, shard_index: int
    ) -> ShardAudit:
        shard_data = self.cluster.node(provider_name).get(
            audited.manifest.file_id, shard_index
        )
        if shard_data is None:
            raise RuntimeError(f"{provider_name} does not hold shard {shard_index}")
        owner = DataOwner(self.params, rng=self._rng)
        package = owner.prepare(shard_data)
        provider_role = StorageProvider(rng=self._rng)
        deployment = deploy_audit_contract(
            self.chain, package, provider_role, self.terms, self.beacon, self.params
        )
        audited.manifest.audit_names[f"{provider_name}:{shard_index}"] = package.name
        shard_audit = ShardAudit(
            provider=provider_name,
            shard_index=shard_index,
            deployment=deployment,
            file_name=package.name,
        )
        audited.shard_audits.append(shard_audit)
        return shard_audit

    # -- the operational loop -------------------------------------------------

    def step(self) -> list[str]:
        """Mine one block, let agents act, and repair any failed shard.

        Returns the file ids repaired in this step.
        """
        self.chain.mine_block()
        repaired = []
        for file_id, audited in self.files.items():
            for shard_audit in list(audited.shard_audits):
                if shard_audit.replaced:
                    continue
                shard_audit.deployment.provider_agent.on_block()
                contract = self.chain.contract_at(
                    shard_audit.deployment.contract_address
                )
                assert isinstance(contract, AuditContract)
                self._report_reputation(shard_audit, contract)
                if contract.fails > 0 and not shard_audit.replaced:
                    self._repair(file_id, audited, shard_audit)
                    repaired.append(file_id)
        return repaired

    def run(self, blocks: int) -> list[str]:
        repaired = []
        for _ in range(blocks):
            repaired.extend(self.step())
        return repaired

    def all_contracts_closed(self) -> bool:
        return all(
            self.chain.contract_at(sa.deployment.contract_address).state
            is State.CLOSED
            for audited in self.files.values()
            for sa in audited.shard_audits
            if not sa.replaced
        )

    # -- repair ---------------------------------------------------------------

    def _repair(
        self, file_id: str, audited: AuditedFile, failed: ShardAudit
    ) -> None:
        """Regenerate the failed provider's shard onto a fresh node."""
        client = self._clients[file_id]
        manifest = client.repair(audited.manifest, failed.provider)
        audited.manifest = manifest
        failed.replaced = True
        # Find the replacement location and put it under audit too.
        replacement = next(
            loc
            for loc in manifest.shards
            if loc.shard_index == failed.shard_index
        )
        self._deploy_shard_contract(
            audited, replacement.provider, replacement.shard_index
        )

    # -- reputation bridge ------------------------------------------------------

    def _report_reputation(
        self, shard_audit: ShardAudit, contract: AuditContract
    ) -> None:
        if self.reputation is None or self._reputation_address is None:
            return
        record = self.reputation.providers.get(shard_audit.provider)
        if record is None:
            return
        for round_record in contract.rounds[shard_audit.reported_rounds:]:
            if round_record.passed is None:
                break
            self.chain.transact(
                Transaction(
                    sender=contract.address,
                    to=self._reputation_address,
                    method="report_audit",
                    args=(shard_audit.provider, round_record.passed),
                    gas_price_gwei=0.0,
                )
            )
            shard_audit.reported_rounds += 1

    # -- retrieval ---------------------------------------------------------------

    def retrieve(self, file_id: str) -> bytes:
        return self._clients[file_id].retrieve(self.files[file_id].manifest)
