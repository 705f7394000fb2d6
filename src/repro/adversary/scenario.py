"""Scenario runner: strategy mixes through the engine, stats vs. theory.

Two execution surfaces:

* :class:`ScenarioRunner` settles a fleet with any honest/byzantine mix
  through :class:`~repro.rollup.fabric.CrossShardAggregator` on a
  one-lane fabric — per-epoch beacon challenges, grouped batch
  verification, failure localization, a posted checkpoint — and tallies
  the verdicts that checkpoint commits per strategy against
  :func:`~repro.adversary.strategies.expected_detection_rate`.
* :func:`run_onchain_dispute` drives one cheating provider through the
  *audit contract*, raises a dispute on the first confirmed failure and
  returns the explorer-visible consequences (collateral slash, reputation
  stake slash, event log).

Statistical detection rates additionally come from
:func:`measured_detection_rate`, which samples real challenge expansions
(the PRP/PRF machinery on which detection rests) without paying for
pairings — the cryptographic reject-every-tampered-proof property is
asserted separately by ``tests/adversary/``.
"""

from __future__ import annotations

import random
from contextlib import closing
from dataclasses import dataclass, field

from ..chain import (
    Blockchain,
    ChainExplorer,
    ContractTerms,
    ShardedChainFabric,
    Transaction,
    deploy_audit_contract,
)
from ..chain.contracts.audit_contract import AuditContract, State
from ..chain.contracts.reputation import ReputationRegistry
from ..core import DataOwner, ProtocolParams, StorageProvider
from ..core.challenge import random_challenge
from ..core.prover import Prover
from ..engine import AuditExecutor, AuditInstance
from ..randomness import HashChainBeacon
from ..rollup import CrossShardAggregator
from ..sim.workloads import archive_file
from .strategies import StrategySpec, expected_detection_rate, make_prover


@dataclass
class StrategyStats:
    """Measured vs. predicted detection for one strategy across a run."""

    kind: str
    rho: float
    audits: int = 0
    detected: int = 0            # rejected or withheld audits
    detectable: int = 0          # ground truth: audits that SHOULD fail
    false_accepts: int = 0       # tampered answer accepted (must stay 0)
    false_rejects: int = 0       # honest answer rejected (must stay 0)

    @property
    def measured_rate(self) -> float:
        return self.detected / self.audits if self.audits else 0.0

    def predicted_rate(self, k: int, epochs: int) -> float | None:
        return expected_detection_rate(self.kind, self.rho, k, epochs)


@dataclass
class ScenarioReport:
    """Everything a scenario run produced, ready for CLI/docs tables."""

    epochs: int
    num_instances: int
    k: int
    stats: dict[str, StrategyStats]
    rejected_log: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)

    @property
    def zero_false_accepts(self) -> bool:
        return all(s.false_accepts == 0 for s in self.stats.values())

    @property
    def zero_false_rejects(self) -> bool:
        return all(s.false_rejects == 0 for s in self.stats.values())

    def summary_lines(self) -> list[str]:
        lines = [
            f"{'strategy':<10} {'rho':>5} {'audits':>7} {'detected':>9} "
            f"{'measured':>9} {'predicted':>10}"
        ]
        for kind, stats in sorted(self.stats.items()):
            predicted = stats.predicted_rate(self.k, self.epochs)
            predicted_text = f"{predicted:.3f}" if predicted is not None else "n/a"
            lines.append(
                f"{kind:<10} {stats.rho:>5.2f} {stats.audits:>7} "
                f"{stats.detected:>9} {stats.measured_rate:>9.3f} "
                f"{predicted_text:>10}"
            )
        lines.append(
            f"false accepts: {sum(s.false_accepts for s in self.stats.values())}"
            f"  false rejects: {sum(s.false_rejects for s in self.stats.values())}"
        )
        return lines


class ScenarioRunner:
    """Settles a strategy mix through the aggregator and keeps score."""

    def __init__(
        self,
        specs: "list[StrategySpec | tuple[str, int]]",
        params: ProtocolParams | None = None,
        file_bytes: int = 2500,
        seed: int = 2026,
    ):
        # Accept plain (kind, count) pairs too — the shape
        # sim.workloads.adversarial_fleet_mix produces.
        self.specs = [
            spec if isinstance(spec, StrategySpec) else StrategySpec(*spec)
            for spec in specs
        ]
        if not self.specs:
            raise ValueError("at least one strategy spec required")
        kinds = [spec.kind for spec in self.specs]
        if len(kinds) != len(set(kinds)):
            raise ValueError("one spec per strategy kind (stats are per kind)")
        self.params = params or ProtocolParams(s=6, k=4)
        self._rng = random.Random(seed)
        self._beacon = HashChainBeacon(b"adversary-scenario")
        owner = DataOwner(self.params, rng=self._rng)
        self.instances: list[AuditInstance] = []
        self.provers: dict[int, Prover] = {}
        self.kinds: dict[int, tuple[str, float]] = {}
        serial = 0
        for spec in self.specs:
            for _ in range(spec.count):
                package = owner.prepare(
                    archive_file(file_bytes, tag=f"scenario-{serial}").data,
                    fresh_keypair=serial == 0,
                )
                self.instances.append(
                    AuditInstance.from_package(package, owner_id="scenario-owner")
                )
                self.provers[package.name] = make_prover(
                    spec.kind, package, rng=self._rng, rho=spec.rho
                )
                self.kinds[package.name] = (spec.kind, spec.rho)
                serial += 1

    def run(self, epochs: int = 2) -> ScenarioReport:
        """Drive ``epochs`` beacon rounds and tally detection per strategy."""
        stats = {
            spec.kind: StrategyStats(kind=spec.kind, rho=spec.rho)
            for spec in self.specs
        }
        report = ScenarioReport(
            epochs=epochs,
            num_instances=len(self.instances),
            k=self.params.k,
            stats=stats,
        )
        fabric = ShardedChainFabric(num_lanes=1)
        with closing(fabric), AuditExecutor(
            self.instances, workers=1
        ) as executor, closing(
            CrossShardAggregator(fabric, executor, self.params, self._beacon)
        ) as aggregator:
            for name, (kind, _) in self.kinds.items():
                if kind != "honest":
                    prover = self.provers[name]
                    aggregator.set_override(
                        name,
                        lambda challenge, epoch, prover=prover: (
                            prover.respond_private(challenge)
                        ),
                    )
            first_response_epoch: dict[int, int] = {}
            for epoch in range(epochs):
                # Score the verdicts the settled checkpoint commits.
                settlement = aggregator.settle_epoch(epoch)
                result = settlement.lanes[0].result
                rejected = set(settlement.rejected_names())
                withheld = set(result.withheld)
                report.rejected_log.append((epoch, tuple(sorted(rejected))))
                for name, (kind, _) in self.kinds.items():
                    entry = stats[kind]
                    entry.audits += 1
                    answered = name not in withheld
                    if answered and name not in first_response_epoch:
                        first_response_epoch[name] = epoch
                    detected = name in rejected
                    should_detect = self._ground_truth(
                        name, kind, result, first_response_epoch, answered, epoch
                    )
                    if detected:
                        entry.detected += 1
                    if should_detect:
                        entry.detectable += 1
                        if not detected:
                            entry.false_accepts += 1
                    elif detected:
                        entry.false_rejects += 1
        return report

    def _ground_truth(
        self,
        name: int,
        kind: str,
        result,
        first_response_epoch: dict[int, int],
        answered: bool,
        epoch: int,
    ) -> bool:
        """Should this instance's audit have failed this epoch?"""
        if kind == "honest":
            return False
        if kind == "forge":
            return True
        if kind == "replay":
            return first_response_epoch.get(name) != epoch
        if kind in ("selective", "bitrot"):
            prover = self.provers[name]
            return prover.would_be_detected(result.challenges[name])
        if kind == "offline":
            return not answered  # silence IS the detectable event
        raise ValueError(f"unknown strategy kind {kind!r}")


def measured_detection_rate(
    num_chunks: int,
    rho: float,
    params: ProtocolParams,
    trials: int = 2000,
    seed: int = 7,
) -> tuple[float, float]:
    """(measured, predicted) detection rate for selective storage.

    Samples ``trials`` real challenge expansions (the Feistel-PRP index
    sampling the contract uses) against a ``rho``-fraction discarded set
    and counts how often the challenged set hits a discarded chunk.  The
    prediction is the paper's ``1 - (1 - rho)^c`` with ``c = min(k, n)``.
    Cryptographic rejection of every hit is asserted separately — this
    function measures the *sampling* side of the detection argument at
    scale (hundreds of trials without hundreds of pairings).
    """
    rng = random.Random(seed)
    discarded = frozenset(
        rng.sample(range(num_chunks), round(num_chunks * rho))
    )
    hits = 0
    for _ in range(trials):
        challenge = random_challenge(params, rng=rng)
        expanded = challenge.expand(num_chunks)
        if any(index in discarded for index in expanded.indices):
            hits += 1
    effective_k = min(params.k, num_chunks)
    predicted = expected_detection_rate("selective", rho, effective_k)
    assert predicted is not None
    return hits / trials, predicted


# --------------------------------------------------------------------------- #
# On-chain dispute demonstration                                              #
# --------------------------------------------------------------------------- #


@dataclass
class DisputeDemoResult:
    """The explorer-visible consequences of one on-chain attack + dispute."""

    strategy: str
    chain: Blockchain
    explorer: ChainExplorer
    contract: AuditContract
    registry_address: str
    provider_account: str
    passes: int
    fails: int
    reject_reasons: tuple[str, ...]
    disputes_raised: int
    collateral_slashed_wei: int
    stake_before_wei: int
    stake_after_wei: int
    score_before: float
    score_after: float

    def summary_lines(self) -> list[str]:
        lines = [
            f"strategy: {self.strategy}",
            f"rounds: {self.passes} passed, {self.fails} failed "
            f"(reasons: {', '.join(self.reject_reasons) or 'none'})",
            f"disputes raised: {self.disputes_raised}",
            f"collateral slashed: {self.collateral_slashed_wei:,} wei",
            f"registry stake: {self.stake_before_wei:,} -> "
            f"{self.stake_after_wei:,} wei",
            f"reputation score: {self.score_before:.3f} -> "
            f"{self.score_after:.3f}",
        ]
        lines.append("dispute events:")
        for event in self.explorer.dispute_log():
            lines.append(f"  {event['name']}: {event['payload']}")
        return lines


def run_onchain_dispute(
    strategy: str = "replay",
    rho: float = 0.5,
    rounds: int = 3,
    params: ProtocolParams | None = None,
    file_bytes: int = 1200,
    seed: int = 11,
    stake_eth: float = 1.0,
) -> DisputeDemoResult:
    """Deploy a cheating provider on chain, audit it, dispute the failures.

    The full loop the tentpole promises: the strategy prover is substituted
    into an honest :class:`~repro.core.protocol.StorageProvider`, the
    Fig. 2 contract runs its scheduled rounds, every failed round is
    disputed by the data owner as it resolves, and the dispute-confirmed
    cheats slash the provider's contract collateral *and* its stake in the
    reputation registry — all visible through the chain explorer.
    """
    params = params or ProtocolParams(s=6, k=4)
    rng = random.Random(seed)
    chain = Blockchain(block_time=15.0)

    registry = ReputationRegistry(min_stake_wei=int(stake_eth * 10**18))
    deployer = chain.create_account(1.0, label="registry-deployer")
    registry_address = chain.deploy(registry, deployer=deployer)

    owner = DataOwner(params, rng=rng)
    package = owner.prepare(archive_file(file_bytes, tag="dispute-demo").data)
    provider = StorageProvider(rng=rng)
    if not provider.accept(package):
        raise RuntimeError("provider rejected the honest package")

    terms = ContractTerms(
        num_audits=rounds, audit_interval=100.0, response_window=30.0
    )
    deployment = deploy_audit_contract(
        chain,
        package,
        provider,
        terms,
        HashChainBeacon(b"dispute-demo"),
        params,
        registry_address=registry_address,
    )
    contract = chain.contract_at(deployment.contract_address)
    assert isinstance(contract, AuditContract)

    # The drop-in substitution: the provider's stored prover is replaced by
    # the byzantine strategy AFTER it honestly validated and acknowledged.
    provider._stored[package.name] = make_prover(
        strategy, package, rng=rng, rho=rho
    )

    # Provider stakes into the registry; the audit contract becomes an
    # authorized reporter so outcomes and slashes flow through.
    receipt = chain.transact(
        Transaction(
            sender=deployment.provider_account,
            to=registry_address,
            method="register",
            value=int(stake_eth * 10**18),
        )
    )
    if not receipt.success:
        raise RuntimeError(f"stake registration failed: {receipt.error}")
    chain.transact(
        Transaction(
            sender=deployment.owner_account,
            to=registry_address,
            method="authorize_reporter",
            args=(deployment.contract_address,),
        )
    )
    stake_before = registry.providers[deployment.provider_account].stake_wei
    score_before = chain.call(
        registry_address, "score_of", deployment.provider_account
    )

    disputed: set[int] = set()
    collateral_slashed = 0
    for _ in range(100_000):
        closed = contract.state is State.CLOSED
        # Dispute each failed round as soon as it resolves (and before the
        # contract refunds deposits, so the collateral slash has teeth).
        for record in contract.rounds:
            if record.passed is False and record.round_id not in disputed:
                disputed.add(record.round_id)
                receipt = chain.transact(
                    Transaction(
                        sender=deployment.owner_account,
                        to=deployment.contract_address,
                        method="raise_dispute",
                        args=(record.round_id,),
                        value=terms.dispute_bond_wei,
                    )
                )
                if receipt.success:
                    for event in receipt.events:
                        if event.name == "collateral_slashed":
                            collateral_slashed += event.payload["slashed_wei"]
        if closed:
            break
        chain.mine_block()
        deployment.provider_agent.on_block()
    else:
        raise RuntimeError("contract did not close within the block budget")

    record = registry.providers[deployment.provider_account]
    return DisputeDemoResult(
        strategy=strategy,
        chain=chain,
        explorer=ChainExplorer(chain),
        contract=contract,
        registry_address=registry_address,
        provider_account=deployment.provider_account,
        passes=contract.passes,
        fails=contract.fails,
        reject_reasons=tuple(
            r.reject_reason for r in contract.rounds if r.reject_reason
        ),
        disputes_raised=len(disputed),
        collateral_slashed_wei=collateral_slashed,
        stake_before_wei=stake_before,
        stake_after_wei=record.stake_wei,
        score_before=score_before,
        score_after=chain.call(
            registry_address, "score_of", deployment.provider_account
        ),
    )
