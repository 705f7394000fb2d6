"""The runnable scenarios, as plain functions that return dataclasses.

Everything ``repro <subcommand>`` does beyond parsing flags and printing
lives here, so tests, benches and examples drive the same code the CLI
does and assert on structured results instead of stdout.  The building
blocks are shared:

* :func:`build_fleet` — the owners x files audit fleet every scenario
  starts from;
* :func:`audit_service` — fabric + executor + aggregator + ``ServiceNode``
  + dispatcher + socket server, torn down in the one safe order;
* :func:`forge_flipped_verdict` / :func:`forge_swapped_counts` — the two
  lies an aggregator can post, each slashed by its fraud proof.

Settlement always runs a :class:`~repro.rollup.CrossShardAggregator` over
a :class:`~repro.chain.ShardedChainFabric`; a single chain is the
one-lane fabric.
"""

from __future__ import annotations

import random
import time
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass, field
from typing import Iterator
from urllib.request import urlopen

from .adversary import (
    STRATEGY_KINDS,
    FeeGriefer,
    ScenarioReport,
    ScenarioRunner,
    StrategySpec,
    detect_fee_griefers,
    measured_detection_rate,
    run_onchain_dispute,
)
from .chain import (
    AuditContract,
    Blockchain,
    ChainExplorer,
    CheckpointAmortization,
    CheckpointLightClient,
    CheckpointReplayReport,
    ContractTerms,
    InclusionOutcome,
    CostModel,
    LaneSummary,
    ShardedChainFabric,
    audit_the_auditor_fabric,
    checkpoint_amortization,
    deploy_audit_contract,
    run_contract_to_completion,
)
from .chain.contracts.checkpoint_contract import CheckpointContract
from .chain.mempool import (
    GasSinkContract,
    MempoolConfig,
    MempoolRejection,
    StormTraffic,
)
from .core import (
    DataOwner,
    EclipseChallengeFactory,
    InterpolationAttacker,
    ProtocolParams,
    StorageProvider,
    transcript_from_plain,
    transcripts_needed,
)
from .da import (
    DaCommitment,
    DaParams,
    DaSampler,
    NmtProof,
    SampleReport,
    build_da_bundle,
    bundle_fetch,
    detection_probability,
)
from .engine import AuditExecutor, AuditInstance
from .obs import (
    MetricsHttpServer,
    MetricsRegistry,
    Tracer,
    get_registry,
    register_core_instruments,
)
from .randomness import HashChainBeacon
from .rollup import (
    Checkpoint,
    CrossShardAggregator,
    FabricSettlement,
    build_checkpoint,
)
from .rpc import RpcClient, RpcDispatcher, RpcTcpServer, ServiceNode
from .sim import CongestionPricingModel
from .sim.workloads import archive_file

#: Instruments from these layers must all show up in a served ``metrics_get``.
SERVED_LAYERS = frozenset({"rpc", "mempool", "fabric", "engine", "lifecycle"})


def build_fleet(
    params: ProtocolParams,
    rng,
    *,
    size: int,
    files: int,
    owners: int = 1,
    tag: str = "o{owner}f{file}",
    owner_id: str = "owner-{owner}",
) -> list[AuditInstance]:
    """``owners`` x ``files`` prepared audit instances.

    Each owner draws one keypair (from ``rng``) and signs ``files``
    deterministic ``size``-byte archives; ``tag`` and ``owner_id`` are
    format strings over ``owner`` and ``file`` that name the archive
    contents and the bookkeeping group.  An :class:`AuditInstance` carries
    everything an outsourcing package does (key, name, chunks,
    authenticators), so providers and strategy provers accept it as one.
    """
    instances = []
    for owner_index in range(owners):
        owner = DataOwner(params, rng=rng)
        for file_index in range(files):
            package = owner.prepare(
                archive_file(
                    size, tag=tag.format(owner=owner_index, file=file_index)
                ).data,
                fresh_keypair=file_index == 0,
            )
            instances.append(
                AuditInstance.from_package(
                    package,
                    owner_id=owner_id.format(owner=owner_index, file=file_index),
                )
            )
    return instances


@dataclass
class AuditService:
    """A live audit service: every part, for callers that drive it."""

    fabric: ShardedChainFabric
    executor: AuditExecutor
    aggregator: CrossShardAggregator
    node: ServiceNode
    dispatcher: RpcDispatcher
    registry: MetricsRegistry
    host: str
    port: int
    metrics_url: str | None


@contextmanager
def audit_service(
    instances,
    params: ProtocolParams,
    beacon,
    rng,
    *,
    lanes: int,
    workers: int = 1,
    deterministic: bool = False,
    da_params: DaParams | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    metrics_port: int = -1,
) -> Iterator[AuditService]:
    """The sharded audit service ``repro serve`` hosts, wired and listening.

    The service hosts the process-wide registry — every layer below
    (mempool, fabric, engine) records into it by default — plus an
    epoch-pipeline tracer for ``trace_get``; spans are only collected when
    settlement runs on the calling thread, i.e. ``workers == 1`` or one
    populated lane (see :class:`CrossShardAggregator`).
    Nothing is settled on entry.  On exit — or when wiring fails half way —
    what was started stops in reverse: the miner, the RPC socket, the
    metrics endpoint, the lane threads, the prover threads, the WAL stores.
    """
    registry = get_registry()
    register_core_instruments(registry)
    with ExitStack() as stack:
        fabric = ShardedChainFabric(num_lanes=lanes, mempool=MempoolConfig())
        stack.callback(fabric.close)
        fabric.attach_gauges()
        executor = AuditExecutor(instances, workers=workers)
        stack.callback(executor.close)
        aggregator = CrossShardAggregator(
            fabric, executor, params, beacon, rng=rng,
            deterministic=deterministic, tracer=Tracer(), da_params=da_params,
        )
        stack.callback(aggregator.close)
        metrics_url = None
        if metrics_port >= 0:
            metrics = MetricsHttpServer(registry, host=host, port=metrics_port)
            metrics.start()
            stack.callback(metrics.stop)
            metrics_url = f"http://{metrics.host}:{metrics.port}/metrics"
        node = ServiceNode(fabric, aggregator=aggregator)
        dispatcher = RpcDispatcher(registry=registry, tracer=aggregator.tracer)
        node.register_on(dispatcher)
        server = RpcTcpServer(dispatcher, host=host, port=port)
        bound_host, bound_port = server.serve_in_thread()
        stack.callback(server.close)
        stack.callback(node.stop_auto_mine)
        yield AuditService(
            fabric, executor, aggregator, node, dispatcher, registry,
            bound_host, bound_port, metrics_url,
        )


@dataclass
class FraudOutcome:
    """One forged checkpoint and what its fraud proof did to it."""

    lane_id: int
    checkpoint_id: int
    caught: bool
    slashed_wei: int = 0
    reason: str = ""
    chunks_used: int = 0   # DA chunks the challenger reconstructed from


def _fraud_outcome(lane_id, checkpoint_id, challenge_receipt, **extra) -> FraudOutcome:
    slashed = [
        e for e in challenge_receipt.events if e.name == "checkpoint_slashed"
    ]
    payload = slashed[0].payload if slashed else {}
    return FraudOutcome(
        lane_id=lane_id,
        checkpoint_id=checkpoint_id,
        caught=bool(challenge_receipt.success and slashed),
        slashed_wei=payload.get("slashed_wei", 0),
        reason=payload.get("reason", ""),
        **extra,
    )


def forge_flipped_verdict(
    aggregator: CrossShardAggregator, lane_id: int, epoch: int
) -> FraudOutcome:
    """A lying lane aggregator flips one verdict; a challenger takes the bond.

    Runs one more engine epoch on the lane, flips the first record of its
    record set, posts the forged commitment under bond, and opens the
    flipped leaf on chain from a fresh challenger account.
    """
    pipeline = aggregator.pipelines[lane_id]
    _, honest = pipeline.audit_epoch(epoch)
    records = list(honest.records)
    records[0] = records[0].flipped()
    forged = build_checkpoint(epoch, tuple(records))
    posted = pipeline.client.post_checkpoint(pipeline.aggregator, forged.checkpoint)
    challenger = pipeline.chain.create_account(1.0, label="challenger")
    challenge = pipeline.client.challenge_leaf(
        challenger, posted.return_value, forged.prove(records[0].name)
    )
    return _fraud_outcome(lane_id, posted.return_value, challenge)


def forge_swapped_counts(
    aggregator: CrossShardAggregator,
    lane_id: int,
    epoch: int,
    seed: bytes,
    registry: MetricsRegistry | None = None,
) -> FraudOutcome:
    """An honest root under swapped accepted/rejected counts, slashed via DA.

    The lying aggregator also posts the DA commitment its obligation
    demands.  A light client then reconstructs the leaf set from sampled
    chunks alone — it never sees the aggregator's leaves — and disputes
    the counts on chain.
    """
    pipeline = aggregator.pipelines[lane_id]
    _, honest = pipeline.audit_epoch(epoch)
    commitment = honest.checkpoint
    forged = Checkpoint(
        epoch=epoch,
        root=commitment.root,
        accepted=commitment.rejected,
        rejected=commitment.accepted,
        num_leaves=commitment.num_leaves,
        proof_digest=commitment.proof_digest,
    )
    posted = pipeline.client.post_checkpoint(pipeline.aggregator, forged)
    da_bundle = build_da_bundle(lane_id, epoch, honest, aggregator.da_params)
    pipeline.client.post_da_root(
        pipeline.aggregator, posted.return_value, da_bundle.commitment
    )
    sampler = DaSampler(
        bundle_fetch({(lane_id, epoch): da_bundle}), registry=registry
    )
    reconstruction = sampler.reconstruct(da_bundle.commitment, seed)
    challenger = pipeline.chain.create_account(1.0, label="da-challenger")
    challenge = pipeline.client.challenge_counts(
        challenger, posted.return_value, reconstruction.counts_challenge_leaves()
    )
    return _fraud_outcome(
        lane_id, posted.return_value, challenge,
        chunks_used=reconstruction.chunks_used,
    )


@dataclass
class ContractAudit:
    contract: AuditContract | None   # closed; None if the provider refused
    cost: CostModel                  # prices each round's gas


def run_contract_audit(
    *, size: int, rounds: int, s: int, k: int, seed: int,
    drop_after: int | None = None,
) -> ContractAudit:
    """Paper Fig. 2 as written: one audit contract, one verify per round."""
    rng = random.Random(seed)
    params = ProtocolParams(s=s, k=k)
    owner = DataOwner(params, rng=rng)
    package = owner.prepare(bytes(rng.randrange(256) for _ in range(size)))
    provider = StorageProvider(rng=rng)
    if not provider.accept(package):
        return ContractAudit(None, CostModel())
    chain = Blockchain()
    terms = ContractTerms(
        num_audits=rounds, audit_interval=60.0, response_window=20.0
    )
    deployment = deploy_audit_contract(
        chain, package, provider, terms, HashChainBeacon(b"cli"), params
    )
    if drop_after is not None:
        deployment.provider_agent.misbehave_after_round = drop_after
    return ContractAudit(
        run_contract_to_completion(chain, deployment), CostModel()
    )


@dataclass
class SettlementReport:
    """Epochs settled on a 1..N-lane fabric, and every check run on them."""

    settlements: list[FabricSettlement]
    sample_name: int
    inclusion: InclusionOutcome     # leaf → lane root → fabric root, epoch 0
    replay: CheckpointReplayReport
    amortization: CheckpointAmortization
    checkpoint_log: list[dict]
    lane_summaries: list[LaneSummary]
    settlement_chain_seconds: float
    workers: int                    # the executor's resolved thread count
    fraud: FraudOutcome | None = None
    state_hash: str | None = None            # set when persisted
    reopened_state_hash: str | None = None

    @property
    def receipts_ok(self) -> bool:
        return all(
            settled.receipt.success
            for settlement in self.settlements
            for settled in settlement.lanes.values()
        )

    @property
    def ok(self) -> bool:
        return (
            self.replay.consistent
            and self.receipts_ok
            and (self.fraud is None or self.fraud.caught)
            and self.state_hash == self.reopened_state_hash
        )


def run_settlement(
    instances, params: ProtocolParams, rng, *,
    lanes: int, epochs: int, workers: int,
    persist: str | None = None, fraud: bool = False,
) -> SettlementReport:
    """Settle a fleet's epochs across a fabric and audit the auditor.

    Builds the fabric (WAL-persisted under ``persist`` when given), runs
    the aggregator over one shared executor, verifies a leaf → lane-root →
    fabric-root inclusion proof plus a full replay with the light client,
    optionally slashes a verdict-flipped forgery on the lowest lane, and —
    when persisted — snapshots, closes and reopens the fabric to compare
    ``state_hash``.
    """
    beacon = HashChainBeacon(b"cli-shard")
    fabric = ShardedChainFabric(num_lanes=lanes, persist_dir=persist)
    try:
        with AuditExecutor(instances, workers=workers) as executor, closing(
            CrossShardAggregator(fabric, executor, params, beacon, rng=rng)
        ) as aggregator:
            settlements = aggregator.run(epochs)
            # Any third party verifies one round from the 87-byte commitment.
            client = CheckpointLightClient(
                aggregator.export_instance_registry(), params, beacon
            )
            sample = instances[0].name
            first = settlements[0].fabric
            inclusion = client.verify_fabric_inclusion(
                first.checkpoint, first.prove(sample)
            )
            replay = audit_the_auditor_fabric(aggregator)
            forged = (
                forge_flipped_verdict(aggregator, min(aggregator.pipelines), epochs)
                if fraud
                else None
            )
        explorer = ChainExplorer(fabric)
        report = SettlementReport(
            settlements=settlements,
            sample_name=sample,
            inclusion=inclusion,
            replay=replay,
            amortization=checkpoint_amortization(
                fabric.lane(0).schedule, len(instances)
            ),
            checkpoint_log=explorer.checkpoint_log(),
            lane_summaries=explorer.lane_summaries(),
            settlement_chain_seconds=fabric.settlement_chain_seconds(),
            workers=executor.workers,
            fraud=forged,
        )
        if persist:
            report.state_hash = fabric.state_hash()
            fabric.snapshot()
    finally:
        fabric.close()
    if persist:
        reopened = ShardedChainFabric(num_lanes=lanes, persist_dir=persist)
        try:
            report.reopened_state_hash = reopened.state_hash()
        finally:
            reopened.close()
    return report


@dataclass
class PrivacyAttackReport:
    transcripts_seen: int
    transcripts_needed: int
    chunks_recovered: int
    chunks_targeted: int


def run_privacy_attack(*, s: int, k: int, seed: int) -> PrivacyAttackReport:
    """Section V-C: interpolate challenged chunks out of *plain* proofs."""
    rng = random.Random(seed)
    params = ProtocolParams(s=s, k=k)
    owner = DataOwner(params, rng=rng)
    package = owner.prepare(bytes(rng.randrange(256) for _ in range(s * 31 * 12)))
    provider = StorageProvider(rng=rng)
    provider.accept(package)
    prover = provider.prover_for(package.name)
    factory = EclipseChallengeFactory(params, rng=rng)
    attacker = InterpolationAttacker(params, package.num_chunks)
    pinned_c1, _ = factory.fresh_set_seeds()
    target = None
    for _ in range(params.k):
        _, c2 = factory.fresh_set_seeds()
        for _ in range(params.s):
            challenge = factory.challenge(pinned_c1, c2)
            proof = prover.respond_plain(challenge)
            attacker.observe(transcript_from_plain(challenge, proof))
            if target is None:
                target = challenge.expand(package.num_chunks).indices
    recovered = attacker.recover_blocks(target)
    hits = 0
    if recovered:
        hits = sum(
            list(package.chunked.chunks[i]) == recovered[i] for i in target
        )
    return PrivacyAttackReport(
        transcripts_seen=attacker.transcripts_seen,
        transcripts_needed=transcripts_needed(params, params.k),
        chunks_recovered=hits,
        chunks_targeted=len(target),
    )


@dataclass
class ByzantineFleetReport:
    report: ScenarioReport
    #: (measured, predicted) detection rate over sampled challenge
    #: expansions, when selective storage is in the mix.
    sampling: tuple[float, float] | None = None

    @property
    def ok(self) -> bool:
        return self.report.zero_false_accepts and self.report.zero_false_rejects


def run_byzantine_fleet(
    *, strategy: str, rho: float, epochs: int, trials: int, s: int, k: int,
    seed: int,
) -> ByzantineFleetReport:
    """Two honest providers plus a byzantine strategy mix, through the engine.

    ``strategy`` is one kind or ``"all"``; ``repro attack --onchain`` is
    :func:`~repro.adversary.run_onchain_dispute`, re-exported here.
    """
    params = ProtocolParams(s=s, k=k)
    kinds = (
        [kind for kind in STRATEGY_KINDS if kind != "honest"]
        if strategy == "all"
        else [strategy]
    )
    runner = ScenarioRunner(
        [StrategySpec("honest", count=2)]
        + [StrategySpec(kind, rho=rho) for kind in kinds],
        params=params,
        seed=seed,
    )
    report = runner.run(epochs=epochs)
    sampling = None
    if strategy in ("selective", "all"):
        chunks = runner.instances[0].num_chunks
        sampling = measured_detection_rate(
            max(chunks, 40), rho, params, trials=trials, seed=seed
        )
    return ByzantineFleetReport(report, sampling)


@dataclass
class CongestionReport:
    """A storm's market readings; per-lane pool and fee state on ``fabric``."""

    fabric: ShardedChainFabric
    load: float
    offered_gas: int
    peak_base_fees_wei: list[int]
    pool_peak: int
    high_watermark: int
    decay_blocks: int
    decayed_to_floor: bool
    inclusion_latency_blocks: float | None   # Little's law; None if idle
    model_growth_per_block: float
    model_decay_blocks: float
    griefer: FeeGriefer | None = None
    flagged: list = field(default_factory=list)   # FeeGrieferReport rows

    @property
    def priority_inversions(self) -> int:
        return sum(lane.pool.priority_inversions for lane in self.fabric.lanes)

    @property
    def watermark_held(self) -> bool:
        return self.pool_peak <= self.high_watermark

    @property
    def griefer_caught(self) -> bool:
        return any(r.sender == self.griefer.account for r in self.flagged)

    @property
    def ok(self) -> bool:
        return (
            self.watermark_held
            and self.priority_inversions == 0
            and (self.griefer is None or self.griefer_caught)
        )


def run_congestion(
    *, lanes: int, blocks: int, load: float, storm: bool, griefer: bool,
    senders: int, tip: float, seed: int,
) -> CongestionReport:
    """Storm pooled lanes with audit-shaped traffic and read the market."""
    if storm:
        load = max(load, 2.0)  # the acceptance regime: >= 2x gas target
    config = MempoolConfig()
    market = config.fee_market
    fabric = ShardedChainFabric(num_lanes=lanes, mempool=config)
    sinks, storms = [], []
    for lane_id, lane in enumerate(fabric.lanes):
        deployer = lane.create_account(10.0, label=f"congest-deploy-{lane_id}")
        sink = lane.deploy(GasSinkContract(), deployer=deployer)
        accounts = [
            lane.create_account(100.0, label=f"congest-sender-{lane_id}-{i}")
            for i in range(senders)
        ]
        sinks.append(sink)
        storms.append(StormTraffic(sink, accounts, seed=seed * 1000 + lane_id))
    adversary = None
    if griefer:
        lane = fabric.lanes[0]
        account = lane.create_account(50_000.0, label="congest-griefer")
        adversary = FeeGriefer(
            lane, account, sinks[0], gas_share=0.5, aggression=4.0
        )
    gas_limit = fabric.lanes[0].block_gas_limit
    offered = int(load * market.gas_target(gas_limit))

    peaks = [0] * lanes
    pool_peak = 0
    pending_integral = 0
    for _ in range(blocks):
        if adversary is not None:
            adversary.on_block()
        for lane, traffic in zip(fabric.lanes, storms):
            max_fee_gwei, tip_gwei = lane.pool.suggest_fees(tip)
            for tx in traffic.txs_for_block(
                offered,
                max_fee_gwei=max_fee_gwei,
                priority_fee_gwei=tip_gwei,
                jitter_gwei=tip / 2,
            ):
                try:
                    lane.submit(tx)
                except MempoolRejection:
                    pass  # counted in the pool's rejection telemetry
        pool_peak = max(pool_peak, max(len(lane.pool) for lane in fabric.lanes))
        pending_integral += fabric.pending_total()
        fabric.mine_block()
        peaks = [
            max(peak, lane.base_fee_wei)
            for peak, lane in zip(peaks, fabric.lanes)
        ]

    decay_blocks = fabric.mine_until_pools_drain()
    floor = market.base_fee_floor_wei
    while (
        any(lane.base_fee_wei > floor for lane in fabric.lanes)
        and decay_blocks < 1000
    ):
        fabric.mine_block()
        decay_blocks += 1

    total_drained = sum(lane.pool.stats["drained"] for lane in fabric.lanes)
    model = CongestionPricingModel.for_market(market, gas_limit, lanes=lanes)
    return CongestionReport(
        fabric=fabric,
        load=load,
        offered_gas=offered,
        peak_base_fees_wei=peaks,
        pool_peak=pool_peak,
        high_watermark=config.high_watermark,
        decay_blocks=decay_blocks,
        decayed_to_floor=all(
            lane.base_fee_wei <= floor for lane in fabric.lanes
        ),
        # Little's law over the storm window: mean pending / drain rate.
        inclusion_latency_blocks=(
            pending_integral / total_drained + 1.0 if total_drained else None
        ),
        model_growth_per_block=model.base_fee_growth_per_block(offered * lanes),
        model_decay_blocks=model.decay_blocks_from_multiplier(max(peaks) / floor),
        griefer=adversary,
        flagged=(
            [r for r in detect_fee_griefers(fabric.lanes[0]) if r.flagged]
            if adversary is not None
            else []
        ),
    )


@dataclass
class ProbeReport:
    """What the CI smoke probe read back through the socket."""

    status: dict
    fee_suggestion: dict
    checkpoint: dict
    instruments: int
    layers: list[str]
    metrics_lines: int | None   # /metrics line count, when exposed
    hostile_errors: tuple[str | None, str | None]  # the hostile transactions' failed receipts
    heights: tuple[int, int]    # node height before and after they were mined
    ok: bool


#: The method the probe's first hostile transaction names; no contract has it.
HOSTILE_METHOD = "probe_no_such_method"

#: The probe's second hostile transaction: a string where bytes belong, as
#: any JSON client can send one.
WRONGLY_TYPED = ("register_instance", [1, "00ff", 3])


def _hostile_receipts(
    service: AuditService, client: RpcClient
) -> tuple[tuple[str | None, str | None], int, int]:
    """Submit two transactions from an account funded in-process and mine
    them: one naming a method the first deployed contract lacks, one calling
    a checkpoint contract with :data:`WRONGLY_TYPED` arguments.  Returns
    ``((the first's failed receipt error, the second's TypeError), height
    before, height after)``, with None for a failed receipt not found."""
    lane = next(lane for lane in service.fabric.lanes if lane.store.contracts)
    contracts = lane.store.contracts
    rollup = min(a for a, c in contracts.items() if isinstance(c, CheckpointContract))
    sender = lane.create_account(1.0, label="probe-hostile")
    before = client.call("node_status")["height"]
    for to, (method, args) in ((min(contracts), (HOSTILE_METHOD, [])), (rollup, WRONGLY_TYPED)):
        client.call(
            "submit_tx",
            {"sender": sender, "to": to, "method": method, "args": args, "gas_limit": 100_000},
        )
    client.call("mine", {"blocks": 1})
    after = client.call("node_status")["height"]
    with lane.lock:
        errors = [
            receipt.error or ""
            for block in lane.blocks
            for receipt in block.receipts
            if not receipt.success
        ]
    missing = next((error for error in errors if HOSTILE_METHOD in error), None)
    typed = next((error for error in errors if error.startswith("TypeError: ")), None)
    return (missing, typed), before, after


def probe_service(service: AuditService) -> ProbeReport:
    """Exercise a service through a real socket client.

    Besides the reads, two hostile transactions go in and are mined: one
    naming a method no contract has, one passing a string where a contract
    wants bytes.  The service must record both as failed receipts, the
    second with a ``TypeError`` reason, and keep answering at a greater
    height.  Also scrapes the Prometheus endpoint when the service exposes
    one.
    """
    with RpcClient(service.host, service.port) as client:
        status = client.call("node_status")
        suggestion = client.call("fee_suggest", {"tip_gwei": 1.0})
        checkpoint = client.call("checkpoint_get")
        snapshot = client.call("metrics_get")
        hostile_errors, before, after = _hostile_receipts(service, client)
    layers = {name.split("_")[0] for name in snapshot}
    lanes = service.fabric.num_lanes
    ok = (
        status["num_lanes"] == lanes
        and suggestion["max_fee_gwei"] > 0
        and checkpoint["num_lanes"] == lanes
        and SERVED_LAYERS <= layers
        and None not in hostile_errors
        and after > before
    )
    metrics_lines = None
    if service.metrics_url is not None:
        with urlopen(service.metrics_url) as response:
            text = response.read().decode("utf-8")
        metrics_lines = len(text.splitlines())
        ok = ok and "engine_epochs_total" in text
    return ProbeReport(
        status=status,
        fee_suggestion=suggestion,
        checkpoint=checkpoint,
        instruments=len(snapshot),
        layers=sorted(layers),
        metrics_lines=metrics_lines,
        hostile_errors=hostile_errors,
        heights=(before, after),
        ok=ok,
    )


def top_frames(
    host: str, port: int, iterations: int, interval: float
) -> Iterator[tuple[dict, dict, list]]:
    """Poll a service: (node_status, metrics_get, explorer_lanes) per frame."""
    with RpcClient(host, port) as client:
        for index in range(iterations):
            if index:
                time.sleep(interval)
            yield (
                client.call("node_status"),
                client.call("metrics_get"),
                client.call("explorer_lanes"),
            )


@contextmanager
def top_demo_service() -> Iterator[tuple[str, int]]:
    """A tiny two-lane service with one settled epoch, for ``top --demo``."""
    rng = random.Random(0)
    params = ProtocolParams(s=3, k=2)
    instances = build_fleet(
        params, rng, size=400, files=2, tag="top-{file}", owner_id="top"
    )
    with audit_service(
        instances, params, HashChainBeacon(b"cli-top"), rng, lanes=2
    ) as service:
        service.aggregator.run(1)
        yield service.host, service.port


@dataclass
class WithholdingOutcome:
    lane: int
    hidden: int
    sampled: SampleReport          # the same schedule, after the hiding
    analytic_probability: float
    reconstruction: object         # k-of-n rebuilt leaf set
    replay: CheckpointReplayReport


@dataclass
class DaSamplingReport:
    epoch: int
    da_params: DaParams
    samples: dict[int, SampleReport]       # happy path, by lane
    full_chunk_bytes: dict[int, int]       # what not sampling would download
    withholding: WithholdingOutcome | None = None
    fraud: FraudOutcome | None = None

    @property
    def ok(self) -> bool:
        return (
            all(sample.available for sample in self.samples.values())
            and (self.withholding is None or self.withholding.replay.consistent)
            and (self.fraud is None or self.fraud.caught)
        )


def _rpc_chunk_fetch(client: RpcClient):
    """A :class:`DaSampler` fetch function over ``da_sample_get``.

    The server is not trusted to send well-formed rows: a row that does not
    decode answers ``(b"", None)`` for its index, a bad-proof sample, and a
    row naming no integer index (or a reply with no row list) is dropped,
    so its indices read missing."""

    def fetch(lane_id, epoch, indices):
        reply = client.call(
            "da_sample_get",
            {"epoch": epoch, "lane": lane_id, "indices": list(indices)},
        )
        rows = reply.get("chunks") if isinstance(reply, dict) else None
        responses = {}
        for row in rows if isinstance(rows, list) else ():
            index = row.get("index") if isinstance(row, dict) else None
            if not isinstance(index, int):
                continue
            try:
                responses[index] = (
                    (bytes.fromhex(row["data"]), NmtProof.from_object(row["proof"]))
                    if row["available"]
                    else None
                )
            except (KeyError, TypeError, ValueError):
                responses[index] = (b"", None)
        return responses

    return fetch


def run_da_sampling(
    *, lanes: int, fleet: int, epochs: int, samples: int, chunks: int,
    data_chunks: int, withhold: float, fraud: bool, size: int, s: int, k: int,
    seed: int,
) -> DaSamplingReport:
    """A sampling light client against a live service, over the real socket.

    Happy-path sampling of the last settled epoch (O(samples) download);
    with ``withhold`` > 0 the lowest lane then hides that fraction of its
    chunks, the same schedule is expected to catch it, and the surviving
    chunks still reconstruct the epoch (the withheld fraction is below the
    code's n-k slack) for a light-client replay that trusts no aggregator;
    with ``fraud`` a counts-forged checkpoint is slashed from DA alone.
    """
    rng = random.Random(seed)
    params = ProtocolParams(s=s, k=k)
    da_params = DaParams(n=chunks, k=data_chunks)
    beacon = HashChainBeacon(b"cli-da-sample")
    instances = build_fleet(
        params, rng, size=size, files=fleet, tag="da-{file}", owner_id="da"
    )
    sample_seed = seed.to_bytes(8, "big", signed=True)
    with audit_service(
        instances, params, beacon, rng, lanes=lanes, da_params=da_params
    ) as service:
        aggregator = service.aggregator
        aggregator.run(epochs)
        epoch = epochs - 1
        settlement = aggregator.settlement_for_epoch(epoch)
        with RpcClient(service.host, service.port) as client:
            sampler = DaSampler(_rpc_chunk_fetch(client), registry=service.registry)
            listing = client.call("da_commitment_get", {"epoch": epoch})
            commitments = {
                row["lane"]: DaCommitment.from_bytes(
                    bytes.fromhex(row["commitment"])
                )
                for row in listing["lanes"]
            }
            report = DaSamplingReport(
                epoch=epoch,
                da_params=da_params,
                samples={
                    lane_id: sampler.sample(commitment, sample_seed, budget=samples)
                    for lane_id, commitment in sorted(commitments.items())
                },
                full_chunk_bytes={
                    lane_id: settlement.lanes[lane_id].da.chunk_payload_bytes()
                    for lane_id in commitments
                },
            )
            if withhold > 0:
                lane_id = min(commitments)
                commitment = commitments[lane_id]
                settled = settlement.lanes[lane_id]
                hidden = max(1, round(withhold * commitment.n))
                settled.da.withhold(range(hidden))
                sampled = sampler.sample(commitment, sample_seed, budget=samples)
                reconstruction = sampler.reconstruct(commitment, sample_seed)
                light = CheckpointLightClient(
                    aggregator.pipelines[lane_id].contract.export_instance_registry(),
                    params,
                    beacon,
                )
                report.withholding = WithholdingOutcome(
                    lane=lane_id,
                    hidden=hidden,
                    sampled=sampled,
                    analytic_probability=detection_probability(
                        hidden / commitment.n, samples
                    ),
                    reconstruction=reconstruction,
                    replay=light.replay_reconstructed(
                        settled.bundle.checkpoint, reconstruction
                    ),
                )
        if fraud:
            report.fraud = forge_swapped_counts(
                aggregator, min(aggregator.pipelines), epochs, sample_seed,
                registry=service.registry,
            )
    return report
