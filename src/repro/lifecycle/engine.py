"""The long-horizon lifecycle engine: years of DSN operation in one run.

Every prior subsystem of this reproduction observes a deployment for a
handful of epochs.  This engine closes the loop the paper's lifetime
claims actually rest on: it time-compresses years of decentralized-storage
operation — provider churn, erasure-coded repair, reputation-weighted
re-placement, audit-driven eviction and per-epoch checkpoint settlement —
into one deterministic, seed-driven simulation that composes all four
earlier layers:

* the **checkpoint rollup** settles each epoch through one
  :class:`~repro.rollup.fabric.CrossShardAggregator` (deterministic mode)
  over the lane contracts the engine deploys: every live shard's
  challenge is proved through one
  :class:`~repro.engine.executor.AuditExecutor`, batch-verified per lane
  and committed as per-lane checkpoints plus one cross-shard
  super-commitment on a :class:`~repro.chain.fabric.ShardedChainFabric`,
  with optional per-lane WAL persistence,
* the **adversary hooks** model churn: a crashed or flaky provider's
  proofs are withheld via scheduler overrides, exactly like the
  byzantine strategies of :mod:`repro.adversary`,
* the **storage substrate** stores and *repairs*: every failed shard is
  regenerated through :meth:`repro.storage.DsnClient.repair` onto a
  provider chosen by
  :class:`~repro.storage.placement.ReputationWeightedPlacement` over the
  live on-chain registry, re-keyed by a fresh ``DataOwner.prepare`` and
  registered on its lane's checkpoint contract — the one contract that
  judges it.

Determinism contract: a run is a pure function of its
:class:`LifecycleConfig` — same seed ⇒ byte-identical event trail
(:class:`~repro.lifecycle.events.EventTrail`) and identical final fabric
``state_hash``.  With ``persist_dir`` set, the engine checkpoints itself
at every epoch boundary; killing the process anywhere and calling
:meth:`LifecycleEngine.open` truncates the lane WALs back to the last
boundary and continues to the *same* final hashes.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..chain import Transaction
from ..chain.contracts.checkpoint_contract import CheckpointContract, CheckpointStatus
from ..chain.contracts.reputation import ReputationRegistry
from ..chain.fabric import ShardedChainFabric
from ..core import DataOwner, OutsourcingPackage, ProtocolParams
from ..core.prover import ResponseWithheld
from ..engine import AuditExecutor, AuditInstance
from ..obs.registry import get_registry
from ..obs.tracing import NULL_TRACER, Tracer
from ..randomness import HashChainBeacon
from ..rollup.fabric import CrossShardAggregator
# Not called here: benchmarks/e2e/e2ebench/layers.py wraps these module names.
from ..rollup.checkpoint import build_checkpoint  # noqa: F401
from ..rollup.fabric import build_fabric_checkpoint  # noqa: F401
from ..rollup.records import records_from_epoch  # noqa: F401
from ..sim.workloads import archive_file
from ..storage import (
    DataLoss,
    DsnClient,
    DsnCluster,
    FileManifest,
    ReputationWeightedPlacement,
    ShardLocation,
    SimulatedNetwork,
)
from .events import EventTrail
from .hazard import ChurnModel, HazardConfig
from .persist import ENGINE_SNAPSHOT, load_engine, save_engine

#: Seconds a posted lane checkpoint stays open to fraud proofs.
FRAUD_WINDOW = 10.0
#: A provider whose reputation score falls below this is evicted.
EVICTION_THRESHOLD = 0.42
#: The lowest reputation score at which placement still picks a provider.
MIN_PLACEMENT_SCORE = 0.3
#: The share of its stake an evicted provider is slashed.
SLASH_FRACTION = 0.5


@dataclass(frozen=True)
class LifecycleConfig:
    """Everything a lifecycle run depends on (the determinism domain)."""

    years: float = 2.0
    epochs_per_year: int = 12
    files: int = 2
    file_bytes: int = 900
    erasure_n: int = 4
    erasure_k: int = 2
    providers: int = 8
    churn: float = 0.2
    crash_fraction: float = 0.5
    flake_rate: float = 0.1
    flake_rho: float = 0.6
    join_rate: float = 1.0
    hazard: str = "exponential"
    weibull_shape: float = 2.0
    lanes: int = 2
    seed: int = 0
    s: int = 4
    k: int = 3
    workers: int = 1
    stake_eth: float = 1.0
    persist_dir: str | None = None

    def __post_init__(self) -> None:
        if self.years <= 0 or self.epochs_per_year < 1:
            raise ValueError("years and epochs_per_year must be positive")
        if not 1 <= self.erasure_k <= self.erasure_n:
            raise ValueError("need 1 <= erasure_k <= erasure_n")
        if self.providers < self.erasure_n + 1:
            raise ValueError("need at least erasure_n + 1 providers for repair")
        if self.lanes < 1 or self.files < 1:
            raise ValueError("lanes and files must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = one per CPU core)")
        self.hazard_config()  # rejects bad hazard rates before any world is built

    @property
    def total_epochs(self) -> int:
        return max(1, round(self.years * self.epochs_per_year))

    @property
    def repair_tolerance(self) -> int:
        """Providers the fleet can lose per epoch without losing any file."""
        return self.erasure_n - self.erasure_k

    def hazard_config(self) -> HazardConfig:
        return HazardConfig(
            churn=self.churn,
            crash_fraction=self.crash_fraction,
            flake_rate=self.flake_rate,
            join_rate=self.join_rate,
            epochs_per_year=self.epochs_per_year,
            hazard=self.hazard,
            weibull_shape=self.weibull_shape,
        )


@dataclass
class ProviderState:
    """The engine's ledger entry for one storage provider."""

    name: str
    account: str               # stake account on the registry's lane
    joined_epoch: int
    alive: bool = True         # present in the cluster ring
    flaky: bool = False        # silently withholding proofs
    dead: bool = False         # crashed; shards must migrate off
    evicted: bool = False
    deregistered: bool = False


@dataclass(frozen=True)
class LiveShard:
    """One placed shard under audit: where it sits and the package it
    answers challenges for (its audit name is ``package.name``)."""

    file_id: str
    shard_index: int
    provider: str
    package: OutsourcingPackage = field(repr=False)


@dataclass
class EpochSummary:
    """One epoch's ledger line (mirrors the trail, numerically)."""

    epoch: int
    audits: int
    accepted: int
    rejected: int
    repaired: int
    deferred: int
    evicted: int
    joined: int
    departed: int
    commitment_gas: int
    wall_seconds: float
    min_healthy_shards: int


@dataclass
class LifecycleOutcome:
    """What a completed run hands back to callers and tests."""

    epochs_run: int
    trail: EventTrail
    state_hash: str
    trail_digest: str
    files_intact: bool
    summaries: list[EpochSummary]
    total_commitment_gas: int
    total_repairs: int
    total_evictions: int
    wall_seconds: float

    @property
    def epochs_per_second(self) -> float:
        return self.epochs_run / self.wall_seconds if self.wall_seconds else 0.0


def _sub_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"lifecycle:{label}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class LifecycleEngine:
    """Drives a DSN deployment through simulated years of churn and audit."""

    def __init__(self, config: LifecycleConfig, tracer: Tracer | None = None):
        self.config = config
        self._init_observability(tracer)
        self.trail = EventTrail()
        self.summaries: list[EpochSummary] = []
        self.params = ProtocolParams(s=config.s, k=config.k)
        self.beacon = HashChainBeacon(f"lifecycle-{config.seed}".encode())
        self._churn = ChurnModel(
            config.hazard_config(),
            rng=random.Random(_sub_seed(config.seed, "churn")),
        )
        self._owner_rng = random.Random(_sub_seed(config.seed, "owner"))
        self.providers: dict[str, ProviderState] = {}
        self.payloads: dict[str, bytes] = {}
        #: file id -> its owner's storage client (which holds the file key)
        self.clients: dict[str, DsnClient] = {}
        self.manifests: dict[str, FileManifest] = {}
        #: file name (Zp id) -> the live shard it audits
        self._shards: dict[int, LiveShard] = {}
        #: lane id -> (aggregator account, checkpoint contract address)
        self.lane_settlement: dict[int, tuple[str, str]] = {}
        self._build_world()

    def _init_observability(self, tracer: Tracer | None) -> None:
        """Attach the tracer and registry instruments (also on reopen).

        Tracing and metrics sit entirely outside the determinism domain:
        spans never touch RNG streams, chain state or the trail, and the
        tracer is excluded from the persisted snapshot (a reopened engine
        starts with a fresh one).
        """
        self.tracer = tracer if tracer is not None else NULL_TRACER
        registry = get_registry()
        self._m_epochs = registry.instrument("lifecycle_epochs_total")
        self._m_events = registry.instrument("lifecycle_events_total")
        self._m_epoch_seconds = registry.instrument("lifecycle_epoch_seconds")

    # ------------------------------------------------------------------ #
    # World construction                                                  #
    # ------------------------------------------------------------------ #

    def _open_world(self) -> None:
        """Open the fabric and the placement reading it (build and reopen)."""
        config = self.config
        lanes_dir = None
        if config.persist_dir:
            lanes_dir = str(Path(config.persist_dir) / "lanes")
        self.fabric = ShardedChainFabric(
            num_lanes=config.lanes, persist_dir=lanes_dir
        )
        self.placement = ReputationWeightedPlacement(
            score_of=self._score_of, minimum_score=MIN_PLACEMENT_SCORE
        )

    def _build_aggregator(self) -> None:
        """The executor and the aggregator over the deployed lane contracts
        (build and reopen); sends no transaction."""
        self.executor = AuditExecutor(
            [
                AuditInstance.from_package(shard.package, owner_id=shard.file_id)
                for shard in self._shards.values()
            ],
            workers=self.config.workers,
        )
        # No rng: the batch blinders are fresh randomness, which no
        # verdict, trail byte or state_hash depends on.
        self.aggregator = CrossShardAggregator(
            self.fabric, self.executor, self.params, self.beacon,
            deterministic=True, tracer=self.tracer, lanes=self.lane_settlement,
        )

    def _build_world(self) -> None:
        config = self.config
        if config.persist_dir:
            # A fresh run must never build on top of a previous run's WALs:
            # WalStateStore replays whatever the directory holds, which
            # would silently break the same-seed determinism contract.  A
            # run that failed before its first snapshot leaves lane state
            # and no engine.pkl; that is refused too, and cannot be resumed.
            directory = Path(config.persist_dir)
            if (directory / ENGINE_SNAPSHOT).exists():
                advice = "reopen it with LifecycleEngine.open / --resume, or point"
            elif any(directory.glob("lanes/*/*")):
                advice = f"it has no {ENGINE_SNAPSHOT} to resume from; point"
            else:
                advice = None
            if advice:
                raise ValueError(
                    f"{config.persist_dir} already holds a persisted lifecycle "
                    f"run; {advice} --persist at a fresh directory"
                )
        self.cluster = DsnCluster(
            network=SimulatedNetwork(
                rng=random.Random(_sub_seed(config.seed, "network"))
            )
        )
        self._open_world()
        operator = self.fabric.create_account(1.0, label="registry-operator")
        self.registry_address = self.fabric.deploy(
            ReputationRegistry(min_stake_wei=int(config.stake_eth * 10**18)),
            deployer=operator,
        )
        self.oracle = self._registry_lane.create_account(
            20.0, label="lifecycle-oracle"
        )
        self._transact(self.oracle, self.registry_address, "authorize_reporter",
                       (self.oracle,))
        for lane_id, lane in enumerate(self.fabric.lanes):
            account = lane.create_account(50.0, label=f"lifecycle-agg-{lane_id}")
            contract = CheckpointContract(
                self.beacon, self.params, fraud_window=FRAUD_WINDOW
            )
            address = lane.deploy(contract, deployer=account)
            self.lane_settlement[lane_id] = (account, address)
        for _ in range(config.providers):
            self._add_provider(epoch=0)
        for index in range(config.files):
            file_id = f"archive-{index:02d}"
            payload = archive_file(
                config.file_bytes, tag=f"lifecycle-{config.seed}-{index}"
            ).data
            self.payloads[file_id] = payload
            client = DsnClient(f"owner-{index}", self.cluster)
            manifest = client.store(
                file_id, payload, n=config.erasure_n, k=config.erasure_k,
                key_mode="convergent", strategy=self.placement,
            )
            self.clients[file_id] = client
            self.manifests[file_id] = manifest
            for location in manifest.shards:
                self._prepare_shard(file_id, location)
            self.trail.emit(
                0, "stored", file_id,
                shards=config.erasure_n, needed=config.erasure_k,
                bytes=len(payload),
            )
        self._build_aggregator()
        if config.persist_dir:
            self.checkpoint_state()

    def _add_provider(self, epoch: int) -> ProviderState:
        name = f"node-{len(self.providers):03d}"  # never forgotten, so never reused
        self.cluster.add_node(name)
        account = self._registry_lane.create_account(
            self.config.stake_eth + 1.0, label=f"stake-{name}"
        )
        receipt = self._transact(
            account,
            self.registry_address,
            "register",
            (name,),
            value=int(self.config.stake_eth * 10**18),
        )
        if not receipt.success:
            raise RuntimeError(f"stake registration failed: {receipt.error}")
        state = ProviderState(name=name, account=account, joined_epoch=epoch)
        self.providers[name] = state
        self.trail.emit(epoch, "joined", name, stake_eth=self.config.stake_eth)
        return state

    def _prepare_shard(self, file_id: str, location: ShardLocation) -> LiveShard:
        """Key a placed shard for auditing: one ``DataOwner.prepare``."""
        data = self.cluster.node(location.provider).get(
            file_id, location.shard_index
        )
        package = DataOwner(self.params, rng=self._owner_rng).prepare(data)
        shard = LiveShard(file_id, location.shard_index, location.provider, package)
        self._shards[package.name] = shard
        return shard

    # ------------------------------------------------------------------ #
    # Chain helpers                                                       #
    # ------------------------------------------------------------------ #

    def _transact(self, sender, to, method, args=(), value=0):
        return self.fabric.transact(
            Transaction(
                sender=sender, to=to, method=method, args=tuple(args), value=value
            )
        )

    def _score_of(self, provider: str) -> float:
        return float(
            self.fabric.call(self.registry_address, "score_of", provider)
        )

    @property
    def _registry_lane(self):
        return self.fabric.lane(
            self.fabric.lane_index_of_contract(self.registry_address)
        )

    @property
    def registry(self) -> ReputationRegistry:
        contract = self.fabric.contract_at(self.registry_address)
        assert isinstance(contract, ReputationRegistry)
        return contract

    # ------------------------------------------------------------------ #
    # The epoch loop                                                      #
    # ------------------------------------------------------------------ #

    @property
    def next_epoch(self) -> int:
        return len(self.summaries) + 1

    @property
    def last_fabric_bundle(self):
        """The last settled epoch's fabric bundle (None before one settles
        in this process)."""
        settled = self.aggregator.settled
        return settled[-1].fabric if settled else None

    def run(self) -> LifecycleOutcome:
        """Run every remaining epoch and return the final outcome."""
        while self.next_epoch <= self.config.total_epochs:
            self.run_epoch()
        return self.outcome()

    def run_epoch(self) -> EpochSummary:
        """One epoch: churn → settle → report → repair → evict."""
        epoch = self.next_epoch
        t0 = time.perf_counter()
        with self.tracer.span("epoch", epoch=epoch):
            with self.tracer.span("churn", epoch=epoch):
                joined, departed = self._churn_step(epoch)
            with self.tracer.span("settle", epoch=epoch):
                records, commitment_gas = self._settle_step(epoch)
            with self.tracer.span("report", epoch=epoch):
                self._report_step(records)
            with self.tracer.span("repair", epoch=epoch):
                self._repair_step(epoch, records)
            with self.tracer.span("evict", epoch=epoch):
                evicted = self._evict_step(epoch)
            with self.tracer.span("finalize", epoch=epoch):
                self._finalize_step()
            with self.tracer.span("mine", epoch=epoch):
                self.fabric.mine_block()
        wall = time.perf_counter() - t0
        epoch_events = self.trail.for_epoch(epoch)
        repaired = sum(1 for e in epoch_events if e.kind == "repaired")
        deferred = sum(1 for e in epoch_events if e.kind == "deferred")
        summary = EpochSummary(
            epoch=epoch,
            audits=len(records),
            accepted=sum(1 for r in records if r.verdict),
            rejected=sum(1 for r in records if not r.verdict),
            repaired=repaired,
            deferred=deferred,
            evicted=evicted,
            joined=joined,
            departed=departed,
            commitment_gas=commitment_gas,
            wall_seconds=wall,
            min_healthy_shards=self.min_healthy_shards(),
        )
        self.summaries.append(summary)
        self._m_epochs.inc()
        self._m_epoch_seconds.observe(wall)
        for event in epoch_events:
            self._m_events.labels(event.kind).inc()
        if self.config.persist_dir:
            self.checkpoint_state()
        return summary

    # -- phase 1: churn -------------------------------------------------- #

    def _active_providers(self) -> list[ProviderState]:
        return [
            state
            for _, state in sorted(self.providers.items())
            if state.alive and not state.dead and not state.evicted
        ]

    def _churn_step(self, epoch: int) -> tuple[int, int]:
        draw = self._churn.draw(
            [
                (state.name, epoch - state.joined_epoch)
                for state in self._active_providers()
            ],
            flaky={s.name for s in self.providers.values() if s.flaky},
            max_departures=self.config.repair_tolerance,
        )
        for _ in range(draw.joins):
            self._add_provider(epoch)
        for name in draw.leaves:
            self._graceful_leave(epoch, name)
        for name in draw.crashes:
            state = self.providers[name]
            state.dead = True
            state.alive = False
            state.flaky = False
            self.cluster.remove_node(name)
            self.trail.emit(
                epoch, "crashed", name, shards=len(self._names_held_by(name))
            )
        for name in draw.flakes:
            self.providers[name].flaky = True
            self.trail.emit(epoch, "flaky", name, rho=self.config.flake_rho)
        return draw.joins, len(draw.leaves) + len(draw.crashes)

    def _names_held_by(self, provider: str) -> list[int]:
        return sorted(
            name for name, shard in self._shards.items() if shard.provider == provider
        )

    def _migrate_off(self, epoch: int, state: ProviderState, reason: str) -> int | None:
        """Repair every shard off a provider, then drop it from the ring.

        Returns how many shards moved; None when a repair was deferred (no
        eligible replacement this epoch), and the provider stays.
        """
        held = self._names_held_by(state.name)
        moved = [self._repair_shard(epoch, name, reason=reason) for name in held]
        if not all(moved):
            return None
        if state.alive:
            state.alive = False
            self.cluster.remove_node(state.name)
        return len(held)

    def _graceful_leave(self, epoch: int, provider: str) -> None:
        """Migrate everything off a politely departing provider, then part."""
        state = self.providers[provider]
        if self._migrate_off(epoch, state, "leave") is None:
            # Not enough eligible replacements this epoch: the departure is
            # postponed (the provider keeps serving; churn may redraw it).
            self.trail.emit(epoch, "deferred", provider, what="departure")
            return
        receipt = self._transact(
            state.account, self.registry_address, "deregister", (provider,)
        )
        state.deregistered = receipt.success
        refunded = 0
        if receipt.success:
            refund_events = [
                e for e in receipt.events if e.name == "deregistered"
            ]
            if refund_events:
                refunded = refund_events[0].payload.get("refunded", 0)
        self.trail.emit(
            epoch, "left", provider,
            refunded_wei=refunded, good_standing=receipt.success,
        )

    # -- phase 2: audit + settlement --------------------------------------- #

    def _withheld_override(self, challenge, epoch):
        raise ResponseWithheld("provider unavailable for this epoch")

    def _settle_step(self, epoch: int) -> tuple[list, int]:
        """Withhold the unavailable providers' proofs, then settle the epoch
        through the aggregator; returns its records (by name) and gas."""
        aggregator = self.aggregator
        for pipeline in aggregator.pipelines.values():
            pipeline.scheduler.overrides.clear()
        flaky_names: list[int] = []
        for name, shard in sorted(self._shards.items()):
            state = self.providers.get(shard.provider)
            if state is None or state.dead or not state.alive:
                aggregator.set_override(name, self._withheld_override)
            elif state.flaky:
                flaky_names.append(name)
        for name in self._churn.withholds(flaky_names, self.config.flake_rho):
            aggregator.set_override(name, self._withheld_override)
        settlement = aggregator.settle_epoch(epoch)
        fabric_bundle = settlement.fabric
        records = sorted(
            (record for _, bundle in fabric_bundle.lanes for record in bundle.records),
            key=lambda record: record.name,
        )
        gas = settlement.total_commitment_gas()
        self.trail.emit(
            epoch, "settled", f"epoch-{epoch}",
            lanes=len(fabric_bundle.lanes),
            audits=fabric_bundle.checkpoint.num_leaves,
            accepted=fabric_bundle.checkpoint.accepted,
            rejected=fabric_bundle.checkpoint.rejected,
            root=fabric_bundle.checkpoint.fabric_root.hex()[:16],
            gas=gas,
        )
        return records, gas

    # -- phase 3: reputation reports --------------------------------------- #

    def _report_step(self, records) -> None:
        registry = self.registry
        for record in records:
            provider = self._shards[record.name].provider
            if provider not in registry.providers:
                continue
            self._transact(
                self.oracle,
                self.registry_address,
                "report_audit",
                (provider, record.verdict),
            )

    # -- phase 4: repair --------------------------------------------------- #

    def _repair_step(self, epoch: int, records) -> None:
        for record in sorted(records, key=lambda r: r.name):
            if not record.verdict:
                self._repair_shard(epoch, record.name, reason=record.reject_code)

    def _repair_shard(self, epoch: int, name: int, reason: str) -> bool:
        """Regenerate one shard onto a fresh provider; False = deferred."""
        shard = self._shards[name]
        file_id = shard.file_id
        try:
            manifest = self.clients[file_id].repair(
                self.manifests[file_id], shard.provider, strategy=self.placement
            )
        except DataLoss as exc:
            # Below k healthy shards no later epoch can repair the file:
            # say so once, and let outcome() report files_intact=False.
            if not any(e.subject == file_id for e in self.trail.of_kind("lost")):
                self.trail.emit(
                    epoch, "lost", file_id,
                    healthy=exc.healthy, needed=exc.needed,
                )
            return False
        except RuntimeError as exc:
            self.trail.emit(
                epoch, "deferred", file_id,
                shard=shard.shard_index, why=str(exc)[:60],
            )
            return False
        del self._shards[name]
        replacement = self._prepare_shard(
            file_id,
            next(
                loc for loc in manifest.shards
                if loc.shard_index == shard.shard_index
            ),
        )
        self.aggregator.retire(name)
        self.aggregator.register(
            AuditInstance.from_package(replacement.package, owner_id=file_id)
        )
        self.trail.emit(
            epoch, "repaired", file_id,
            shard=shard.shard_index,
            source=shard.provider,
            target=replacement.provider,
            reason=reason,
        )
        self.trail.emit(
            epoch, "rekeyed", file_id,
            old=f"{name:#x}"[:14],
            new=f"{replacement.package.name:#x}"[:14],
        )
        return True

    # -- phase 5: eviction -------------------------------------------------- #

    def _evict_step(self, epoch: int) -> int:
        evicted = 0
        registry = self.registry
        for _, state in sorted(self.providers.items()):
            if state.evicted:
                # An earlier eviction may have deferred part of its
                # migration (no eligible replacements that epoch); keep
                # draining the leftovers until the provider holds nothing.
                if state.alive:
                    self._migrate_off(epoch, state, "eviction")
                continue
            if state.deregistered:
                continue
            record = registry.providers.get(state.name)
            if record is None:
                continue
            below = self._score_of(state.name) < EVICTION_THRESHOLD
            if not (state.dead or record.banned or below):
                continue
            self._evict(epoch, state)
            evicted += 1
        return evicted

    def _evict(self, epoch: int, state: ProviderState) -> None:
        """Audit-driven removal: slash the stake, migrate, drop from ring."""
        receipt = self._transact(
            self.oracle,
            self.registry_address,
            "slash_stake",
            (state.name, SLASH_FRACTION, self.oracle),
        )
        slashed_wei = 0
        if receipt.success:
            for event in receipt.events:
                if event.name == "stake_slashed":
                    slashed_wei = event.payload.get("slashed_wei", 0)
            self.trail.emit(
                epoch, "slashed", state.name, slashed_wei=slashed_wei
            )
        migrated = self._migrate_off(epoch, state, "eviction")
        state.evicted = True
        self.trail.emit(
            epoch, "evicted", state.name,
            cause="crash" if state.dead else "reputation",
            slashed_wei=slashed_wei,
            migrated="partial" if migrated is None else migrated,
        )

    # -- phase 6: finalize + bookkeeping ------------------------------------ #

    def _finalize_step(self) -> None:
        for _, pipeline in sorted(self.aggregator.pipelines.items()):
            contract = pipeline.contract
            for entry in contract.checkpoints:
                if (
                    entry.status is CheckpointStatus.OPEN
                    and pipeline.chain.time > entry.posted_at + contract.fraud_window
                ):
                    pipeline.client.finalize_checkpoint(
                        pipeline.aggregator, entry.checkpoint_id
                    )

    def min_healthy_shards(self) -> int:
        """The weakest file's live shard count (durability floor)."""
        return min(
            (
                sum(
                    self.cluster.healthy_shard(file_id, location) is not None
                    for location in manifest.shards
                )
                for file_id, manifest in self.manifests.items()
            ),
            default=0,
        )

    def files_intact(self) -> bool:
        """End-to-end retrievability of every stored file."""
        for file_id, payload in self.payloads.items():
            try:
                if self.clients[file_id].retrieve(self.manifests[file_id]) != payload:
                    return False
            except RuntimeError:
                return False
        return True

    def outcome(self) -> LifecycleOutcome:
        summaries = self.summaries
        return LifecycleOutcome(
            epochs_run=len(summaries),
            trail=self.trail,
            state_hash=self.fabric.state_hash(),
            trail_digest=self.trail.digest(),
            files_intact=self.files_intact(),
            summaries=list(summaries),
            total_commitment_gas=sum(s.commitment_gas for s in summaries),
            total_repairs=sum(s.repaired for s in summaries),
            total_evictions=sum(s.evicted for s in summaries),
            wall_seconds=sum(s.wall_seconds for s in summaries),
        )

    # ------------------------------------------------------------------ #
    # Durability (crash + reopen)                                          #
    # ------------------------------------------------------------------ #

    def checkpoint_state(self) -> None:
        save_engine(self)

    @classmethod
    def open(cls, persist_dir: str, **overrides) -> "LifecycleEngine":
        """Reopen a persisted run at its last epoch boundary.

        Truncates every lane's WAL back to the boundary the engine snapshot
        recorded (discarding any torn partial-epoch tail), restores the
        engine's own state, and verifies the reopened fabric's
        ``state_hash`` matches the snapshot before handing the engine back.
        """
        return load_engine(persist_dir, **overrides)

    def close(self) -> None:
        self.aggregator.close()
        self.executor.close()
        self.fabric.close()
