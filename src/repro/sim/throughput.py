"""System-wide scalability models (paper Section VII-D, Fig. 10).

Assumptions straight from the paper, all overridable:

* dedicated auditing fork with ~18 KB average blocks (matching Ethereum's
  observed average) and 15 s block time -> ~2 transactions/second,
* one audit round writes a challenge tx + a proof tx (~336 bytes of trail
  plus envelopes),
* a 1,000-user network places ~30 users' data on each provider (their
  Storj/Sia measurement), scaling linearly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain.gas import (
    CHALLENGE_BYTES,
    CHECKPOINT_COMMITMENT_BYTES,
    FABRIC_COMMITMENT_BYTES,
    PRIVATE_PROOF_BYTES,
)

TX_ENVELOPE_BYTES = 110   # signature, nonce, gas fields, rlp framing
RECEIPT_BYTES = 280       # receipt, event logs, state-trie growth per tx


@dataclass(frozen=True)
class ChainCapacityModel:
    """Block-space accounting for the dedicated auditing chain.

    The per-transaction footprint counts calldata *and* the receipt/log/
    state overhead a full node stores; with the defaults the average
    transaction lands at ~600 bytes, reproducing the paper's "average
    throughput would be 2 transactions per second" under 18 KB blocks.
    """

    avg_block_bytes: int = 18 * 1024
    block_interval_s: float = 15.0
    challenge_bytes: int = CHALLENGE_BYTES
    proof_bytes: int = PRIVATE_PROOF_BYTES

    @property
    def bytes_per_round(self) -> int:
        """Full footprint of one audit round (challenge + proof txs)."""
        return (
            self.challenge_bytes
            + self.proof_bytes
            + 2 * (TX_ENVELOPE_BYTES + RECEIPT_BYTES)
        )

    @property
    def avg_tx_bytes(self) -> float:
        return self.bytes_per_round / 2

    @property
    def tx_per_second(self) -> float:
        """The paper's headline "2 transactions per second"."""
        return self.avg_block_bytes / self.block_interval_s / self.avg_tx_bytes

    def max_concurrent_users(
        self, audits_per_day: float = 1.0, redundancy_providers: int = 10
    ) -> int:
        """Users the chain sustains (cf. "5,000 active users with ease")."""
        tx_per_user_per_day = 2 * audits_per_day * redundancy_providers
        tx_per_day = self.tx_per_second * 86_400
        return int(tx_per_day / tx_per_user_per_day)

    def annual_chain_growth_bytes(
        self, users: int, audits_per_day: float = 1.0
    ) -> int:
        """Fig. 10 (left): audit-trail bytes appended per year.

        Counts raw trail bytes per round (challenge + proof), matching the
        paper's accounting (~110 KB per user-year at daily audits).
        """
        per_user_year = (
            (self.challenge_bytes + self.proof_bytes) * audits_per_day * 365
        )
        return int(users * per_user_year)


@dataclass(frozen=True)
class CheckpointedChainCapacityModel(ChainCapacityModel):
    """Block-space accounting with the epoch rollup switched on.

    In checkpoint mode nothing is posted per round: challenges derive from
    the beacon, proofs stay with the aggregator behind the committed
    verdict tree, and the chain sees **one commitment transaction per
    provider per epoch** covering ``rounds_per_checkpoint`` audits.  The
    per-round footprint is therefore the commitment amortized over its
    batch, and ``max_concurrent_users`` scales *linearly* with the batch
    size — the lever that takes the paper's "5,000 active users" to
    fleet scale.
    """

    rounds_per_checkpoint: int = 256
    commitment_bytes: int = CHECKPOINT_COMMITMENT_BYTES

    def __post_init__(self) -> None:
        if self.rounds_per_checkpoint < 1:
            raise ValueError("rounds_per_checkpoint must be >= 1")

    @property
    def bytes_per_checkpoint_tx(self) -> int:
        """Full footprint of one commitment transaction."""
        return self.commitment_bytes + TX_ENVELOPE_BYTES + RECEIPT_BYTES

    @property
    def bytes_per_round(self) -> int:
        """Amortized footprint of one audit round (ceil over the batch)."""
        return -(-self.bytes_per_checkpoint_tx // self.rounds_per_checkpoint)

    @property
    def avg_tx_bytes(self) -> float:
        return float(self.bytes_per_checkpoint_tx)

    @property
    def tx_per_second(self) -> float:
        return self.avg_block_bytes / self.block_interval_s / self.avg_tx_bytes

    def max_concurrent_users(
        self, audits_per_day: float = 1.0, redundancy_providers: int = 10
    ) -> int:
        """Users the chain sustains when rounds settle through checkpoints."""
        tx_per_user_per_day = (
            audits_per_day * redundancy_providers / self.rounds_per_checkpoint
        )
        tx_per_day = self.tx_per_second * 86_400
        return int(tx_per_day / tx_per_user_per_day)

    def annual_chain_growth_bytes(
        self, users: int, audits_per_day: float = 1.0
    ) -> int:
        """Audit-trail bytes per year: commitments only, amortized."""
        per_user_year = (
            self.commitment_bytes
            / self.rounds_per_checkpoint
            * audits_per_day
            * 365
        )
        return int(users * per_user_year)


@dataclass(frozen=True)
class ShardedChainCapacityModel(CheckpointedChainCapacityModel):
    """Block-space accounting for the sharded chain fabric.

    ``lanes`` independent block producers run on a lockstep clock
    (:class:`~repro.chain.fabric.ShardedChainFabric`), each settling its
    deterministic slice of the fleet: per-lane block space is unchanged,
    so sustained transaction throughput and the user ceiling scale
    *linearly with the lane count* — the horizontal axis the single-chain
    models cannot offer.  ``rounds_per_checkpoint`` keeps its
    checkpointed meaning per lane (audits behind one lane commitment).

    Chain growth stays amortized per audit exactly as in the checkpointed
    model; sharding adds only the per-epoch fixed costs — one 85-byte
    commitment per *lane* instead of one total, plus the 87-byte
    cross-shard super-commitment binding them
    (:mod:`repro.rollup.fabric`).
    """

    lanes: int = 4
    fabric_commitment_bytes: int = FABRIC_COMMITMENT_BYTES

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.lanes < 1:
            raise ValueError("lanes must be >= 1")

    def _unsharded(self) -> CheckpointedChainCapacityModel:
        return CheckpointedChainCapacityModel(
            avg_block_bytes=self.avg_block_bytes,
            block_interval_s=self.block_interval_s,
            challenge_bytes=self.challenge_bytes,
            proof_bytes=self.proof_bytes,
            rounds_per_checkpoint=self.rounds_per_checkpoint,
            commitment_bytes=self.commitment_bytes,
        )

    @property
    def tx_per_second(self) -> float:
        """Fabric-wide sustained commitment throughput (sum over lanes)."""
        return self.lanes * self._unsharded().tx_per_second

    def max_concurrent_users(
        self, audits_per_day: float = 1.0, redundancy_providers: int = 10
    ) -> int:
        """Users the fabric sustains: lanes x the per-lane ceiling."""
        return self.lanes * self._unsharded().max_concurrent_users(
            audits_per_day, redundancy_providers
        )

    def annual_chain_growth_bytes(
        self, users: int, audits_per_day: float = 1.0
    ) -> int:
        """Amortized trail growth plus the fabric's fixed per-epoch bytes."""
        amortized = self._unsharded().annual_chain_growth_bytes(
            users, audits_per_day
        )
        epochs_per_year = audits_per_day * 365
        fabric_overhead = epochs_per_year * (
            (self.lanes - 1) * self.commitment_bytes + self.fabric_commitment_bytes
        )
        return int(amortized + fabric_overhead)


@dataclass(frozen=True)
class LifecycleCapacityModel(ShardedChainCapacityModel):
    """Lifetime projection: durability and chain growth over N years.

    Extends the sharded capacity model with the *lifecycle* quantities the
    long-horizon engine (:mod:`repro.lifecycle`) measures empirically:
    provider churn drives shard loss, audits detect it, erasure-coded
    repair restores redundancy, and every migrated shard pays a one-time
    re-registration on chain.  The closed-form side lets the reproduction
    sanity-check a simulated decade against the Markov durability model
    (:class:`repro.sim.durability.DurabilityModel`) and project cumulative
    on-chain cost without running it.
    """

    epochs_per_year: int = 12
    churn: float = 0.2                  # annual provider turnover
    erasure_n: int = 4
    erasure_k: int = 2
    detection: float = 1.0              # per-epoch audit detection probability
    #: One-time on-chain bytes when a repaired shard re-registers (fresh
    #: public key + instance metadata on its lane's checkpoint contract).
    repair_registration_bytes: int = 300

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.churn < 1.0:
            raise ValueError("churn must be in [0, 1)")
        if not 1 <= self.erasure_k <= self.erasure_n:
            raise ValueError("need 1 <= erasure_k <= erasure_n")
        if self.epochs_per_year < 1:
            raise ValueError("epochs_per_year must be >= 1")

    @property
    def shard_loss_rate_per_epoch(self) -> float:
        """Per-epoch P[one shard's provider departs] from the annual churn."""
        return 1.0 - (1.0 - self.churn) ** (1.0 / self.epochs_per_year)

    def projected_durability(self, years: float) -> float:
        """P[a file survives ``years``] under churn + audit-driven repair."""
        from .durability import DurabilityModel

        model = DurabilityModel(
            n=self.erasure_n,
            k=self.erasure_k,
            shard_loss_rate=self.shard_loss_rate_per_epoch,
            detection=self.detection,
        )
        return model.survival_probability(int(years * self.epochs_per_year))

    def expected_repairs_per_year(self, files: int) -> float:
        """Expected shard migrations per year across ``files`` archives."""
        return (
            files
            * self.erasure_n
            * self.shard_loss_rate_per_epoch
            * self.epochs_per_year
        )

    def settlement_bytes_per_year(self) -> int:
        """Fixed per-epoch commitment footprint: lanes + super-commitment."""
        per_epoch = (
            self.lanes * self.commitment_bytes + self.fabric_commitment_bytes
        )
        return per_epoch * self.epochs_per_year

    def repair_bytes_per_year(self, files: int) -> int:
        """Re-registration bytes caused by churn-driven shard migration."""
        return int(
            self.expected_repairs_per_year(files)
            * self.repair_registration_bytes
        )

    def cumulative_chain_bytes(self, years: float, files: int) -> int:
        """Total settlement + repair bytes over the deployment lifetime.

        Decomposes exactly as ``years * (settlement + repair)`` — asserted
        by the sim tests so the lifecycle CLI's projection stays honest.
        """
        per_year = self.settlement_bytes_per_year() + self.repair_bytes_per_year(
            files
        )
        return int(years * per_year)


@dataclass(frozen=True)
class CongestionPricingModel:
    """Closed-form EIP-1559 lane dynamics under sustained audit load.

    The chain-side counterpart of :mod:`repro.chain.mempool`: given an
    offered load (gas per block across the fleet) and a lane count, this
    answers the planning questions the empirical congestion bench
    measures — how fast the base fee escalates during an epoch-boundary
    storm, how long it takes to decay back to the floor afterwards, and
    how deep the backlog grows while demand exceeds capacity.  Spreading
    the same demand over more lanes divides the per-lane offered gas,
    which is exactly why the fabric's congestion premium falls with lane
    count (``ShardedChainFabric.lane_base_fees``).
    """

    block_gas_limit: int = 10_000_000
    block_interval_s: float = 15.0
    gas_target_fraction: float = 0.5
    max_change_denominator: int = 8
    base_fee_floor_gwei: float = 1.0
    lanes: int = 1

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ValueError("lanes must be >= 1")
        if not 0.0 < self.gas_target_fraction <= 1.0:
            raise ValueError("gas_target_fraction must be in (0, 1]")

    @classmethod
    def for_market(cls, fee_market, block_gas_limit: int, lanes: int = 1,
                   block_interval_s: float = 15.0) -> "CongestionPricingModel":
        """Mirror a live :class:`~repro.chain.mempool.FeeMarketConfig`."""
        return cls(
            block_gas_limit=block_gas_limit,
            block_interval_s=block_interval_s,
            gas_target_fraction=fee_market.gas_target_fraction,
            max_change_denominator=fee_market.max_change_denominator,
            base_fee_floor_gwei=fee_market.base_fee_floor_gwei,
            lanes=lanes,
        )

    @property
    def gas_target(self) -> int:
        """Per-lane gas target per block (the fee market's set point)."""
        return max(1, int(self.block_gas_limit * self.gas_target_fraction))

    def per_lane_offered(self, total_gas_per_block: float) -> float:
        return total_gas_per_block / self.lanes

    def utilization(self, total_gas_per_block: float) -> float:
        """Included gas over the target (demand beyond the limit is queued)."""
        included = min(self.per_lane_offered(total_gas_per_block), self.block_gas_limit)
        return included / self.gas_target

    def base_fee_growth_per_block(self, total_gas_per_block: float) -> float:
        """Multiplicative base-fee factor while the load is sustained.

        > 1 above the target (up to 1.125 at full blocks), < 1 below it —
        the controller's exponential envelope.
        """
        included = min(self.per_lane_offered(total_gas_per_block), self.block_gas_limit)
        return 1.0 + (included - self.gas_target) / self.gas_target / self.max_change_denominator

    def blocks_to_price_multiplier(
        self, total_gas_per_block: float, multiplier: float
    ) -> float:
        """Blocks of sustained load until the base fee multiplies by ``multiplier``."""
        import math

        growth = self.base_fee_growth_per_block(total_gas_per_block)
        if growth <= 1.0:
            return math.inf if multiplier > 1.0 else 0.0
        return math.log(multiplier) / math.log(growth)

    def decay_blocks_from_multiplier(self, multiplier: float) -> float:
        """Empty blocks needed for the base fee to fall back to the floor."""
        import math

        if multiplier <= 1.0:
            return 0.0
        per_block = 1.0 - 1.0 / self.max_change_denominator
        return math.log(1.0 / multiplier) / math.log(per_block)

    def audits_per_second(self, gas_per_audit: int, total_gas_per_block: float) -> float:
        """Settled audit throughput across lanes under the offered load."""
        per_lane = min(self.per_lane_offered(total_gas_per_block), self.block_gas_limit)
        return self.lanes * per_lane / gas_per_audit / self.block_interval_s


@dataclass(frozen=True)
class ProviderLoadModel:
    """Fig. 10 (right): per-provider proving time as the user base grows."""

    per_proof_seconds: float = 0.065  # ~k=300 proof incl. privacy, native est.
    users_per_provider_at_1k: int = 30  # the paper's Storj/Sia measurement

    def users_per_provider(self, total_users: int) -> int:
        """Linear-regression model from the paper's collected data."""
        return max(1, round(self.users_per_provider_at_1k * total_users / 1000))

    def proving_time_for_all(self, users_on_provider: int) -> float:
        """Seconds to answer every stored user's daily challenge."""
        return users_on_provider * self.per_proof_seconds

    def tolerable(self, users_on_provider: int, block_confirmation_s: float = 15.0) -> bool:
        """The paper's yardstick: proving-all time ~ chain latency order.

        "it may cost the storage provider approximately 20 seconds ... Yet
        we argue this amount of time is tolerable, as the latency on the
        asynchronized blockchain costs a similar amount of time."
        """
        return self.proving_time_for_all(users_on_provider) <= 2 * block_confirmation_s

