"""Gas accounting: EVM schedule + the paper's audit-precompile cost model.

Two models coexist, matching the paper's methodology (Section VII-B):

1. :class:`GasSchedule` — honest per-operation EVM prices (Byzantium and
   Istanbul/EIP-1108 variants) used for ordinary transactions and for the
   *vanilla-EVM ablation*: pricing the audit verification as plain
   precompile calls shows why the authors built a custom opcode-optimised
   precompile (k = 300 ECMULs alone cost more than their whole audit).

2. :class:`AuditPrecompileModel` — the paper's own extrapolation (Fig. 5):
   "we assume the gas cost incurred by the computational overhead
   proportional to the computational time", anchored so that a 288-byte
   private proof verified in 7.2 ms costs the reported 589,000 gas.  The
   model decomposes as  ``intrinsic + calldata + audit-trail storage +
   slope * verify_ms``; the slope is *derived* from the anchor rather than
   hard-coded, and printed by the Fig. 5 bench.

USD conversion uses the paper's April-2020 figures (143 USD/ETH, 5 Gwei).
"""

from __future__ import annotations

from dataclasses import dataclass

# Paper anchor points (Section VII-B).
PAPER_AUDIT_GAS = 589_000
PAPER_VERIFY_MS = 7.2
PAPER_ETH_USD = 143.0
PAPER_GAS_PRICE_GWEI = 5.0

PRIVATE_PROOF_BYTES = 288
PLAIN_PROOF_BYTES = 96
CHALLENGE_BYTES = 48

#: Wire size of one epoch-checkpoint commitment (root + epoch + counts +
#: aggregated-proof digest; see ``repro.rollup.checkpoint``).  Kept as a
#: plain constant here so gas accounting does not import the rollup layer.
CHECKPOINT_COMMITMENT_BYTES = 85

#: Wire size of one cross-shard fabric super-commitment (version + epoch +
#: lane count + fabric root + counts + lanes digest; see
#: ``repro.rollup.fabric`` and docs/PROTOCOL.md section 10).
FABRIC_COMMITMENT_BYTES = 87


@dataclass(frozen=True)
class GasSchedule:
    """Per-operation gas prices for the ordinary EVM accounting."""

    tx_intrinsic: int = 21_000
    calldata_nonzero_byte: int = 16
    calldata_zero_byte: int = 4
    sstore_set: int = 20_000          # fresh 32-byte storage slot
    sload: int = 800
    sha256_base: int = 60
    sha256_per_word: int = 12
    log_base: int = 375
    log_per_byte: int = 8
    # BN254 precompile prices.
    ecadd: int = 150
    ecmul: int = 6_000
    pairing_base: int = 45_000
    pairing_per_pair: int = 34_000

    @staticmethod
    def istanbul() -> "GasSchedule":
        return GasSchedule()

    @staticmethod
    def byzantium() -> "GasSchedule":
        return GasSchedule(
            ecadd=500,
            ecmul=40_000,
            pairing_base=100_000,
            pairing_per_pair=80_000,
        )

    def calldata_gas(self, data: bytes) -> int:
        zeros = data.count(0)
        return (
            zeros * self.calldata_zero_byte
            + (len(data) - zeros) * self.calldata_nonzero_byte
        )

    def storage_gas(self, num_bytes: int) -> int:
        """Cost of persisting ``num_bytes`` into fresh storage slots."""
        slots = (num_bytes + 31) // 32
        return slots * self.sstore_set

    def pairing_gas(self, pairs: int) -> int:
        return self.pairing_base + pairs * self.pairing_per_pair

    def hash_gas(self, num_bytes: int) -> int:
        words = (num_bytes + 31) // 32
        return self.sha256_base + words * self.sha256_per_word


@dataclass(frozen=True)
class AuditPrecompileModel:
    """The paper's Fig. 5 time-extrapolated gas model for audit verification.

    ``gas = intrinsic + calldata(challenge || proof) + storage(trail)
            + slope * verify_ms``

    with ``slope`` calibrated so the private-proof anchor reproduces the
    paper's 589k figure exactly.
    """

    schedule: GasSchedule

    @property
    def compute_slope_gas_per_ms(self) -> float:
        anchor_fixed = self._fixed_gas(PRIVATE_PROOF_BYTES)
        return (PAPER_AUDIT_GAS - anchor_fixed) / PAPER_VERIFY_MS

    def _fixed_gas(self, proof_bytes: int) -> int:
        trail_bytes = proof_bytes + CHALLENGE_BYTES
        # Calldata estimated at the worst case (all non-zero bytes):
        # compressed group elements are incompressible-looking.
        calldata = trail_bytes * self.schedule.calldata_nonzero_byte
        storage = self.schedule.storage_gas(trail_bytes)
        return self.schedule.tx_intrinsic + calldata + storage

    def verification_gas(self, proof_bytes: int, verify_ms: float) -> int:
        """Total gas for one audit verification transaction (Fig. 5 y-axis)."""
        if verify_ms < 0:
            raise ValueError("verification time cannot be negative")
        return round(
            self._fixed_gas(proof_bytes)
            + self.compute_slope_gas_per_ms * verify_ms
        )

    def private_audit_gas(self, verify_ms: float = PAPER_VERIFY_MS) -> int:
        return self.verification_gas(PRIVATE_PROOF_BYTES, verify_ms)


def vanilla_evm_verification_gas(
    schedule: GasSchedule, k: int, private: bool = True
) -> int:
    """Honest per-opcode cost of Eq. (1)/(2) on an unmodified EVM.

    Operation inventory for the contract verifier:
      * k hash-to-curve digests for chi (~2 SHA-256 calls each, x2 average
        try-and-increment attempts),
      * a k-term MSM for chi  (k ECMUL + k ECADD on chain),
      * 3-4 proof-side ECMULs (sigma^zeta, chi^zeta, psi^zeta, g1^y') and a
        G2 scalar mul priced as ~3 ECMULs (no G2 precompile exists),
      * one 3-pair pairing check,
      * GT operations for R folding (priced as one extra pairing-pair
        equivalent — conservative).

    This is the ablation showing the custom precompile is what makes the
    paper's numbers possible: at k = 300 the MSM alone costs ~1.8M gas.
    """
    hash_gas = k * 2 * 2 * schedule.hash_gas(64)
    msm_gas = k * (schedule.ecmul + schedule.ecadd)
    proof_scaling = 4 * schedule.ecmul + 3 * schedule.ecmul  # incl. G2 mul
    pairing = schedule.pairing_gas(3)
    gt_ops = schedule.pairing_per_pair if private else 0
    trail_bytes = (PRIVATE_PROOF_BYTES if private else PLAIN_PROOF_BYTES) + CHALLENGE_BYTES
    return (
        schedule.tx_intrinsic
        + trail_bytes * schedule.calldata_nonzero_byte
        + schedule.storage_gas(trail_bytes)
        + hash_gas
        + msm_gas
        + proof_scaling
        + pairing
        + gt_ops
    )


def checkpoint_commitment_gas(
    schedule: GasSchedule,
    commitment_bytes: int = CHECKPOINT_COMMITMENT_BYTES,
) -> int:
    """Gas for posting one epoch checkpoint (the rollup's whole epoch cost).

    One transaction regardless of fleet size: intrinsic + calldata +
    storage for the fixed-size commitment.  Worst-case (all-nonzero)
    calldata pricing, matching :class:`AuditPrecompileModel`.
    """
    return (
        schedule.tx_intrinsic
        + commitment_bytes * schedule.calldata_nonzero_byte
        + schedule.storage_gas(commitment_bytes)
    )


@dataclass(frozen=True)
class CheckpointAmortization:
    """Per-round vs. checkpointed cost of auditing ``fleet`` files one epoch.

    The Fig. 5/6 story at fleet scale: the per-round path pays a full
    verification transaction per file (gas) and a challenge + proof trail
    per file (bytes); the checkpointed path pays one commitment
    transaction and 85 trail bytes for the *whole epoch*, so both ratios
    grow linearly with the fleet.
    """

    fleet: int
    per_round_gas: int            # N verification txs (Fig. 5 model)
    checkpoint_gas: int           # 1 commitment tx
    per_round_trail_bytes: int    # N * (challenge + proof)
    checkpoint_trail_bytes: int   # 1 commitment

    @property
    def per_round_gas_per_file(self) -> float:
        return self.per_round_gas / self.fleet

    @property
    def checkpoint_gas_per_file(self) -> float:
        return self.checkpoint_gas / self.fleet

    @property
    def gas_reduction(self) -> float:
        return self.per_round_gas / self.checkpoint_gas

    @property
    def bytes_reduction(self) -> float:
        return self.per_round_trail_bytes / self.checkpoint_trail_bytes


def checkpoint_amortization(
    schedule: GasSchedule,
    fleet: int,
    verify_ms: float = PAPER_VERIFY_MS,
    commitment_bytes: int = CHECKPOINT_COMMITMENT_BYTES,
) -> CheckpointAmortization:
    """Compare one epoch of ``fleet`` audits, per-round vs. checkpointed."""
    if fleet < 1:
        raise ValueError("fleet must be >= 1")
    model = AuditPrecompileModel(schedule)
    return CheckpointAmortization(
        fleet=fleet,
        per_round_gas=fleet
        * model.verification_gas(PRIVATE_PROOF_BYTES, verify_ms),
        checkpoint_gas=checkpoint_commitment_gas(schedule, commitment_bytes),
        per_round_trail_bytes=fleet * (CHALLENGE_BYTES + PRIVATE_PROOF_BYTES),
        checkpoint_trail_bytes=commitment_bytes,
    )


@dataclass(frozen=True)
class CostModel:
    """Gas -> fiat conversion (paper: 143 USD/ETH, 5 Gwei, April 2020)."""

    eth_usd: float = PAPER_ETH_USD
    gas_price_gwei: float = PAPER_GAS_PRICE_GWEI

    def gas_to_eth(self, gas: int) -> float:
        return gas * self.gas_price_gwei * 1e-9

    def gas_to_usd(self, gas: int) -> float:
        return self.gas_to_eth(gas) * self.eth_usd
