"""Epoch checkpoint rollup: O(1) on-chain postings per provider per epoch.

The paper's chain layer records one on-chain round per (file, epoch); this
package amortizes that to a single committed verdict tree per epoch —
records (:mod:`~repro.rollup.records`), commitments and inclusion proofs
(:mod:`~repro.rollup.checkpoint`), the contract's calldata
(:mod:`~repro.rollup.client`), and chain settlement
(:mod:`~repro.rollup.pipeline`).  Over a sharded chain fabric, per-lane
commitments are additionally Merkle-rolled into one cross-shard
super-commitment (:mod:`~repro.rollup.fabric`).  The fraud-proof
arbitration lives in :mod:`repro.chain.contracts.checkpoint_contract`; the
independent re-verification surface in :mod:`repro.chain.light_client`.
"""

from .checkpoint import (
    CHECKPOINT_COMMITMENT_BYTES,
    Checkpoint,
    CheckpointBundle,
    aggregated_proof_digest,
    build_checkpoint,
    build_epoch_checkpoint,
)
from .client import CheckpointClient
from .fabric import (
    FABRIC_COMMITMENT_BYTES,
    CrossShardAggregator,
    FabricCheckpoint,
    FabricCheckpointBundle,
    FabricInclusionProof,
    FabricSettlement,
    build_fabric_checkpoint,
    lanes_digest,
)
from .pipeline import CheckpointPipeline, SettledEpoch
from .records import WITHHELD_CODE, RoundRecord, records_from_epoch
from .verdict import LeafVerdict, leaf_ground_truth

__all__ = [
    "CHECKPOINT_COMMITMENT_BYTES",
    "Checkpoint",
    "CheckpointBundle",
    "CheckpointClient",
    "CheckpointPipeline",
    "CrossShardAggregator",
    "FABRIC_COMMITMENT_BYTES",
    "FabricCheckpoint",
    "FabricCheckpointBundle",
    "FabricInclusionProof",
    "FabricSettlement",
    "LeafVerdict",
    "RoundRecord",
    "SettledEpoch",
    "WITHHELD_CODE",
    "aggregated_proof_digest",
    "build_checkpoint",
    "build_epoch_checkpoint",
    "build_fabric_checkpoint",
    "lanes_digest",
    "leaf_ground_truth",
    "records_from_epoch",
]
