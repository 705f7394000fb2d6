"""Epoch checkpoints: a Merkle verdict tree behind one on-chain commitment.

The rollup's core object.  An epoch's :class:`~.records.RoundRecord` set is
committed as::

    root   = MerkleRoot( sorted canonical record encodings )
    digest = SHA256( proof_0 || proof_1 || ... )     (aggregated-proof digest)

and only the fixed-size :class:`Checkpoint` commitment touches the chain —
85 bytes regardless of whether the epoch audited 64 files or a million.
The full leaf set stays with the aggregator (data availability), which is
what lets *anyone* later

* verify a per-file inclusion proof against the committed root
  (:meth:`CheckpointBundle.prove`, checked by the light client), and
* open any single leaf on chain and have the
  :class:`~repro.chain.contracts.checkpoint_contract.CheckpointContract`
  re-run that round's verdict — the bonded fraud proof that keeps a
  one-transaction epoch as sound as N per-round transactions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from ..crypto.merkle import MerkleProof, MerkleTree, verify_merkle_proof
from .records import RoundRecord, records_from_epoch

CHECKPOINT_VERSION = 0x01

#: Fixed wire size of one checkpoint commitment (the on-chain footprint):
#: version(1) + epoch(8) + root(32) + accepted(4) + rejected(4) +
#: num_leaves(4) + aggregated-proof digest(32).
CHECKPOINT_COMMITMENT_BYTES = 85


@dataclass(frozen=True)
class Checkpoint:
    """The on-chain commitment to one epoch's verdict tree."""

    epoch: int
    root: bytes
    accepted: int
    rejected: int
    num_leaves: int
    proof_digest: bytes  # SHA256 over the concatenated proof bytes

    def __post_init__(self) -> None:
        if len(self.root) != 32 or len(self.proof_digest) != 32:
            raise ValueError("root and proof digest must be 32 bytes")
        if self.accepted + self.rejected != self.num_leaves:
            raise ValueError("accepted + rejected must equal num_leaves")

    def to_bytes(self) -> bytes:
        return b"".join(
            (
                bytes([CHECKPOINT_VERSION]),
                self.epoch.to_bytes(8, "big"),
                self.root,
                self.accepted.to_bytes(4, "big"),
                self.rejected.to_bytes(4, "big"),
                self.num_leaves.to_bytes(4, "big"),
                self.proof_digest,
            )
        )

    @staticmethod
    def from_bytes(data: bytes) -> "Checkpoint":
        if len(data) != CHECKPOINT_COMMITMENT_BYTES:
            raise ValueError(
                f"checkpoint commitment must be {CHECKPOINT_COMMITMENT_BYTES} bytes"
            )
        if data[0] != CHECKPOINT_VERSION:
            raise ValueError(f"unknown checkpoint version {data[0]:#x}")
        return Checkpoint(
            epoch=int.from_bytes(data[1:9], "big"),
            root=bytes(data[9:41]),
            accepted=int.from_bytes(data[41:45], "big"),
            rejected=int.from_bytes(data[45:49], "big"),
            num_leaves=int.from_bytes(data[49:53], "big"),
            proof_digest=bytes(data[53:85]),
        )

    def byte_size(self) -> int:
        return CHECKPOINT_COMMITMENT_BYTES


def aggregated_proof_digest(records: tuple[RoundRecord, ...]) -> bytes:
    """SHA256 binding every proof in the epoch into one 32-byte digest.

    Committed alongside the root so the aggregator cannot later serve a
    different proof set for the same verdict tree without detection.
    """
    hasher = hashlib.sha256(b"checkpoint-proofs-v1")
    for record in records:
        hasher.update(len(record.proof_bytes).to_bytes(4, "big"))
        hasher.update(record.proof_bytes)
    return hasher.digest()


@dataclass(frozen=True)
class CheckpointBundle:
    """A checkpoint plus its full leaf set (the data-availability half).

    The commitment goes on chain; the bundle stays with the aggregator and
    is served to any light client or fraud-proof challenger on request.
    """

    checkpoint: Checkpoint
    records: tuple[RoundRecord, ...]
    tree: MerkleTree

    @cached_property
    def _index_by_name(self) -> dict[int, int]:
        return {record.name: index for index, record in enumerate(self.records)}

    def leaf_index(self, name: int) -> int:
        index = self._index_by_name.get(name)
        if index is None:
            raise KeyError(
                f"file {name} not in checkpoint {self.checkpoint.epoch}"
            )
        return index

    def record_for(self, name: int) -> RoundRecord:
        return self.records[self.leaf_index(name)]

    def prove(self, name: int) -> MerkleProof:
        """Inclusion proof for one file's round record."""
        return self.tree.prove(self.leaf_index(name))

    def verify_inclusion(self, proof: MerkleProof) -> bool:
        return verify_merkle_proof(self.checkpoint.root, proof)

    def rejected_names(self) -> tuple[int, ...]:
        return tuple(r.name for r in self.records if not r.verdict)

    def accepted_names(self) -> tuple[int, ...]:
        return tuple(r.name for r in self.records if r.verdict)


def build_checkpoint(
    epoch: int, records: tuple[RoundRecord, ...]
) -> CheckpointBundle:
    """Commit a record set: sort, hash, count, digest."""
    if not records:
        raise ValueError("cannot checkpoint an empty epoch")
    ordered = tuple(sorted(records, key=lambda record: record.name))
    names = [record.name for record in ordered]
    if len(names) != len(set(names)):
        raise ValueError("duplicate file name in checkpoint records")
    if any(record.epoch != epoch for record in ordered):
        raise ValueError("all records must belong to the checkpointed epoch")
    tree = MerkleTree([record.to_bytes() for record in ordered])
    accepted = sum(1 for record in ordered if record.verdict)
    checkpoint = Checkpoint(
        epoch=epoch,
        root=tree.root,
        accepted=accepted,
        rejected=len(ordered) - accepted,
        num_leaves=len(ordered),
        proof_digest=aggregated_proof_digest(ordered),
    )
    return CheckpointBundle(checkpoint=checkpoint, records=ordered, tree=tree)


def build_epoch_checkpoint(result) -> CheckpointBundle:
    """One-call path from an engine :class:`EpochResult` to a bundle."""
    return build_checkpoint(result.epoch, records_from_epoch(result))
