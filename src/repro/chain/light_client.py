"""Light client: independent re-verification of on-chain audit trails.

The transparency half of the paper's pitch: because challenges, proofs and
public keys are all on the chain, *any* third party — not just the
contract — can re-check every audit after the fact.  This module is that
third party.  It consumes only serialized on-chain material (pk bytes,
48-byte challenges, 288-byte proofs) and recomputes each round's verdict,
flagging any disagreement with what the contract recorded.

A disagreement would mean a mis-executing contract (or a forged trail) —
the situation the blockchain's honest-majority assumption is supposed to
prevent, and exactly what an auditor-of-the-auditor looks for.

Two trails exist since the epoch rollup landed, and both are covered:

* the **per-round trail** (:class:`LightClient`) re-verifies each round's
  on-chain bytes directly;
* the **checkpointed trail** (:class:`CheckpointLightClient`) verifies
  per-file *inclusion proofs* against committed Merkle roots, and replays
  whole checkpoints from their published leaf sets — a disagreement here
  is exactly the opening a fraud-proof challenger submits on chain
  (:mod:`~repro.chain.contracts.checkpoint_contract`).

On a sharded fabric the published leaf sets are the aggregator's one
history of settled epochs,
:attr:`~repro.rollup.fabric.CrossShardAggregator.settled` — the record
the RPC service serves — so the replay audits exactly what is published.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.batch import BatchItem, judge_proof, verify_batch_grouped
from ..core.challenge import Challenge
from ..core.keys import PublicKey
from ..core.params import ProtocolParams
from ..core.verifier import MALFORMED_PROOF, RejectionReason, Verifier, VerifyOutcome
from ..crypto.merkle import MerkleProof, MerkleTree, verify_merkle_proof
from ..rollup.checkpoint import Checkpoint, aggregated_proof_digest
from ..rollup.records import RoundRecord
from ..rollup.verdict import (
    LeafVerdict,
    leaf_ground_truth,
    leaf_statement,
    leaf_verdict,
)
from .contracts.audit_contract import AuditContract


@dataclass(frozen=True)
class TrailRecord:
    """One audit round as read off the chain (pure bytes + claimed verdict)."""

    round_id: int
    challenge_bytes: bytes
    proof_bytes: bytes | None
    claimed_verdict: bool | None


@dataclass
class ReplayReport:
    """Outcome of re-verifying a whole trail."""

    rounds_checked: int = 0
    agreements: int = 0
    disagreements: list[int] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.disagreements


def export_trail(contract: AuditContract) -> list[TrailRecord]:
    """Serialize a contract's audit history the way a node would serve it."""
    return [
        TrailRecord(
            round_id=record.round_id,
            challenge_bytes=record.challenge.to_bytes(),
            proof_bytes=record.proof_bytes,
            claimed_verdict=record.passed,
        )
        for record in contract.rounds
    ]


class LightClient:
    """Re-verifies an audit trail from raw on-chain bytes."""

    def __init__(
        self,
        public_key_bytes: bytes,
        file_name: int,
        num_chunks: int,
        params: ProtocolParams,
    ):
        self.public = PublicKey.from_bytes(public_key_bytes)
        self.file_name = file_name
        self.num_chunks = num_chunks
        self.params = params

    def verify_round(self, record: TrailRecord) -> VerifyOutcome:
        """Recompute one round's verdict from its bytes by the contract's own
        rule, :func:`~repro.core.batch.judge_proof`.  A node serves the
        trail, so a challenge that does not decode is a rejected round."""
        params = self.params
        try:
            challenge = Challenge.from_bytes(
                record.challenge_bytes, k=params.k, seed_bytes=params.seed_bytes
            )
        except ValueError as exc:
            reason = RejectionReason(MALFORMED_PROOF, detail=str(exc))
            return VerifyOutcome(ok=False, reason=reason)
        return judge_proof(
            self.public, self.file_name, self.num_chunks, challenge, record.proof_bytes
        )

    def replay(self, trail: list[TrailRecord]) -> ReplayReport:
        """Re-verify every round and compare against the claimed verdicts."""
        report = ReplayReport()
        for record in trail:
            verdict = self.verify_round(record)
            report.rounds_checked += 1
            if record.claimed_verdict is None or bool(verdict) == bool(
                record.claimed_verdict
            ):
                report.agreements += 1
            else:
                report.disagreements.append(record.round_id)
        return report


def audit_the_auditor(
    contract: AuditContract, params: ProtocolParams
) -> ReplayReport:
    """One-call convenience: export a contract's trail and replay it."""
    assert contract.public_key is not None and contract.file_name is not None
    client = LightClient(
        public_key_bytes=contract.public_key.to_bytes(),
        file_name=contract.file_name,
        num_chunks=contract.num_chunks,
        params=params,
    )
    return client.replay(export_trail(contract))


# --------------------------------------------------------------------------- #
# Checkpointed trails                                                         #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class InclusionOutcome:
    """Verdict of checking one leaf against a committed checkpoint root.

    ``ok`` means: the proof opens the committed root, the leaf decodes,
    belongs to the commitment's epoch, carries the beacon-derived challenge
    and a verdict that matches independent re-verification.  Any failure
    names its reason — which doubles as the fraud ground the light client
    would cite when escalating to ``CheckpointContract.challenge_leaf``.
    """

    ok: bool
    reason: str = ""             # "" iff ok
    record: RoundRecord | None = None


@dataclass
class CheckpointReplayReport:
    """Outcome of re-verifying checkpointed trails leaf by leaf."""

    checkpoints_checked: int = 0
    rounds_checked: int = 0
    agreements: int = 0
    disagreements: list[tuple[int, int]] = field(default_factory=list)
    #: epochs whose published leaf set does not hash to the committed root
    root_mismatches: list[int] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.disagreements and not self.root_mismatches


class CheckpointLightClient:
    """Re-verifies checkpointed epochs from commitments + published leaves.

    Needs only what the chain itself serves: the instance registry
    (name -> pk bytes + chunk count, from
    ``CheckpointContract.export_instance_registry``), the protocol
    parameters, and the beacon — the same inputs the on-chain fraud proof
    consumes.
    """

    def __init__(
        self,
        instance_registry: dict[int, tuple[bytes, int]],
        params: ProtocolParams,
        beacon,
        fabric_lanes: int | None = None,
    ):
        self.params = params
        self.beacon = beacon
        # Total lane count of the fabric under audit (when known): lets
        # fabric inclusion proofs additionally enforce the deterministic
        # placement rule lane_id == lane(name) of PROTOCOL.md section 10.
        self.fabric_lanes = fabric_lanes
        self._registry = dict(instance_registry)
        self._verifiers: dict[int, Verifier] = {}

    def _verifier_for(self, name: int) -> Verifier | None:
        verifier = self._verifiers.get(name)
        if verifier is None:
            entry = self._registry.get(name)
            if entry is None:
                return None
            pk_bytes, num_chunks = entry
            verifier = Verifier(
                PublicKey.from_bytes(pk_bytes), name, num_chunks
            )
            self._verifiers[name] = verifier
        return verifier

    def check_record(
        self, commitment: Checkpoint, record: RoundRecord
    ) -> InclusionOutcome:
        """Validate one already-included leaf against epoch ground truth.

        Applies the *same* rule set the on-chain fraud proof applies
        (:func:`repro.rollup.verdict.leaf_ground_truth`), so a leaf this
        client flags is exactly a leaf worth challenging.
        """
        verdict = leaf_ground_truth(
            record,
            commitment.epoch,
            self.params,
            self.beacon,
            self._verifier_for,
        )
        if verdict.fraudulent:
            return InclusionOutcome(
                ok=False, reason=verdict.fraud_code, record=record
            )
        return InclusionOutcome(ok=True, record=record)

    def verify_inclusion(
        self, commitment: Checkpoint, proof: MerkleProof
    ) -> InclusionOutcome:
        """Check one file's inclusion proof against a committed root."""
        if not verify_merkle_proof(commitment.root, proof):
            return InclusionOutcome(ok=False, reason="not-included")
        try:
            record = RoundRecord.from_bytes(proof.leaf_data)
        except ValueError:
            return InclusionOutcome(ok=False, reason="malformed-record")
        return self.check_record(commitment, record)

    def verify_fabric_inclusion(
        self, commitment, proof
    ) -> InclusionOutcome:
        """Check a two-stage leaf → lane-root → fabric-root opening.

        ``commitment`` is an 87-byte
        :class:`~repro.rollup.fabric.FabricCheckpoint` (the cross-shard
        super-commitment), ``proof`` a
        :class:`~repro.rollup.fabric.FabricInclusionProof`.  Stage one
        opens the lane's 85-byte commitment into the fabric root; stage
        two opens the round record into that lane commitment's verdict
        root; then the leaf faces the same epoch ground truth as a
        single-chain inclusion — so every fraud ground of the per-lane
        checkpoint contract is preserved under sharding.

        The opened record must be *for the file the proof claims*
        (``name-mismatch`` otherwise — a DA server cannot answer a query
        about file X with some other accepted leaf), and when the client
        knows the fabric's lane count the placement rule
        ``lane_id == lane(name)`` is enforced too (``lane-misplaced``).
        """
        from ..rollup.checkpoint import Checkpoint as LaneCheckpoint

        if not verify_merkle_proof(commitment.fabric_root, proof.lane_proof):
            return InclusionOutcome(ok=False, reason="lane-not-included")
        try:
            lane_commitment = LaneCheckpoint.from_bytes(proof.lane_proof.leaf_data)
        except ValueError:
            return InclusionOutcome(ok=False, reason="malformed-lane-commitment")
        if lane_commitment.epoch != commitment.epoch:
            return InclusionOutcome(ok=False, reason="lane-epoch-mismatch")
        if not verify_merkle_proof(lane_commitment.root, proof.leaf_proof):
            return InclusionOutcome(ok=False, reason="not-included")
        try:
            record = RoundRecord.from_bytes(proof.leaf_proof.leaf_data)
        except ValueError:
            return InclusionOutcome(ok=False, reason="malformed-record")
        if record.name != proof.name:
            return InclusionOutcome(
                ok=False, reason="name-mismatch", record=record
            )
        if self.fabric_lanes is not None:
            from .fabric import lane_index_for_key

            if lane_index_for_key(proof.name, self.fabric_lanes) != proof.lane_id:
                return InclusionOutcome(
                    ok=False, reason="lane-misplaced", record=record
                )
        return self.check_record(lane_commitment, record)

    @staticmethod
    def verify_fabric_rollup(served, lane_commitments) -> bool:
        """Whether a served super-commitment is the roll-up of the lanes' own.

        ``lane_commitments`` are the epoch's live commitments as read from
        the bonded lane contracts, in ascending lane order.  Inclusion
        proofs open ``fabric_root`` only; recomputing
        :func:`~repro.rollup.fabric.roll_up` covers the rest of ``served`` —
        lane count, the three counts and ``lanes_digest``.  A lane left
        out, or one whose commitment was slashed (void), fails it.
        """
        from ..rollup.fabric import roll_up

        try:
            expected, _ = roll_up(served.epoch, lane_commitments)
        except ValueError:
            return False
        return expected == served

    def replay_checkpoint(
        self,
        commitment: Checkpoint,
        records: tuple[RoundRecord, ...],
        report: CheckpointReplayReport | None = None,
    ) -> CheckpointReplayReport:
        """Replay one checkpoint from its full published leaf set.

        Rebuilds the Merkle tree over the served records and compares the
        root, counts and aggregated-proof digest against the commitment
        (data-availability integrity), then re-verifies every leaf verdict
        (verdict integrity) by the rules of :meth:`check_record`: the cheap
        grounds leaf by leaf, and every leaf whose bytes reach the equation
        in one grouped product with fresh ``secrets`` blinders, localized
        only if it fails.
        """
        report = report or CheckpointReplayReport()
        report.checkpoints_checked += 1
        ordered = tuple(sorted(records, key=lambda record: record.name))
        tree = MerkleTree([record.to_bytes() for record in ordered])
        accepted = sum(1 for record in ordered if record.verdict)
        if (
            tree.root != commitment.root
            or len(ordered) != commitment.num_leaves
            or accepted != commitment.accepted
            or aggregated_proof_digest(ordered) != commitment.proof_digest
        ):
            report.root_mismatches.append(commitment.epoch)
        screened = [
            leaf_statement(
                record, commitment.epoch, self.params, self.beacon, self._verifier_for
            )
            for record in ordered
        ]
        at = [i for i, leaf in enumerate(screened) if isinstance(leaf, BatchItem)]
        outcome = verify_batch_grouped([screened[i] for i in at])
        rejected = {at[failure.index] for failure in outcome.failures}
        for i, (record, leaf) in enumerate(zip(ordered, screened)):
            report.rounds_checked += 1
            if not isinstance(leaf, LeafVerdict):
                actual = leaf is not None and i not in rejected
                leaf = leaf_verdict(record, actual)
            if leaf.fraudulent:
                report.disagreements.append((commitment.epoch, record.name))
            else:
                report.agreements += 1
        return report

    def replay_reconstructed(
        self,
        commitment: Checkpoint,
        reconstruction,
        report: CheckpointReplayReport | None = None,
    ) -> CheckpointReplayReport:
        """Replay a checkpoint from a DA k-of-n reconstruction.

        The trust-free path in: ``reconstruction`` is a
        :class:`~repro.da.commit.DaReconstruction` produced by
        :meth:`~repro.da.sampling.DaSampler.reconstruct` — its records were
        decoded from sampled chunks and already proven to hash to the DA
        commitment's bound checkpoint root.  This method refuses anything
        unverified or bound to a *different* checkpoint, then runs the
        ordinary full replay, so ``challenge_counts`` evidence and verdict
        re-checks never rest on aggregator-served leaf sets.
        """
        from ..da.errors import DaReconstructionMismatch, DaUnreconstructed

        if not getattr(reconstruction, "verified", False):
            raise DaUnreconstructed(
                "light client got an unverified reconstruction: sample and "
                "reconstruct via DaSampler before replaying"
            )
        if reconstruction.commitment.checkpoint_root != commitment.root:
            raise DaReconstructionMismatch(
                "reconstruction is bound to a different checkpoint root "
                "than the commitment being replayed"
            )
        return self.replay_checkpoint(
            commitment, reconstruction.records, report=report
        )


def audit_the_auditor_checkpoints(
    contract, records_by_epoch, params: ProtocolParams | None = None
) -> CheckpointReplayReport:
    """Replay every live checkpoint a contract has settled.

    ``contract`` is a
    :class:`~repro.chain.contracts.checkpoint_contract.CheckpointContract`;
    ``records_by_epoch`` maps epoch -> that epoch's published record
    tuple (the aggregator's data-availability obligation); a live
    checkpoint with no entry there raises
    :class:`~repro.rollup.fabric.EpochNotSettled`.  Slashed checkpoints
    are skipped: the chain already voided them.
    """
    from ..rollup.fabric import EpochNotSettled
    from .contracts.checkpoint_contract import CheckpointStatus

    client = CheckpointLightClient(
        contract.export_instance_registry(),
        params or contract.params,
        contract.beacon,
    )
    report = CheckpointReplayReport()
    for entry in contract.checkpoints:
        if entry.status is CheckpointStatus.SLASHED:
            continue
        records = records_by_epoch.get(entry.commitment.epoch)
        if records is None:
            raise EpochNotSettled(entry.commitment.epoch)
        client.replay_checkpoint(entry.commitment, tuple(records), report)
    return report


def audit_the_auditor_fabric(aggregator) -> CheckpointReplayReport:
    """Replay every lane's settled checkpoints of a sharded fabric.

    ``aggregator`` is a
    :class:`~repro.rollup.fabric.CrossShardAggregator`; each lane's
    bonded contract is replayed against the leaf sets that lane published
    in ``aggregator.settled`` (the one history of settled epochs, which
    the RPC service serves too) into one merged report.  A settled epoch
    whose served super-commitment is not the roll-up of what the lane
    contracts hold for it lands in ``root_mismatches``.
    """
    report = CheckpointReplayReport()
    lanes = sorted(aggregator.pipelines.items())
    for settlement in aggregator.settled:
        on_chain = [
            pipeline.chain.call(
                pipeline.contract_address, "checkpoint_for_epoch", settlement.epoch
            )
            for _, pipeline in lanes
        ]
        if not CheckpointLightClient.verify_fabric_rollup(
            settlement.fabric.checkpoint, [c for c in on_chain if c is not None]
        ):
            report.root_mismatches.append(settlement.epoch)
    for lane_id, pipeline in lanes:
        lane_report = audit_the_auditor_checkpoints(
            pipeline.contract,
            {
                settlement.epoch: settlement.lanes[lane_id].bundle.records
                for settlement in aggregator.settled
                if lane_id in settlement.lanes
            },
            params=aggregator.params,
        )
        report.checkpoints_checked += lane_report.checkpoints_checked
        report.rounds_checked += lane_report.rounds_checked
        report.agreements += lane_report.agreements
        report.disagreements.extend(lane_report.disagreements)
        report.root_mismatches.extend(lane_report.root_mismatches)
    return report
