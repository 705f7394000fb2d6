"""Checkpoint contract: one commitment per epoch, guarded by fraud proofs.

The rollup's settlement layer.  Instead of N per-round (challenge, proof,
verdict) transactions, an aggregator posts a single 85-byte
:class:`~repro.rollup.checkpoint.Checkpoint` commitment per epoch — root of
the Merkle verdict tree, accepted/rejected counts, aggregated-proof digest
— bonded for a fraud-proof window.

Soundness comes from the optimistic-rollup argument rather than from
on-chain re-execution: during the window *anyone* holding the published
leaf set can open one leaf on chain (:meth:`CheckpointContract.challenge_leaf`)
and the contract re-derives that round's ground truth entirely from
on-chain state — the registered public key, the beacon's epoch output (so
a substituted challenge is caught, not just a flipped verdict) and the
leaf's proof bytes.  A lying checkpoint loses its poster's bond to the
challenger and is marked ``slashed``; a frivolous challenge forfeits the
challenger's bond to the poster, mirroring the per-round dispute economics
of :mod:`~repro.chain.contracts.audit_contract`.  When a
:class:`~repro.chain.contracts.reputation.ReputationRegistry` is wired in,
a slashed checkpoint also slashes the poster's registry stake.

Gas follows the same Fig. 5 accounting as the per-round path: posting pays
calldata + storage for 85 bytes (vs ``N * (48 + 288)`` trail bytes), and
only the *failure path* — a fraud challenge — ever pays for a pairing
check on chain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from ...core.batch import BatchItem, screen_proof
from ...core.challenge import epoch_challenge
from ...core.keys import PublicKey
from ...core.params import ProtocolParams
from ...core.verifier import Verifier
from ...crypto.merkle import MerkleProof, MerkleTree, verify_merkle_proof
from ...randomness.beacon import RandomnessBeacon
from ...rollup.checkpoint import Checkpoint
from ...rollup.records import RoundRecord
from ...rollup.verdict import LeafVerdict, leaf_ground_truth
from ..blockchain import CallContext, Contract
from ..gas import PAPER_VERIFY_MS, AuditPrecompileModel, GasSchedule
from ..transaction import RevertError


class CheckpointStatus(enum.Enum):
    OPEN = "open"            # inside the fraud-proof window
    FINAL = "final"          # window closed unchallenged, bond released
    SLASHED = "slashed"      # a fraud proof landed; commitment is void


@dataclass(frozen=True)
class CheckpointEntry:
    """One posted commitment and its dispute lifecycle; the contract writes
    it by replacement (see :class:`~repro.chain.contracts.AuditRound`)."""

    checkpoint_id: int
    commitment: Checkpoint
    poster: str
    bond_wei: int
    posted_at: float
    status: CheckpointStatus = CheckpointStatus.OPEN
    challenged_by: str | None = None
    fraud_reason: str | None = None
    gas_used: int = 0
    da_commitment: object | None = None  # DaCommitment once post_da_root lands

    @property
    def commitment_bytes(self) -> int:
        return self.commitment.byte_size()


@dataclass(frozen=True)
class RegisteredInstance:
    """On-chain registration of one auditable (owner, file) instance."""

    name: int
    public_key_bytes: bytes
    num_chunks: int


class CheckpointContract(Contract):
    """Epoch-rollup settlement: commitments in, fraud proofs only on lies."""

    def __init__(
        self,
        beacon: RandomnessBeacon,
        params: ProtocolParams,
        fraud_window: float = 24 * 3600.0,
        registry_address: str | None = None,
    ):
        super().__init__()
        self.beacon = beacon
        self.params = params
        self.posting_bond_wei = 5 * 10**16
        self.challenge_bond_wei = 10**15
        self.fraud_window = fraud_window
        self.native_verify_ms = PAPER_VERIFY_MS
        self.gas_model = AuditPrecompileModel(GasSchedule.istanbul())
        self.registry_address = registry_address
        self.instances: dict[int, RegisteredInstance] = {}
        self.checkpoints: list[CheckpointEntry] = []
        self._by_epoch: dict[int, int] = {}  # epoch -> checkpoint_id

    # ------------------------------------------------------------------ #
    # Instance registry (the once-per-file on-chain metadata)             #
    # ------------------------------------------------------------------ #

    def register_instance(
        self, ctx: CallContext, name: int, public_key_bytes: bytes, num_chunks: int
    ):
        """Record a file's audit metadata (pk bytes + chunk count) on chain.

        The same one-time Fig. 4 storage cost as the per-round path's
        ``negotiate``; the fraud proof later reads the key back from here,
        so leaf re-verification consumes no off-chain trust.
        """
        self.require(name not in self.instances, "instance already registered")
        self.require(num_chunks > 0, "empty file")
        # Decode up front so garbage bytes cannot poison the registry.
        try:
            PublicKey.from_bytes(bytes(public_key_bytes))
        except ValueError as exc:
            raise RevertError(f"bad public key bytes: {exc}") from None
        self.instances[name] = RegisteredInstance(
            name=name,
            public_key_bytes=bytes(public_key_bytes),
            num_chunks=num_chunks,
        )
        ctx.gas.consume(
            self.gas_model.schedule.storage_gas(len(public_key_bytes) + 36)
        )
        self.emit("instance_registered", name=name, num_chunks=num_chunks)

    def export_instance_registry(self) -> dict[int, tuple[bytes, int]]:
        """name -> (pk bytes, num_chunks): what a light client reads off chain."""
        return {
            name: (entry.public_key_bytes, entry.num_chunks)
            for name, entry in self.instances.items()
        }

    # ------------------------------------------------------------------ #
    # Posting                                                             #
    # ------------------------------------------------------------------ #

    def post_checkpoint(self, ctx: CallContext, commitment_bytes: bytes) -> int:
        """Commit one epoch's verdict tree; returns the checkpoint id."""
        self.require(
            ctx.value >= self.posting_bond_wei,
            f"posting bond is {self.posting_bond_wei} wei",
        )
        try:
            commitment = Checkpoint.from_bytes(bytes(commitment_bytes))
        except ValueError as exc:
            raise RevertError(f"bad commitment: {exc}") from None
        self.require(
            commitment.epoch not in self._by_epoch,
            f"epoch {commitment.epoch} already checkpointed",
        )
        self.require(commitment.num_leaves > 0, "empty checkpoint")
        # Storage only: the calldata side of the commitment is already
        # metered by the transaction layer from ``payload_bytes``.
        gas = self.gas_model.schedule.storage_gas(len(commitment_bytes))
        ctx.gas.consume(gas)
        entry = CheckpointEntry(
            checkpoint_id=len(self.checkpoints),
            commitment=commitment,
            poster=ctx.sender,
            bond_wei=ctx.value,
            posted_at=ctx.timestamp,
            gas_used=gas,
        )
        self.checkpoints.append(entry)
        self._by_epoch[commitment.epoch] = entry.checkpoint_id
        self.emit(
            "checkpointed",
            checkpoint=entry.checkpoint_id,
            epoch=commitment.epoch,
            leaves=commitment.num_leaves,
            accepted=commitment.accepted,
            rejected=commitment.rejected,
            bytes=commitment.byte_size(),
        )
        return entry.checkpoint_id

    def post_da_root(
        self, ctx: CallContext, checkpoint_id: int, commitment_bytes: bytes
    ):
        """Bind a DA commitment (erasure-coded chunk NMT) to a checkpoint.

        The 119-byte :class:`~repro.da.commit.DaCommitment` names the
        (n, k) extension, the per-chunk byte length, and the namespaced
        Merkle root of the extended chunk set — everything a sampling
        light client needs to verify chunks against on-chain state alone.
        Only the checkpoint's poster may bind it (it is *their*
        availability obligation), and the embedded checkpoint root and
        epoch must match the bonded commitment, so a DA root can never
        point at different data than the verdict tree it claims to cover.
        """
        from ...da.commit import DaCommitment

        self.require(
            0 <= checkpoint_id < len(self.checkpoints), "unknown checkpoint"
        )
        entry = self.checkpoints[checkpoint_id]
        self.require(
            ctx.sender == entry.poster,
            "only the checkpoint poster may bind its DA commitment",
        )
        self.require(
            entry.da_commitment is None,
            "DA commitment already posted for this checkpoint",
        )
        try:
            commitment = DaCommitment.from_bytes(bytes(commitment_bytes))
        except ValueError as exc:
            raise RevertError(f"bad DA commitment: {exc}") from None
        self.require(
            commitment.checkpoint_root == entry.commitment.root,
            "DA commitment does not bind the committed checkpoint root",
        )
        self.require(
            commitment.epoch == entry.commitment.epoch,
            "DA commitment epoch does not match the checkpoint",
        )
        gas = self.gas_model.schedule.storage_gas(len(commitment_bytes))
        ctx.gas.consume(gas)
        self.checkpoints[checkpoint_id] = replace(
            entry, gas_used=entry.gas_used + gas, da_commitment=commitment
        )
        self.emit(
            "da_committed",
            checkpoint=checkpoint_id,
            epoch=commitment.epoch,
            lane=commitment.lane_id,
            n=commitment.n,
            k=commitment.k,
            chunk_bytes=commitment.chunk_bytes,
        )

    # ------------------------------------------------------------------ #
    # Fraud proofs                                                        #
    # ------------------------------------------------------------------ #

    def _verifier_for(self, name: int) -> Verifier | None:
        instance = self.instances.get(name)
        if instance is None:
            return None
        return Verifier(
            PublicKey.from_bytes(instance.public_key_bytes),
            name,
            instance.num_chunks,
        )

    def _require_challengeable(
        self, ctx: CallContext, checkpoint_id: int
    ) -> CheckpointEntry:
        """Shared guards for every fraud-proof entry point."""
        self.require(
            0 <= checkpoint_id < len(self.checkpoints), "unknown checkpoint"
        )
        entry = self.checkpoints[checkpoint_id]
        self.require(
            entry.status is CheckpointStatus.OPEN,
            f"checkpoint is {entry.status.value}, not challengeable",
        )
        self.require(
            ctx.value >= self.challenge_bond_wei,
            f"challenge bond is {self.challenge_bond_wei} wei",
        )
        self.require(
            ctx.timestamp <= entry.posted_at + self.fraud_window,
            "fraud-proof window closed",
        )
        return entry

    def _charge(self, ctx: CallContext, checkpoint_id: int, gas: int) -> None:
        """Meter ``gas`` and book it against the checkpoint's entry."""
        ctx.gas.consume(gas)
        entry = self.checkpoints[checkpoint_id]
        self.checkpoints[checkpoint_id] = replace(entry, gas_used=entry.gas_used + gas)

    def _settle_challenge(
        self,
        ctx: CallContext,
        checkpoint_id: int,
        fraud_reason: str | None,
        upheld_payload: dict,
    ) -> None:
        """Common outcome path: slash on fraud, forfeit a frivolous bond."""
        assert self.chain is not None
        entry = self.checkpoints[checkpoint_id]
        if fraud_reason is not None:
            # Free the epoch slot: a slashed commitment is void, so a
            # correct aggregator can still settle the epoch afterwards —
            # otherwise one bonded garbage post would censor the epoch
            # forever at the cost of a slash.
            if self._by_epoch.get(entry.commitment.epoch) == entry.checkpoint_id:
                del self._by_epoch[entry.commitment.epoch]
            # Challenger bond back + the poster's bond as the bounty.
            payout = ctx.value + entry.bond_wei
            self.checkpoints[checkpoint_id] = replace(
                entry,
                status=CheckpointStatus.SLASHED,
                challenged_by=ctx.sender,
                fraud_reason=fraud_reason,
                bond_wei=0,
            )
            self.chain.transfer(self.address, ctx.sender, payout)
            self.emit(
                "checkpoint_slashed",
                checkpoint=entry.checkpoint_id,
                epoch=entry.commitment.epoch,
                reason=fraud_reason,
                slashed_wei=payout - ctx.value,
            )
            self._slash_registry_stake(ctx, entry.poster)
        else:
            # Frivolous challenge: bond to the poster, checkpoint stays open
            # (others may still find a genuinely bad leaf in the window).
            self.chain.transfer(self.address, entry.poster, ctx.value)
            self.emit(
                "checkpoint_upheld",
                checkpoint=entry.checkpoint_id,
                **upheld_payload,
            )

    def challenge_leaf(
        self,
        ctx: CallContext,
        checkpoint_id: int,
        leaf_bytes: bytes,
        leaf_index: int,
        siblings: tuple[bytes, ...],
        directions: tuple[bool, ...],
        counterproof: bytes = b"",
    ):
        """Open one leaf of a bonded checkpoint and re-run its verdict.

        The challenger supplies the leaf's canonical record bytes plus its
        Merkle authentication path.  Inclusion is checked against the
        committed root first — a proof that does not open the committed
        tree reverts (the challenger proved nothing).  A leaf that *is*
        committed but lies gets the checkpoint slashed: the poster's bond
        moves to the challenger and the commitment is void.

        ``counterproof`` rebuts aggregator *slander*: a committed
        rejection — ``no-proof``, or garbage proof bytes substituted for
        the provider's real answer — is internally consistent (it
        re-verifies to reject), so the wronged provider instead submits
        the real proof it generated for the epoch's beacon challenge.  A
        verifying counterproof voids the committed rejection and slashes
        the checkpoint (``rejection-rebutted``).  This is a *convention*,
        not an attribution: the chain cannot time off-chain delivery, so
        a provider who stonewalled the aggregator and later rebuts wins
        too — the benefit of the doubt goes to whoever can exhibit a
        valid proof (only a party storing the file can).  Production
        aggregators close that griefing vector off chain by demanding
        signed submission receipts before recording a rejection.
        """
        entry = self._require_challengeable(ctx, checkpoint_id)
        proof = MerkleProof(
            leaf_index=leaf_index,
            leaf_data=bytes(leaf_bytes),
            siblings=tuple(bytes(s) for s in siblings),
            directions=tuple(bool(d) for d in directions),
        )
        self.require(
            verify_merkle_proof(entry.commitment.root, proof),
            "inclusion proof does not open the committed root",
        )
        # Leaf re-verification: the only place the rollup ever pays
        # pairing gas on chain, and only when someone claims fraud.
        self._charge(
            ctx,
            checkpoint_id,
            self.gas_model.verification_gas(len(bytes(leaf_bytes)), self.native_verify_ms),
        )
        try:
            record = RoundRecord.from_bytes(bytes(leaf_bytes))
        except ValueError as exc:
            verdict = LeafVerdict(
                actual=None, fraud_code="malformed-record", detail=str(exc)
            )
        else:
            verdict = leaf_ground_truth(
                record,
                entry.commitment.epoch,
                self.params,
                self.beacon,
                self._verifier_for,
            )
        fraud_reason = verdict.describe()
        if fraud_reason is None and counterproof and not record.verdict:
            fraud_reason = self._rebut_rejection(
                ctx, checkpoint_id, record, bytes(counterproof)
            )
        self.emit(
            "checkpoint_challenged",
            checkpoint=checkpoint_id,
            leaf=leaf_index,
            by=ctx.sender[:16],
        )
        self._settle_challenge(
            ctx, checkpoint_id, fraud_reason, upheld_payload={"leaf": leaf_index}
        )

    def _rebut_rejection(
        self, ctx: CallContext, checkpoint_id: int, record, counterproof: bytes
    ) -> str | None:
        """Fraud reason when a valid counterproof rebuts a rejected leaf.
        Bytes the screen turns away rebut nothing and are charged nothing."""
        verifier = self._verifier_for(record.name)
        assert verifier is not None  # ground truth already passed the lookup
        challenge = epoch_challenge(
            self.beacon.output(record.epoch), self.params, record.name
        )
        rebuttal = screen_proof(
            verifier.public, record.name, verifier.num_chunks, challenge, counterproof
        )
        if not isinstance(rebuttal, BatchItem):
            return None  # not a valid rebuttal; the leaf stands
        self._charge(
            ctx,
            checkpoint_id,
            self.gas_model.verification_gas(len(counterproof), self.native_verify_ms),
        )
        if rebuttal.verify():
            return (
                "rejection-rebutted: a valid proof exists for the epoch's "
                "challenge, so the committed rejection is slander"
            )
        return None

    def challenge_counts(
        self, ctx: CallContext, checkpoint_id: int, leaves: tuple[bytes, ...]
    ):
        """Full-data fraud proof for the commitment's summary fields.

        A single-leaf opening cannot expose forged ``accepted`` /
        ``rejected`` / ``num_leaves`` counts over an honest root, so this
        entry point takes the *entire* leaf set (cheap: hashing only, no
        pairings), rebuilds the Merkle tree, and requires it to reproduce
        the committed root — which proves the supplied leaves are exactly
        the committed ones.  The counts are then recomputed; any
        discrepancy (including undecodable or duplicate-name leaves, which
        an honest aggregator can never commit) slashes the checkpoint.
        """
        entry = self._require_challengeable(ctx, checkpoint_id)
        leaf_list = [bytes(leaf) for leaf in leaves]
        self.require(bool(leaf_list), "no leaves supplied")
        # Hash metering: one leaf hash each plus the internal nodes.
        schedule = self.gas_model.schedule
        gas = sum(schedule.hash_gas(len(leaf)) for leaf in leaf_list)
        gas += (len(leaf_list) - 1) * schedule.hash_gas(64)
        self._charge(ctx, checkpoint_id, gas)
        tree = MerkleTree(leaf_list)
        if tree.root != entry.commitment.root:
            # A light client holding only a *partial* leaf set used to hit
            # the same opaque root-mismatch revert as a genuinely wrong
            # set.  Name the real problem and the documented way in.  The
            # size check stays inside the root-mismatch branch on purpose:
            # a leaf set that DOES rebuild the root must always reach the
            # count checks, or forging ``num_leaves`` itself would become
            # unpunishable (the true set has a different size).
            self.require(
                len(leaf_list) == entry.commitment.num_leaves,
                f"partial-leaf-set: got {len(leaf_list)} leaves for a "
                f"checkpoint committing {entry.commitment.num_leaves}; "
                "reconstruct the full epoch from DA samples "
                "(da_sample_get -> k-of-n reconstruction) before "
                "challenging counts",
            )
            raise RevertError(
                "supplied leaves do not rebuild the committed root"
            )
        fraud_reason = None
        accepted = 0
        names = set()
        for leaf in leaf_list:
            try:
                record = RoundRecord.from_bytes(leaf)
            except ValueError as exc:
                fraud_reason = f"malformed-record: {exc}"
                break
            if record.name in names:
                fraud_reason = f"duplicate-name: {record.name:#x}"
                break
            names.add(record.name)
            accepted += 1 if record.verdict else 0
        if fraud_reason is None:
            commitment = entry.commitment
            if (
                len(leaf_list) != commitment.num_leaves
                or accepted != commitment.accepted
                or len(leaf_list) - accepted != commitment.rejected
            ):
                fraud_reason = (
                    f"count-mismatch: committed {commitment.accepted}/"
                    f"{commitment.rejected}/{commitment.num_leaves}, tree has "
                    f"{accepted}/{len(leaf_list) - accepted}/{len(leaf_list)}"
                )
        self.emit(
            "checkpoint_challenged",
            checkpoint=checkpoint_id,
            scope="counts",
            by=ctx.sender[:16],
        )
        self._settle_challenge(
            ctx, checkpoint_id, fraud_reason, upheld_payload={"scope": "counts"}
        )

    def _slash_registry_stake(self, ctx: CallContext, poster: str) -> None:
        """Best-effort reputation slash for a fraudulent aggregator."""
        if self.registry_address is None:
            return
        try:
            self._call_contract(
                ctx, self.registry_address, "slash_stake", poster, 0.2, ctx.sender
            )
        except RevertError:
            pass  # poster unregistered / contract unauthorized: skip

    # ------------------------------------------------------------------ #
    # Finalization                                                        #
    # ------------------------------------------------------------------ #

    def finalize_checkpoint(self, ctx: CallContext, checkpoint_id: int):
        """Close the window on an unchallenged checkpoint, release the bond."""
        self.require(
            0 <= checkpoint_id < len(self.checkpoints), "unknown checkpoint"
        )
        entry = self.checkpoints[checkpoint_id]
        self.require(
            entry.status is CheckpointStatus.OPEN,
            f"checkpoint is {entry.status.value}",
        )
        self.require(
            ctx.timestamp > entry.posted_at + self.fraud_window,
            "fraud-proof window still open",
        )
        bond = entry.bond_wei
        self.checkpoints[checkpoint_id] = replace(
            entry, status=CheckpointStatus.FINAL, bond_wei=0
        )
        assert self.chain is not None
        if bond:
            self.chain.transfer(self.address, entry.poster, bond)
        self.emit(
            "checkpoint_finalized",
            checkpoint=checkpoint_id,
            epoch=entry.commitment.epoch,
            refunded_wei=bond,
        )

    # -- views -----------------------------------------------------------

    def checkpoint_for_epoch(self, ctx: CallContext, epoch: int) -> Checkpoint | None:
        checkpoint_id = self._by_epoch.get(epoch)
        if checkpoint_id is None:
            return None
        return self.checkpoints[checkpoint_id].commitment

    def da_commitment_for_epoch(self, ctx: CallContext, epoch: int):
        """The DA commitment bound to an epoch's checkpoint, if posted."""
        checkpoint_id = self._by_epoch.get(epoch)
        if checkpoint_id is None:
            return None
        return self.checkpoints[checkpoint_id].da_commitment

    def status(self, ctx: CallContext) -> dict:
        return {
            "checkpoints": len(self.checkpoints),
            "instances": len(self.instances),
            "open": sum(
                1 for e in self.checkpoints if e.status is CheckpointStatus.OPEN
            ),
            "final": sum(
                1 for e in self.checkpoints if e.status is CheckpointStatus.FINAL
            ),
            "slashed": sum(
                1 for e in self.checkpoints if e.status is CheckpointStatus.SLASHED
            ),
        }

    def total_commitment_bytes(self) -> int:
        """On-chain audit-trail bytes (the Fig. 10 chain-growth quantity)."""
        return sum(entry.commitment_bytes for entry in self.checkpoints)

    def audited_rounds(self) -> int:
        """Rounds settled across every non-slashed checkpoint."""
        return sum(
            entry.commitment.num_leaves
            for entry in self.checkpoints
            if entry.status is not CheckpointStatus.SLASHED
        )
