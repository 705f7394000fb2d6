"""Cross-shard checkpoint aggregation: one super-commitment per fabric epoch.

Closes the rollup loop over the sharded chain fabric
(:class:`~repro.chain.fabric.ShardedChainFabric`).  Each lane settles its
epoch exactly as in the single-chain rollup — an 85-byte
:class:`~repro.rollup.checkpoint.Checkpoint` posted to that lane's bonded
:class:`~repro.chain.contracts.checkpoint_contract.CheckpointContract`,
fraud-proof window and all — and the :class:`CrossShardAggregator`
Merkle-rolls the per-lane commitments into one fixed-size
:class:`FabricCheckpoint`::

    fabric_root = MerkleRoot( lane commitment encodings, ascending lane id )
    lanes_digest = SHA256( commitment_0 || commitment_1 || ... )

A light client holding only the 87-byte fabric commitment verifies any
single round anywhere in the fleet through a two-stage inclusion proof —
leaf → lane root → fabric root (:class:`FabricInclusionProof`, checked by
:meth:`repro.chain.light_client.CheckpointLightClient.verify_fabric_inclusion`),
and checks the commitment itself — root, counts, digest — by recomputing
:func:`roll_up` over the lane commitments it reads from the lane contracts.
Fraud-proof soundness is inherited per lane: the fabric commitment binds
exactly the lane commitments that sit on chain under bonds, so a lying
lane is slashed by the ordinary :meth:`challenge_leaf` path and the
fabric commitment for that epoch is void with it (the byte layout and the
proof format are specified in ``docs/PROTOCOL.md`` section 10).

:attr:`CrossShardAggregator.settled` is the one history of settled
epochs: the RPC service, DA serving, the light-client replay and the
lifecycle engine read it, and the per-lane pipelines keep none.
"""

from __future__ import annotations

import hashlib
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from ..crypto.merkle import MerkleProof, MerkleTree, verify_merkle_proof
from .checkpoint import Checkpoint, CheckpointBundle
from .pipeline import CheckpointPipeline, SettledEpoch

FABRIC_CHECKPOINT_VERSION = 0x01

#: Fixed wire size of one fabric super-commitment:
#: version(1) + epoch(8) + num_lanes(2) + fabric_root(32) + accepted(4) +
#: rejected(4) + num_leaves(4) + lanes_digest(32).
FABRIC_COMMITMENT_BYTES = 87


@dataclass(frozen=True)
class FabricCheckpoint:
    """The fixed-size commitment to one epoch across every lane."""

    epoch: int
    num_lanes: int
    fabric_root: bytes
    accepted: int
    rejected: int
    num_leaves: int
    lanes_digest: bytes

    def __post_init__(self) -> None:
        if len(self.fabric_root) != 32 or len(self.lanes_digest) != 32:
            raise ValueError("fabric root and lanes digest must be 32 bytes")
        if self.accepted + self.rejected != self.num_leaves:
            raise ValueError("accepted + rejected must equal num_leaves")
        if not 1 <= self.num_lanes <= 0xFFFF:
            raise ValueError("num_lanes out of range")

    def to_bytes(self) -> bytes:
        return b"".join(
            (
                bytes([FABRIC_CHECKPOINT_VERSION]),
                self.epoch.to_bytes(8, "big"),
                self.num_lanes.to_bytes(2, "big"),
                self.fabric_root,
                self.accepted.to_bytes(4, "big"),
                self.rejected.to_bytes(4, "big"),
                self.num_leaves.to_bytes(4, "big"),
                self.lanes_digest,
            )
        )

    @staticmethod
    def from_bytes(data: bytes) -> "FabricCheckpoint":
        if len(data) != FABRIC_COMMITMENT_BYTES:
            raise ValueError(
                f"fabric commitment must be {FABRIC_COMMITMENT_BYTES} bytes"
            )
        if data[0] != FABRIC_CHECKPOINT_VERSION:
            raise ValueError(f"unknown fabric checkpoint version {data[0]:#x}")
        return FabricCheckpoint(
            epoch=int.from_bytes(data[1:9], "big"),
            num_lanes=int.from_bytes(data[9:11], "big"),
            fabric_root=bytes(data[11:43]),
            accepted=int.from_bytes(data[43:47], "big"),
            rejected=int.from_bytes(data[47:51], "big"),
            num_leaves=int.from_bytes(data[51:55], "big"),
            lanes_digest=bytes(data[55:87]),
        )

    def byte_size(self) -> int:
        return FABRIC_COMMITMENT_BYTES


def lanes_digest(commitments: Sequence[Checkpoint]) -> bytes:
    """SHA256 binding the ordered lane commitment set."""
    hasher = hashlib.sha256(b"fabric-lanes-v1")
    for commitment in commitments:
        hasher.update(commitment.to_bytes())
    return hasher.digest()


@dataclass(frozen=True)
class FabricInclusionProof:
    """Two-stage opening of one round record against a fabric commitment.

    ``lane_proof`` opens the lane's 85-byte commitment encoding into the
    fabric root (leaf index = the lane's position in the participating
    lane list); ``leaf_proof`` opens the round record into that lane
    commitment's verdict-tree root.  ``lane_id`` is the fabric lane that
    settled the round — the lane whose on-chain bonded checkpoint a
    challenger would escalate to.
    """

    name: int
    lane_id: int
    lane_proof: MerkleProof
    leaf_proof: MerkleProof


@dataclass(frozen=True)
class FabricCheckpointBundle:
    """A fabric commitment plus every lane's full bundle (the DA half)."""

    checkpoint: FabricCheckpoint
    lanes: tuple[tuple[int, CheckpointBundle], ...]  # (lane_id, bundle), sorted
    tree: MerkleTree

    def lane_bundle(self, lane_id: int) -> CheckpointBundle:
        for candidate, bundle in self.lanes:
            if candidate == lane_id:
                return bundle
        raise KeyError(f"lane {lane_id} did not settle this epoch")

    def prove_lane(self, lane_id: int) -> MerkleProof:
        """Inclusion proof of one lane's commitment in the fabric root."""
        for position, (candidate, _) in enumerate(self.lanes):
            if candidate == lane_id:
                return self.tree.prove(position)
        raise KeyError(f"lane {lane_id} did not settle this epoch")

    def lane_for_name(self, name: int) -> int:
        for lane_id, bundle in self.lanes:
            try:
                bundle.leaf_index(name)
            except KeyError:
                continue
            return lane_id
        raise KeyError(f"file {name} not in fabric epoch {self.checkpoint.epoch}")

    def prove(self, name: int) -> FabricInclusionProof:
        """leaf → lane-root → fabric-root opening for one file's round."""
        lane_id = self.lane_for_name(name)
        bundle = self.lane_bundle(lane_id)
        return FabricInclusionProof(
            name=name,
            lane_id=lane_id,
            lane_proof=self.prove_lane(lane_id),
            leaf_proof=bundle.prove(name),
        )

    def verify_inclusion(self, proof: FabricInclusionProof) -> bool:
        """Structural check: both stages open against the committed roots."""
        if not verify_merkle_proof(self.checkpoint.fabric_root, proof.lane_proof):
            return False
        try:
            lane_commitment = Checkpoint.from_bytes(proof.lane_proof.leaf_data)
        except ValueError:
            return False
        return verify_merkle_proof(lane_commitment.root, proof.leaf_proof)

    def accepted_names(self) -> tuple[int, ...]:
        return tuple(
            name for _, bundle in self.lanes for name in bundle.accepted_names()
        )

    def rejected_names(self) -> tuple[int, ...]:
        return tuple(
            name for _, bundle in self.lanes for name in bundle.rejected_names()
        )


def roll_up(
    epoch: int, commitments: Sequence[Checkpoint]
) -> tuple[FabricCheckpoint, MerkleTree]:
    """The fabric roll-up rule: one epoch's lane commitments → super-commitment.

    ``commitments`` come in ascending lane order.  Their 85-byte encodings
    are the leaves of ``fabric_root``, their counts sum, and
    :func:`lanes_digest` binds the ordered set.  The aggregator builds what
    it serves with this function and a light client recomputes it from the
    commitments bonded on the lane contracts, so counts and digest are
    checked by the rule that made them.
    """
    if not commitments:
        raise ValueError("cannot build a fabric checkpoint with no lanes")
    if any(commitment.epoch != epoch for commitment in commitments):
        raise ValueError("all lane checkpoints must belong to the fabric epoch")
    tree = MerkleTree([commitment.to_bytes() for commitment in commitments])
    checkpoint = FabricCheckpoint(
        epoch=epoch,
        num_lanes=len(commitments),
        fabric_root=tree.root,
        accepted=sum(c.accepted for c in commitments),
        rejected=sum(c.rejected for c in commitments),
        num_leaves=sum(c.num_leaves for c in commitments),
        lanes_digest=lanes_digest(commitments),
    )
    return checkpoint, tree


def build_fabric_checkpoint(
    epoch: int, lane_bundles: Sequence[tuple[int, CheckpointBundle]]
) -> FabricCheckpointBundle:
    """Merkle-roll per-lane checkpoints into one fabric commitment."""
    ordered = tuple(sorted(lane_bundles, key=lambda pair: pair[0]))
    lane_ids = [lane_id for lane_id, _ in ordered]
    if len(lane_ids) != len(set(lane_ids)):
        raise ValueError("duplicate lane id in fabric checkpoint")
    checkpoint, tree = roll_up(epoch, [bundle.checkpoint for _, bundle in ordered])
    return FabricCheckpointBundle(checkpoint=checkpoint, lanes=ordered, tree=tree)


# --------------------------------------------------------------------------- #
# The aggregator role across lanes                                            #
# --------------------------------------------------------------------------- #


class EpochNotSettled(KeyError):
    """Lookup of an epoch this aggregator never settled.

    Subclasses :class:`KeyError` so ``except KeyError`` callers keep
    working, but carries the epoch as structured data and, unlike a bare
    KeyError (whose ``str()`` wraps the message in quotes), renders its
    message verbatim for RPC/CLI surfaces.
    """

    code = "epoch-not-settled"

    def __init__(self, epoch: int):
        super().__init__(f"epoch {epoch} not settled by this aggregator")
        self.epoch = epoch

    def __str__(self) -> str:
        return self.args[0]


@dataclass
class FabricSettlement:
    """One epoch settled on every lane, plus the fabric super-commitment."""

    epoch: int
    lanes: dict[int, SettledEpoch]
    fabric: FabricCheckpointBundle

    def accepted_names(self) -> tuple[int, ...]:
        return self.fabric.accepted_names()

    def rejected_names(self) -> tuple[int, ...]:
        return self.fabric.rejected_names()

    def total_commitment_gas(self) -> int:
        return sum(s.receipt.gas_used + s.registration_gas for s in self.lanes.values())


class CrossShardAggregator:
    """Settles engine epochs across every fabric lane and rolls them up.

    One :class:`~repro.engine.scheduler.EpochScheduler` +
    :class:`~repro.rollup.pipeline.CheckpointPipeline` pair per lane, all
    sharing a single :class:`~repro.engine.executor.AuditExecutor` — so
    proof generation for the whole fleet fans out through one set of
    prover threads while settlement (commitment posting, bonds, fraud windows)
    stays per-lane.  Instance→lane placement uses the fabric's
    deterministic :meth:`~repro.chain.fabric.ShardedChainFabric.lane_index_for`,
    the same function every light client and challenger applies.

    ``lanes`` (lane id → (account, contract address) already on the fabric)
    gives every listed lane a pipeline and sends no transaction here;
    without it each populated lane gets a fresh account and contract and
    its fleet is registered at once.
    """

    def __init__(
        self,
        fabric,
        executor,
        params,
        beacon,
        rng=None,
        deterministic: bool = False,
        tracer=None,
        da_params=None,
        lanes=None,
    ):
        # Imported lazily to keep the rollup layer importable without the
        # chain package on every path (mirrors pipeline.py's convention).
        from ..chain.contracts.checkpoint_contract import CheckpointContract
        from ..engine.scheduler import EpochScheduler

        self.fabric = fabric
        self.executor = executor
        self.params = params
        self.beacon = beacon
        self.da_params = da_params
        self.settled: list[FabricSettlement] = []
        self._settled_by_epoch: dict[int, int] = {}
        self.pipelines: dict[int, CheckpointPipeline] = {}

        placement: dict[int, set[int]] = {}
        for name in executor.instances:
            placement.setdefault(fabric.lane_index_for(name), set()).add(name)
        if not placement:
            raise ValueError("no audit instances registered with the executor")
        lane_ids = sorted(placement) if lanes is None else sorted(lanes)
        # Where an epoch runs follows from what is there to run it on.  With
        # more than one worker and more than one lane, one thread
        # per lane drives the whole prove → verify → post pipeline — its
        # batch check runs on that thread, in parallel with the other lanes'
        # because the pairing kernel releases the GIL — meeting at an epoch
        # barrier only for the fabric checkpoint roll-up; lane settlement is
        # entirely lane-local (scheduler, pipeline, chain, contract), so the
        # per-lane op sequence — and the accept/reject sets — match the
        # lockstep walk exactly (differential-tested).  Otherwise the
        # lockstep walk settles every lane on the calling thread.
        self.concurrent = executor.workers > 1 and len(lane_ids) > 1
        # A Tracer is single-threaded by design, so span collection is only
        # honoured on the lockstep walk; concurrent lane threads would
        # interleave their enter/exit stacks into one garbled tree.
        self.tracer = None if self.concurrent else tracer
        self._lane_workers = (
            ThreadPoolExecutor(max_workers=len(lane_ids), thread_name_prefix="settle")
            if self.concurrent
            else None
        )
        for lane_id in lane_ids:
            lane = fabric.lane(lane_id)
            if lanes is None:
                account = lane.create_account(10.0, label=f"aggregator-{lane_id}")
                contract = CheckpointContract(beacon, params)
                address = lane.deploy(contract, deployer=account)
            else:
                account, address = lanes[lane_id]
            # Each lane's scheduler gets its own blinding rng, derived in
            # sorted lane order: a shared Random instance would race under
            # concurrent lane threads.  Verdicts are rho-independent, so
            # the derivation only fixes the transcript, not the outcome.
            lane_rng = (
                None if rng is None else random.Random(rng.getrandbits(64))
            )
            scheduler = EpochScheduler(
                executor,
                params,
                beacon,
                deterministic=deterministic,
                rng=lane_rng,
                names=placement.get(lane_id, ()),
                tracer=self.tracer,
            )
            pipeline = CheckpointPipeline(
                scheduler,
                lane,
                address,
                account,
                da_params=da_params,
                lane_id=lane_id,
            )
            if lanes is None:
                pipeline.register_fleet()
            self.pipelines[lane_id] = pipeline

    def lane_of(self, name: int) -> int:
        """The lane that settles (and would arbitrate) one file's audits."""
        return self.fabric.lane_index_for(name)

    def set_override(self, name: int, override) -> None:
        """Route one file's proofs through an adversary-strategy callable."""
        self.pipelines[self.lane_of(name)].scheduler.set_override(name, override)

    def register(self, instance) -> None:
        """Add one instance between epochs; its lane's pipeline registers it
        on chain when it next posts."""
        self.executor.register(instance)
        scheduler = self.pipelines[self.lane_of(instance.name)].scheduler
        scheduler.names = scheduler.names | {instance.name}

    def retire(self, name: int) -> None:
        """Drop one instance between epochs (its registration stays on chain)."""
        self.executor.unregister(name)
        scheduler = self.pipelines[self.lane_of(name)].scheduler
        scheduler.names = scheduler.names - {name}
        scheduler.overrides.pop(name, None)

    def close(self) -> None:
        if self._lane_workers is not None:
            self._lane_workers.shutdown(wait=True)

    def settle_epoch(self, epoch: int) -> FabricSettlement:
        """Run one epoch on every lane holding audits; roll the commitments up.

        When ``self.concurrent`` every lane settles on its own worker
        thread; collecting the futures IS the epoch barrier — the fabric
        checkpoint is built only after the slowest lane posts.
        """
        lane_ids = [i for i, p in sorted(self.pipelines.items()) if p.scheduler.names]
        lanes: dict[int, SettledEpoch] = {}
        if self.concurrent:
            futures = {
                lane_id: self._lane_workers.submit(
                    self.pipelines[lane_id].settle_epoch, epoch
                )
                for lane_id in lane_ids
            }
            for lane_id in lane_ids:
                lanes[lane_id] = futures[lane_id].result()
        else:
            for lane_id in lane_ids:
                lanes[lane_id] = self.pipelines[lane_id].settle_epoch(epoch)
        fabric_bundle = build_fabric_checkpoint(
            epoch,
            [(lane_id, settled.bundle) for lane_id, settled in lanes.items()],
        )
        settlement = FabricSettlement(epoch=epoch, lanes=lanes, fabric=fabric_bundle)
        self._settled_by_epoch[epoch] = len(self.settled)
        self.settled.append(settlement)
        return settlement

    def run(self, epochs: int, start_epoch: int = 0) -> list[FabricSettlement]:
        return [self.settle_epoch(start_epoch + i) for i in range(epochs)]

    def settlement_for_epoch(self, epoch: int) -> FabricSettlement:
        """Serve the data-availability obligation for one fabric epoch."""
        index = self._settled_by_epoch.get(epoch)
        if index is None:
            raise EpochNotSettled(epoch)
        return self.settled[index]

    def export_instance_registry(self) -> dict[int, tuple[bytes, int]]:
        """Union of every lane contract's on-chain instance registry."""
        registry: dict[int, tuple[bytes, int]] = {}
        for pipeline in self.pipelines.values():
            registry.update(pipeline.contract.export_instance_registry())
        return registry
