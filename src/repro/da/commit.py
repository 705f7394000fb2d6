"""DA commitments: a checkpoint's leaf set as erasure-coded NMT chunks.

The availability half of the rollup, done so light clients can *check* it.
At settlement the aggregator serializes the epoch's sorted record set into
one blob, extends it with the GF(256) systematic RS code (any ``k`` of the
``n`` chunks reconstruct the blob), and commits the ``n`` extended chunks
under a namespaced Merkle tree.  The resulting :class:`DaCommitment` is a
fixed 119-byte object, posted on chain next to the 85-byte checkpoint —
and it **binds the checkpoint root**, so "the data behind commitment X" is
unambiguous: a reconstruction that does not hash back to the committed
verdict root is itself proof of aggregator misbehavior
(:class:`~repro.da.errors.DaReconstructionMismatch`).

Why erasure coding matters here: without it, an aggregator could withhold
a *single* record and no light client sampling a few chunks would ever
notice (one missing leaf in a million is invisible at any polite sample
budget).  With an (n, k) extension, hiding *any* part of the data forces
the aggregator to withhold at least ``n - k + 1`` of ``n`` chunks — a
constant fraction that random sampling detects with probability
``1 - (1 - f)^s`` (see :mod:`~repro.da.sampling`).

Blob framing (versioned, self-delimiting)::

    count    (4 bytes, big-endian)
    repeat count times:
        len  (4 bytes, big-endian) || canonical RoundRecord bytes

The RS layer adds its own 8-byte length frame
(:meth:`~repro.storage.erasure.ReedSolomonCode.encode_framed`), so chunks
served over the wire carry everything needed to decode them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..crypto.merkle import MerkleTree
from ..rollup.checkpoint import CheckpointBundle
from ..rollup.records import RoundRecord
from ..storage.erasure import ReedSolomonCode, Shard
from .errors import DaReconstructionMismatch
from .nmt import (
    NMT_ROOT_BYTES,
    NamespacedMerkleTree,
    NmtProof,
    NmtRoot,
    make_namespace,
)

DA_COMMITMENT_VERSION = 0x01

#: Fixed wire size of one DA commitment: version(1) + lane(8) + epoch(8) +
#: n(1) + k(1) + chunk_bytes(4) + checkpoint_root(32) + nmt_root(64).
DA_COMMITMENT_BYTES = 1 + 8 + 8 + 1 + 1 + 4 + 32 + NMT_ROOT_BYTES


@dataclass(frozen=True)
class DaParams:
    """The (n, k) extension an aggregator runs its DA layer with.

    ``n`` extended chunks per epoch, any ``k`` reconstruct.  Withholding
    usefully (making data unrecoverable) requires hiding more than
    ``n - k`` chunks, i.e. a fraction above ``1 - k/n``.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        if not 1 <= self.k < self.n <= 255:
            raise ValueError("need 1 <= k < n <= 255 for a GF(256) DA code")


#: Default extension: 4x blow-up; withholding anything useful means hiding
#: more than 75% of the chunks, far above the detection target fraction.
DEFAULT_DA_PARAMS = DaParams(n=64, k=16)

# Systematic-matrix construction is O(n * k^2) GF multiplications; cache
# codes per (n, k) so every epoch/bench trial reuses the same instance.
_CODES: dict[tuple[int, int], ReedSolomonCode] = {}
_CODES_LOCK = threading.Lock()


def rs_code(params: DaParams) -> ReedSolomonCode:
    with _CODES_LOCK:
        code = _CODES.get((params.n, params.k))
        if code is None:
            code = ReedSolomonCode(params.n, params.k)
            _CODES[(params.n, params.k)] = code
    return code


@dataclass(frozen=True)
class DaCommitment:
    """Fixed-size on-chain binding of one epoch's extended chunk set."""

    lane_id: int
    epoch: int
    n: int
    k: int
    chunk_bytes: int
    checkpoint_root: bytes
    root: NmtRoot

    def __post_init__(self) -> None:
        if not 1 <= self.k < self.n <= 255:
            raise ValueError("bad (n, k) in DA commitment")
        if len(self.checkpoint_root) != 32:
            raise ValueError("checkpoint root must be 32 bytes")
        if self.chunk_bytes < 1:
            raise ValueError("chunk_bytes must be positive")

    @property
    def namespace(self) -> bytes:
        return make_namespace(self.lane_id, self.epoch)

    @property
    def params(self) -> DaParams:
        return DaParams(n=self.n, k=self.k)

    def to_bytes(self) -> bytes:
        return b"".join(
            (
                bytes([DA_COMMITMENT_VERSION]),
                self.lane_id.to_bytes(8, "big"),
                self.epoch.to_bytes(8, "big"),
                bytes([self.n, self.k]),
                self.chunk_bytes.to_bytes(4, "big"),
                self.checkpoint_root,
                self.root.to_bytes(),
            )
        )

    @staticmethod
    def from_bytes(data: bytes) -> "DaCommitment":
        if len(data) != DA_COMMITMENT_BYTES:
            raise ValueError(
                f"DA commitment must be {DA_COMMITMENT_BYTES} bytes"
            )
        if data[0] != DA_COMMITMENT_VERSION:
            raise ValueError(f"unknown DA commitment version {data[0]:#x}")
        return DaCommitment(
            lane_id=int.from_bytes(data[1:9], "big"),
            epoch=int.from_bytes(data[9:17], "big"),
            n=data[17],
            k=data[18],
            chunk_bytes=int.from_bytes(data[19:23], "big"),
            checkpoint_root=bytes(data[23:55]),
            root=NmtRoot.from_bytes(bytes(data[55:])),
        )

    def byte_size(self) -> int:
        return DA_COMMITMENT_BYTES


def _frame(encodings: list[bytes]) -> bytes:
    """The length-framed DA blob over already-encoded records."""
    parts = [len(encodings).to_bytes(4, "big")]
    for encoded in encodings:
        parts.append(len(encoded).to_bytes(4, "big"))
        parts.append(encoded)
    return b"".join(parts)


def records_blob(records: tuple[RoundRecord, ...]) -> bytes:
    """Serialize a sorted record set into the length-framed DA blob."""
    return _frame([record.to_bytes() for record in records])


def _record_slices(blob: bytes) -> list[bytes]:
    """Cut a DA blob into its framed record encodings, strictly."""
    if len(blob) < 4:
        raise ValueError("DA blob too short")
    count = int.from_bytes(blob[:4], "big")
    offset = 4
    leaves = []
    for _ in range(count):
        if offset + 4 > len(blob):
            raise ValueError("truncated DA blob: missing record length")
        length = int.from_bytes(blob[offset : offset + 4], "big")
        offset += 4
        if offset + length > len(blob):
            raise ValueError("truncated DA blob: missing record bytes")
        leaves.append(blob[offset : offset + length])
        offset += length
    if offset != len(blob):
        raise ValueError("trailing bytes after DA blob records")
    return leaves


def records_from_blob(blob: bytes) -> tuple[RoundRecord, ...]:
    """Strict inverse of :func:`records_blob` (rejects trailing garbage)."""
    return tuple(map(RoundRecord.from_bytes, _record_slices(blob)))


@dataclass
class DaBundle:
    """An epoch's extended chunk set: what the aggregator must serve.

    The off-chain half of a :class:`DaCommitment`.  ``withhold`` flips the
    bundle into the adversarial serving mode the sampler is built to catch
    — withheld indices answer "unavailable" instead of a chunk + proof.
    """

    commitment: DaCommitment
    chunks: tuple[bytes, ...]
    tree: NamespacedMerkleTree
    withheld: set[int] = field(default_factory=set)

    def chunk_with_proof(self, index: int) -> tuple[bytes, NmtProof] | None:
        """One chunk and its NMT opening, or None when withheld."""
        if not 0 <= index < self.commitment.n:
            raise IndexError(f"chunk {index} out of range")
        if index in self.withheld:
            return None
        return self.chunks[index], self.tree.prove(index)

    def withhold(self, indices) -> None:
        """Adversarial serving mode: stop answering for these chunks."""
        for index in indices:
            if not 0 <= index < self.commitment.n:
                raise IndexError(f"chunk {index} out of range")
            self.withheld.add(index)

    def available_indices(self) -> tuple[int, ...]:
        return tuple(
            i for i in range(self.commitment.n) if i not in self.withheld
        )

    def chunk_payload_bytes(self) -> int:
        """Total bytes of the full chunk set (the blow-up denominator)."""
        return sum(len(chunk) for chunk in self.chunks)


def build_da_bundle(
    lane_id: int,
    epoch: int,
    bundle: CheckpointBundle,
    params: DaParams = DEFAULT_DA_PARAMS,
) -> DaBundle:
    """Extend one settled checkpoint's leaf set into committed DA chunks."""
    if bundle.checkpoint.epoch != epoch:
        raise ValueError("bundle does not belong to the requested epoch")
    # The checkpoint tree's leaves are the records' canonical encodings.
    blob = _frame(bundle.tree.leaves)
    shards = rs_code(params).encode_framed(blob)
    chunks = tuple(shard.data for shard in shards)
    namespace = make_namespace(lane_id, epoch)
    tree = NamespacedMerkleTree([(namespace, chunk) for chunk in chunks])
    commitment = DaCommitment(
        lane_id=lane_id,
        epoch=epoch,
        n=params.n,
        k=params.k,
        chunk_bytes=len(chunks[0]),
        checkpoint_root=bundle.checkpoint.root,
        root=tree.root,
    )
    return DaBundle(commitment=commitment, chunks=chunks, tree=tree)


@dataclass(frozen=True)
class DaReconstruction:
    """A verified k-of-n rebuild of one epoch's full leaf set.

    ``verified`` is True only when the decoded records hash back to the
    commitment's bound checkpoint root — the property that lets the holder
    drive ``challenge_counts`` without ever trusting the aggregator.
    """

    commitment: DaCommitment
    records: tuple[RoundRecord, ...]
    #: The records' canonical encodings, as the decoded blob framed them.
    leaf_bytes: tuple[bytes, ...]
    chunks_used: int
    verified: bool

    def counts_challenge_leaves(self) -> tuple[bytes, ...]:
        """The full leaf set, ready for ``challenge_counts``."""
        from .errors import DaUnreconstructed

        if not self.verified:
            raise DaUnreconstructed(
                "reconstruction is unverified: refusing to back a counts "
                "challenge with leaves that may not match the commitment"
            )
        return self.leaf_bytes


def reconstruct_records(
    commitment: DaCommitment, chunks: dict[int, bytes]
) -> DaReconstruction:
    """Decode any k-of-n chunk subset and verify it against the commitment.

    ``chunks`` maps chunk index -> chunk bytes (typically gathered by the
    sampling client).  Raises :class:`DaReconstructionMismatch` when the
    decoded leaf set does not rebuild the bound checkpoint root — either
    tampered chunks slipped in without NMT verification, or the aggregator
    committed inconsistent DA and checkpoint roots.
    """
    shards = []
    for index, data in sorted(chunks.items()):
        if not 0 <= index < commitment.n:
            raise ValueError(f"chunk index {index} out of range")
        if len(data) != commitment.chunk_bytes:
            raise DaReconstructionMismatch(
                f"chunk {index} is {len(data)} B, commitment says "
                f"{commitment.chunk_bytes} B"
            )
        shards.append(Shard(index=index, data=data))
    code = rs_code(commitment.params)
    try:
        leaves = _record_slices(code.decode_framed(shards))
        records = tuple(map(RoundRecord.from_bytes, leaves))
    except ValueError as exc:
        raise DaReconstructionMismatch(
            f"decoded chunk set does not parse as a record blob: {exc}"
        ) from exc
    if not records:
        raise DaReconstructionMismatch("decoded blob holds no records")
    # The record codec is canonical (every encoding it accepts re-encodes
    # to itself), so the framed bytes are the checkpoint tree's leaves.
    tree = MerkleTree(leaves)
    if tree.root != commitment.checkpoint_root:
        raise DaReconstructionMismatch(
            "reconstructed leaf set does not rebuild the committed "
            "checkpoint root"
        )
    return DaReconstruction(
        commitment=commitment,
        records=records,
        leaf_bytes=tuple(leaves),
        chunks_used=len(shards),
        verified=True,
    )
