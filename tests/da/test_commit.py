"""DA commitments and k-of-n reconstruction against the checkpoint root.

The differential property under test: a leaf set reconstructed from *any*
k of the n erasure-coded chunks hashes back to exactly the committed
checkpoint root — and every corruption (tampered chunk, garbled blob,
mixed-up commitment) surfaces as a structured
:class:`~repro.da.errors.DaReconstructionMismatch`, never as silent
acceptance.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

from repro.da import (
    DA_COMMITMENT_BYTES,
    DaCommitment,
    DaParams,
    DaReconstructionMismatch,
    DaUnreconstructed,
    build_da_bundle,
    make_namespace,
    reconstruct_records,
    records_blob,
    records_from_blob,
    rs_code,
)
from repro.rollup import RoundRecord, build_checkpoint
from repro.storage import gf256


def synthetic_records(epoch: int, count: int) -> tuple[RoundRecord, ...]:
    """Deterministic record set: no crypto, real wire encodings."""
    records = []
    for i in range(count):
        accepted = i % 3 != 0
        records.append(
            RoundRecord(
                name=1000 + i,
                epoch=epoch,
                challenge_bytes=bytes([i]) * 48,
                proof_bytes=bytes([0x70 + i]) * 32 if accepted else b"",
                verdict=accepted,
                reject_code="" if accepted else "no-proof",
            )
        )
    return tuple(records)


def synthetic_bundle(epoch: int = 4, count: int = 5):
    return build_checkpoint(epoch, synthetic_records(epoch, count))


PARAMS = DaParams(n=12, k=4)


# --------------------------------------------------------------------- #
# Wire formats                                                          #
# --------------------------------------------------------------------- #

def test_da_params_validation():
    DaParams(n=2, k=1)
    DaParams(n=255, k=254)
    for n, k in [(1, 1), (4, 4), (4, 5), (256, 16), (0, 0)]:
        with pytest.raises(ValueError, match="1 <= k < n <= 255"):
            DaParams(n=n, k=k)


def test_rs_code_is_cached_per_params():
    assert rs_code(PARAMS) is rs_code(DaParams(n=12, k=4))
    assert rs_code(PARAMS) is not rs_code(DaParams(n=12, k=5))


def test_commitment_wire_roundtrip():
    bundle = build_da_bundle(3, 4, synthetic_bundle(epoch=4), PARAMS)
    commitment = bundle.commitment
    encoded = commitment.to_bytes()
    assert len(encoded) == DA_COMMITMENT_BYTES == commitment.byte_size()
    assert DaCommitment.from_bytes(encoded) == commitment
    assert commitment.namespace == make_namespace(3, 4)
    assert commitment.params == PARAMS


def test_commitment_wire_rejects_garbage():
    bundle = build_da_bundle(0, 4, synthetic_bundle(epoch=4), PARAMS)
    encoded = bundle.commitment.to_bytes()
    with pytest.raises(ValueError, match="must be .* bytes"):
        DaCommitment.from_bytes(encoded[:-1])
    with pytest.raises(ValueError, match="unknown DA commitment version"):
        DaCommitment.from_bytes(b"\x7f" + encoded[1:])


def test_records_blob_roundtrip():
    records = synthetic_records(2, 7)
    blob = records_blob(records)
    assert records_from_blob(blob) == records
    # Empty record sets frame and parse (build_da_bundle never emits one,
    # but the codec itself is total).
    assert records_from_blob(records_blob(())) == ()


def test_records_blob_strictness():
    blob = records_blob(synthetic_records(2, 3))
    with pytest.raises(ValueError, match="trailing bytes"):
        records_from_blob(blob + b"\x00")
    with pytest.raises(ValueError, match="truncated DA blob"):
        records_from_blob(blob[:-1])
    with pytest.raises(ValueError, match="too short"):
        records_from_blob(b"\x00")


# --------------------------------------------------------------------- #
# Bundle building                                                       #
# --------------------------------------------------------------------- #

def test_build_da_bundle_shape():
    checkpoint_bundle = synthetic_bundle(epoch=9, count=6)
    bundle = build_da_bundle(2, 9, checkpoint_bundle, PARAMS)
    assert len(bundle.chunks) == PARAMS.n
    assert all(len(c) == bundle.commitment.chunk_bytes for c in bundle.chunks)
    assert bundle.commitment.checkpoint_root == checkpoint_bundle.checkpoint.root
    assert bundle.commitment.root == bundle.tree.root
    assert bundle.available_indices() == tuple(range(PARAMS.n))
    assert bundle.chunk_payload_bytes() == sum(len(c) for c in bundle.chunks)


def test_one_record_encoding_per_epoch(monkeypatch):
    """Checkpoint and DA bundle share one encoding of each record, and the
    rebuild hashes, and backs a counts challenge with, the blob's record
    bytes without encoding again."""
    encode = RoundRecord.to_bytes
    encoded = []
    monkeypatch.setattr(
        RoundRecord, "to_bytes", lambda record: encoded.append(record.name) or encode(record)
    )
    records = synthetic_records(9, 6)
    checkpoint_bundle = build_checkpoint(9, records)
    bundle = build_da_bundle(2, 9, checkpoint_bundle, PARAMS)
    assert sorted(encoded) == sorted(record.name for record in records)
    encoded.clear()
    rebuilt = reconstruct_records(
        bundle.commitment, {i: bundle.chunks[i] for i in range(PARAMS.k)}
    )
    assert rebuilt.verified and rebuilt.records == checkpoint_bundle.records
    assert rebuilt.counts_challenge_leaves() == tuple(checkpoint_bundle.tree.leaves)
    assert encoded == []


def _kat_records() -> tuple[RoundRecord, ...]:
    rng = random.Random(60)
    records = []
    for i in range(6):
        accepted = i % 3 != 2
        records.append(
            RoundRecord(
                name=rng.getrandbits(254),
                epoch=9,
                challenge_bytes=rng.randbytes(48),
                proof_bytes=rng.randbytes(288) if accepted else b"",
                verdict=accepted,
                reject_code="" if accepted else "no-proof",
            )
        )
    return tuple(records)


_NS = "00000000000000030000000000000009"


@pytest.mark.parametrize("backend", ["numpy", "chosen"])
def test_da_commit_path_known_answers(backend, monkeypatch):
    """Pinned bytes for a fixed epoch on either GF(256) backend: the
    checkpoint root, the DA commitment (which carries the NMT root) and
    one NMT proof's sibling triples."""
    monkeypatch.setattr(
        gf256,
        "_backend",
        gf256.Backend("numpy", gf256._matmul_numpy)
        if backend == "numpy"
        else gf256.backend(),
    )
    checkpoint_bundle = build_checkpoint(9, _kat_records())
    bundle = build_da_bundle(3, 9, checkpoint_bundle, DaParams(n=12, k=4))
    assert checkpoint_bundle.checkpoint.root.hex() == (
        "cac50c9528615402c619bd3923ac8c29242820c3065ffc3f0acbed9be3ea9b18"
    )
    assert bundle.commitment.to_bytes().hex() == (
        "01" "0000000000000003" "0000000000000009" "0c04" "000001bc"
        "cac50c9528615402c619bd3923ac8c29242820c3065ffc3f0acbed9be3ea9b18"
        + _NS + "ff" * 16
        + "88a355f2754b13def98469e016314bfdadd8e0eb1a94c14cee725e9bb7167dac"
    )
    assert [
        tuple(part.hex() for part in sibling)
        for sibling in bundle.tree.prove(5).siblings
    ] == [
        (_NS, _NS, "5be35184014aa0c0ee125f7b64b99545a54ece6f19ffed6a15752818894a5280"),
        (_NS, _NS, "f6cb52eb35daee5be5968a7cef3aaef898bc9e542c25f9ec2ae43b3936dd31cc"),
        (_NS, _NS, "58c6df9f431e2bcd16fd78f7f02f05dd229f07481ef4e061d37855491a22d0f6"),
        (_NS, "ff" * 16, "0a4243513a510acf2bf8ccb521addf0f0aa8b65b2c4664d5f64a45561a16ed38"),
    ]
    rebuilt = reconstruct_records(
        bundle.commitment, {i: bundle.chunks[i] for i in (11, 7, 5, 2)}
    )
    assert rebuilt.verified and rebuilt.records == checkpoint_bundle.records


def test_build_da_bundle_epoch_mismatch():
    with pytest.raises(ValueError, match="does not belong"):
        build_da_bundle(0, 5, synthetic_bundle(epoch=4), PARAMS)


def test_withholding_mode():
    bundle = build_da_bundle(0, 4, synthetic_bundle(epoch=4), PARAMS)
    bundle.withhold([0, 3])
    assert bundle.chunk_with_proof(0) is None
    assert bundle.chunk_with_proof(1) is not None
    assert 0 not in bundle.available_indices()
    with pytest.raises(IndexError):
        bundle.chunk_with_proof(PARAMS.n)
    with pytest.raises(IndexError):
        bundle.withhold([PARAMS.n])


# --------------------------------------------------------------------- #
# Reconstruction (the differential test)                                #
# --------------------------------------------------------------------- #

def test_any_k_subset_rebuilds_the_committed_root():
    checkpoint_bundle = synthetic_bundle(epoch=4, count=5)
    bundle = build_da_bundle(1, 4, checkpoint_bundle, PARAMS)
    rng = random.Random(0xDA)
    subsets = list(itertools.combinations(range(PARAMS.n), PARAMS.k))
    rng.shuffle(subsets)
    for subset in subsets[:20]:  # 20 random k-subsets of the 495
        chunks = {i: bundle.chunks[i] for i in subset}
        reconstruction = reconstruct_records(bundle.commitment, chunks)
        assert reconstruction.verified
        assert reconstruction.records == checkpoint_bundle.records
        assert reconstruction.chunks_used == PARAMS.k
        # The differential: reconstructed leaves re-derive the exact
        # 85-byte checkpoint the chain settled.
        rebuilt = build_checkpoint(4, reconstruction.records)
        assert rebuilt.checkpoint == checkpoint_bundle.checkpoint
        assert (
            reconstruction.counts_challenge_leaves()
            == tuple(r.to_bytes() for r in checkpoint_bundle.records)
        )


def test_extra_chunks_beyond_k_still_decode():
    bundle = build_da_bundle(1, 4, synthetic_bundle(epoch=4), PARAMS)
    chunks = {i: bundle.chunks[i] for i in range(PARAMS.k + 3)}
    reconstruction = reconstruct_records(bundle.commitment, chunks)
    assert reconstruction.verified
    assert reconstruction.chunks_used == PARAMS.k + 3


def test_tampered_chunk_fails_the_root_check():
    bundle = build_da_bundle(1, 4, synthetic_bundle(epoch=4), PARAMS)
    chunks = {i: bundle.chunks[i] for i in range(PARAMS.k)}
    corrupted = bytearray(chunks[0])
    corrupted[-1] ^= 0xFF
    chunks[0] = bytes(corrupted)
    with pytest.raises(DaReconstructionMismatch):
        reconstruct_records(bundle.commitment, chunks)


def test_chunks_from_the_wrong_epoch_fail():
    bundle_a = build_da_bundle(0, 4, synthetic_bundle(epoch=4, count=5), PARAMS)
    bundle_b = build_da_bundle(0, 5, synthetic_bundle(epoch=5, count=5), PARAMS)
    chunks = {i: bundle_b.chunks[i] for i in range(PARAMS.k)}
    with pytest.raises(DaReconstructionMismatch):
        reconstruct_records(bundle_a.commitment, chunks)


def test_chunk_size_mismatch_is_structured():
    bundle = build_da_bundle(0, 4, synthetic_bundle(epoch=4), PARAMS)
    chunks = {i: bundle.chunks[i] for i in range(PARAMS.k)}
    chunks[1] = chunks[1] + b"\x00"
    with pytest.raises(DaReconstructionMismatch, match="commitment says"):
        reconstruct_records(bundle.commitment, chunks)


def test_chunk_index_out_of_range():
    bundle = build_da_bundle(0, 4, synthetic_bundle(epoch=4), PARAMS)
    chunks = {PARAMS.n: bundle.chunks[0]}
    with pytest.raises(ValueError, match="out of range"):
        reconstruct_records(bundle.commitment, chunks)


def test_too_few_chunks_propagates_decoder_error():
    bundle = build_da_bundle(0, 4, synthetic_bundle(epoch=4), PARAMS)
    chunks = {i: bundle.chunks[i] for i in range(PARAMS.k - 1)}
    with pytest.raises(DaReconstructionMismatch, match="record blob"):
        reconstruct_records(bundle.commitment, chunks)


def test_unverified_reconstruction_refuses_to_back_a_challenge():
    bundle = build_da_bundle(0, 4, synthetic_bundle(epoch=4), PARAMS)
    honest = reconstruct_records(
        bundle.commitment, {i: bundle.chunks[i] for i in range(PARAMS.k)}
    )
    shaky = dataclasses.replace(honest, verified=False)
    with pytest.raises(DaUnreconstructed, match="unverified"):
        shaky.counts_challenge_leaves()
