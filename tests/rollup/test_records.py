"""Canonical round records and checkpoint commitments: wire-format law."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.gas import CHECKPOINT_COMMITMENT_BYTES as GAS_COMMITMENT_BYTES
from repro.rollup import (
    CHECKPOINT_COMMITMENT_BYTES,
    Checkpoint,
    RoundRecord,
    WITHHELD_CODE,
    aggregated_proof_digest,
    build_checkpoint,
)


def _record(name=7, epoch=3, verdict=True, code="", proof=b"\xab" * 288):
    return RoundRecord(
        name=name,
        epoch=epoch,
        challenge_bytes=b"\x11" * 48,
        proof_bytes=proof,
        verdict=verdict,
        reject_code=code,
    )


@st.composite
def drawn_records(draw):
    verdict = draw(st.booleans())
    return RoundRecord(
        name=draw(st.integers(0, 2**256 - 1)),
        epoch=draw(st.integers(0, 2**64 - 1)),
        challenge_bytes=draw(st.binary(max_size=64)),
        proof_bytes=draw(st.binary(max_size=300)),
        verdict=verdict,
        reject_code="" if verdict else draw(
            st.text(st.characters(codec="utf-8"), min_size=1, max_size=20)
        ),
    )


class TestCanonicalCodec:
    """Every encoding the decoder accepts is the one ``to_bytes`` makes, so
    the DA reconstruction may hash a blob's record bytes as they stand."""

    @settings(max_examples=150, deadline=None)
    @given(record=drawn_records())
    def test_decode_inverts_encode(self, record):
        assert RoundRecord.from_bytes(record.to_bytes()) == record

    @settings(max_examples=400, deadline=None)
    @given(record=drawn_records(), data=st.data())
    def test_every_accepted_mutation_reencodes_to_itself(self, record, data):
        encoded = bytearray(record.to_bytes())
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            edit = data.draw(st.sampled_from(("flip", "insert", "delete")))
            if edit == "insert":
                at = data.draw(st.integers(0, len(encoded)))
                encoded[at:at] = data.draw(st.binary(min_size=1, max_size=3))
            elif encoded:
                at = data.draw(st.integers(0, len(encoded) - 1))
                if edit == "flip":
                    encoded[at] ^= data.draw(st.integers(1, 255))
                else:
                    del encoded[at]
        try:
            decoded = RoundRecord.from_bytes(bytes(encoded))
        except ValueError:
            return
        assert decoded.to_bytes() == bytes(encoded)


class TestRoundRecord:
    def test_roundtrip(self):
        record = _record()
        assert RoundRecord.from_bytes(record.to_bytes()) == record

    def test_rejected_roundtrip_keeps_code(self):
        record = _record(verdict=False, code="pairing-mismatch")
        decoded = RoundRecord.from_bytes(record.to_bytes())
        assert decoded.reject_code == "pairing-mismatch"
        assert not decoded.verdict

    def test_withheld_record_has_empty_proof(self):
        record = _record(verdict=False, code=WITHHELD_CODE, proof=b"")
        decoded = RoundRecord.from_bytes(record.to_bytes())
        assert decoded.withheld
        assert decoded.proof_bytes == b""

    def test_verdict_and_code_must_agree(self):
        with pytest.raises(ValueError):
            _record(verdict=True, code="pairing-mismatch")
        with pytest.raises(ValueError):
            _record(verdict=False, code="")

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b[:-1],                       # truncated
            lambda b: b + b"\x00",                  # trailing bytes
            lambda b: bytes([0x7F]) + b[1:],        # bad version
            lambda b: b[:41] + bytes([9]) + b[42:], # bad verdict byte
        ],
    )
    def test_malformed_bytes_rejected(self, mutate):
        encoded = _record().to_bytes()
        with pytest.raises(ValueError):
            RoundRecord.from_bytes(mutate(encoded))

    def test_flipped_inverts_verdict_both_ways(self):
        accepted = _record()
        flipped = accepted.flipped()
        assert not flipped.verdict and flipped.reject_code
        assert flipped.flipped().verdict
        # Everything except the verdict fields is preserved.
        assert flipped.proof_bytes == accepted.proof_bytes
        assert flipped.challenge_bytes == accepted.challenge_bytes


class TestCheckpoint:
    def test_commitment_roundtrip_and_size(self):
        bundle = build_checkpoint(
            3, tuple(_record(name=n, epoch=3) for n in (5, 2, 9))
        )
        encoded = bundle.checkpoint.to_bytes()
        assert len(encoded) == CHECKPOINT_COMMITMENT_BYTES
        assert Checkpoint.from_bytes(encoded) == bundle.checkpoint

    def test_gas_constant_matches_rollup_constant(self):
        # chain.gas keeps its own copy to stay import-free of the rollup
        # layer; the two must never drift.
        assert GAS_COMMITMENT_BYTES == CHECKPOINT_COMMITMENT_BYTES

    def test_records_sorted_by_name(self):
        bundle = build_checkpoint(
            1, tuple(_record(name=n, epoch=1) for n in (30, 10, 20))
        )
        assert [r.name for r in bundle.records] == [10, 20, 30]

    def test_root_independent_of_input_order(self):
        records = tuple(_record(name=n, epoch=0) for n in (4, 1, 3))
        forward = build_checkpoint(0, records)
        backward = build_checkpoint(0, tuple(reversed(records)))
        assert forward.checkpoint == backward.checkpoint

    def test_counts_and_digest(self):
        records = (
            _record(name=1, epoch=0),
            _record(name=2, epoch=0, verdict=False, code="no-proof", proof=b""),
        )
        bundle = build_checkpoint(0, records)
        assert bundle.checkpoint.accepted == 1
        assert bundle.checkpoint.rejected == 1
        assert bundle.checkpoint.proof_digest == aggregated_proof_digest(
            bundle.records
        )
        assert bundle.rejected_names() == (2,)
        assert bundle.accepted_names() == (1,)

    def test_empty_and_duplicate_and_foreign_epoch_rejected(self):
        with pytest.raises(ValueError):
            build_checkpoint(0, ())
        with pytest.raises(ValueError):
            build_checkpoint(0, (_record(name=1, epoch=0), _record(name=1, epoch=0)))
        with pytest.raises(ValueError):
            build_checkpoint(0, (_record(name=1, epoch=5),))

    def test_inclusion_proofs_open_the_root(self):
        bundle = build_checkpoint(
            2, tuple(_record(name=n, epoch=2) for n in range(8))
        )
        for name in range(8):
            assert bundle.verify_inclusion(bundle.prove(name))
        with pytest.raises(KeyError):
            bundle.prove(99)
