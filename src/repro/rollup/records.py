"""Canonical round records: the leaves of the epoch verdict tree.

One :class:`RoundRecord` is the full outcome of one (file, epoch) audit —
which challenge was answered, with which proof bytes, and what the
verifier decided — serialized into a *canonical* byte string so that

* two honest aggregators observing the same epoch commit to the identical
  Merkle root (the tree is built over sorted, versioned encodings), and
* a fraud-proof arbiter can re-derive everything it needs to re-run the
  verdict from the leaf bytes alone (plus the on-chain instance registry
  and the beacon).

The encoding is deliberately self-delimiting and versioned::

    version   (1 byte, 0x01)
    name      (32 bytes, big-endian Zp file identifier)
    epoch     (8 bytes, big-endian)
    verdict   (1 byte: 0x01 accepted, 0x00 rejected)
    code_len  (1 byte) || reject code (utf-8; empty when accepted)
    chal_len  (2 bytes, big-endian) || challenge bytes (48 at lambda=128)
    proof_len (2 bytes, big-endian) || proof bytes (288, or empty when the
              response was withheld)

Nothing here is secret — records contain exactly what the per-round path
would have posted on chain, the rollup just keeps them off chain behind a
32-byte commitment.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.verifier import NO_PROOF, PAIRING_MISMATCH

RECORD_VERSION = 0x01

#: Reject code recorded when a provider never answered (the per-round
#: contract's timeout code).
WITHHELD_CODE = NO_PROOF


@dataclass(frozen=True)
class RoundRecord:
    """One (file, epoch) audit outcome in canonical wire form."""

    name: int
    epoch: int
    challenge_bytes: bytes
    proof_bytes: bytes          # b"" when the response was withheld
    verdict: bool
    reject_code: str = ""       # empty iff verdict is True

    def __post_init__(self) -> None:
        if self.verdict and self.reject_code:
            raise ValueError("accepted records carry no reject code")
        if not self.verdict and not self.reject_code:
            raise ValueError("rejected records must name a reject code")
        if len(self.challenge_bytes) > 0xFFFF or len(self.proof_bytes) > 0xFFFF:
            raise ValueError("challenge/proof too large for the encoding")

    def to_bytes(self) -> bytes:
        code = self.reject_code.encode("utf-8")
        if len(code) > 0xFF:
            raise ValueError("reject code too long")
        return b"".join(
            (
                bytes([RECORD_VERSION]),
                self.name.to_bytes(32, "big"),
                self.epoch.to_bytes(8, "big"),
                bytes([1 if self.verdict else 0]),
                bytes([len(code)]),
                code,
                len(self.challenge_bytes).to_bytes(2, "big"),
                self.challenge_bytes,
                len(self.proof_bytes).to_bytes(2, "big"),
                self.proof_bytes,
            )
        )

    @staticmethod
    def from_bytes(data: bytes) -> "RoundRecord":
        if len(data) < 45:
            raise ValueError("round record too short")
        if data[0] != RECORD_VERSION:
            raise ValueError(f"unknown round-record version {data[0]:#x}")
        offset = 1
        name = int.from_bytes(data[offset : offset + 32], "big")
        offset += 32
        epoch = int.from_bytes(data[offset : offset + 8], "big")
        offset += 8
        verdict_byte = data[offset]
        if verdict_byte not in (0, 1):
            raise ValueError(f"bad verdict byte {verdict_byte:#x}")
        verdict = bool(verdict_byte)
        offset += 1
        code_len = data[offset]
        offset += 1
        code = data[offset : offset + code_len]
        if len(code) != code_len:
            raise ValueError("truncated reject code")
        offset += code_len
        chal_len = int.from_bytes(data[offset : offset + 2], "big")
        offset += 2
        challenge = data[offset : offset + chal_len]
        if len(challenge) != chal_len:
            raise ValueError("truncated challenge bytes")
        offset += chal_len
        proof_len = int.from_bytes(data[offset : offset + 2], "big")
        offset += 2
        proof = data[offset : offset + proof_len]
        if len(proof) != proof_len:
            raise ValueError("truncated proof bytes")
        offset += proof_len
        if offset != len(data):
            raise ValueError("trailing bytes after round record")
        return RoundRecord(
            name=name,
            epoch=epoch,
            challenge_bytes=bytes(challenge),
            proof_bytes=bytes(proof),
            verdict=verdict,
            reject_code=code.decode("utf-8"),
        )

    @property
    def withheld(self) -> bool:
        return not self.proof_bytes

    def flipped(self) -> "RoundRecord":
        """The verdict-forgery an adversarial aggregator would commit.

        Test/demo helper: the same round bytes with the verdict inverted
        (and the reject code adjusted to stay structurally valid) — exactly
        what the fraud proof must catch.
        """
        if self.verdict:
            return RoundRecord(
                name=self.name,
                epoch=self.epoch,
                challenge_bytes=self.challenge_bytes,
                proof_bytes=self.proof_bytes,
                verdict=False,
                reject_code=PAIRING_MISMATCH,
            )
        return RoundRecord(
            name=self.name,
            epoch=self.epoch,
            challenge_bytes=self.challenge_bytes,
            proof_bytes=self.proof_bytes,
            verdict=True,
            reject_code="",
        )


def records_from_epoch(result) -> tuple[RoundRecord, ...]:
    """Derive the canonical record set from one engine epoch.

    ``result`` is an :class:`~repro.engine.scheduler.EpochResult` (taken
    duck-typed so this module stays import-free of the engine layer):
    answered files pull their verdicts from the grouped batch check —
    rejected names are the outcome's ``failures``, already localized when
    the check returned, so each carries its structured
    :class:`~repro.core.verifier.RejectionReason` code — and withheld
    files are recorded as ``no-proof`` rejections with empty proof bytes.

    Records are sorted by file name, making the Merkle root a pure
    function of the epoch's outcome set.
    """
    reject_codes = {
        rejection.name: rejection.reason.code
        for rejection in result.batch_ok.failures
    }
    records = []
    for outcome in result.outcomes:
        code = reject_codes.get(outcome.name, "")
        records.append(
            RoundRecord(
                name=outcome.name,
                epoch=result.epoch,
                challenge_bytes=result.challenges[outcome.name].to_bytes(),
                proof_bytes=outcome.proof_bytes,
                verdict=not code,
                reject_code=code,
            )
        )
    for name in result.withheld:
        records.append(
            RoundRecord(
                name=name,
                epoch=result.epoch,
                challenge_bytes=result.challenges[name].to_bytes(),
                proof_bytes=b"",
                verdict=False,
                reject_code=WITHHELD_CODE,
            )
        )
    return tuple(sorted(records, key=lambda record: record.name))
