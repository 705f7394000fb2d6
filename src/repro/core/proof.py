"""Audit proof objects and their on-chain byte encodings.

Two proof shapes, matching the two lines of the paper's Fig. 5:

* :class:`PlainProof` — the non-private response ``(sigma, y, psi)``:
  96 bytes (2 compressed G1 + 1 Zp scalar).  Verified with paper Eq. (1).
  **Leaks data**: Section V-C shows y = P_k(r) enables interpolation attacks.
* :class:`PrivateProof` — the Sigma-masked response
  ``(sigma, y', psi, R)``: 288 bytes (2 G1 + 1 Zp + 1 torus-compressed GT).
  Verified with paper Eq. (2).  This is the paper's headline proof size.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.bn254 import (
    FP_BYTES,
    G1_COMPRESSED_BYTES,
    GT_COMPRESSED_BYTES,
    G1Point,
    g1_from_bytes,
    g1_to_bytes,
    gt_from_bytes,
    gt_to_bytes,
)
from ..crypto.bn254.constants import CURVE_ORDER as R
from ..crypto.bn254.fields import Fp12

PLAIN_PROOF_BYTES = 2 * G1_COMPRESSED_BYTES + FP_BYTES            # 96
PRIVATE_PROOF_BYTES = PLAIN_PROOF_BYTES + GT_COMPRESSED_BYTES     # 288


@dataclass(frozen=True)
class PlainProof:
    """(sigma, y, psi) — paper Section V-B without the privacy layer."""

    sigma: G1Point
    y: int
    psi: G1Point

    def to_bytes(self) -> bytes:
        return (
            g1_to_bytes(self.sigma)
            + (self.y % R).to_bytes(FP_BYTES, "big")
            + g1_to_bytes(self.psi)
        )

    @staticmethod
    def from_bytes(data: bytes) -> "PlainProof":
        if len(data) != PLAIN_PROOF_BYTES:
            raise ValueError(f"plain proof must be {PLAIN_PROOF_BYTES} bytes")
        sigma = g1_from_bytes(data[:G1_COMPRESSED_BYTES])
        y = int.from_bytes(data[G1_COMPRESSED_BYTES : G1_COMPRESSED_BYTES + FP_BYTES], "big")
        if y >= R:
            raise ValueError("y not canonical")
        psi = g1_from_bytes(data[G1_COMPRESSED_BYTES + FP_BYTES :])
        return PlainProof(sigma=sigma, y=y, psi=psi)

    def byte_size(self) -> int:
        return PLAIN_PROOF_BYTES


@dataclass(frozen=True)
class PrivateProof:
    """(sigma, y', psi, R) — paper Section V-D, the 288-byte on-chain proof."""

    sigma: G1Point
    y_masked: int
    psi: G1Point
    commitment: Fp12  # R = e(g1, epsilon)^z

    def to_bytes(self) -> bytes:
        # One shared inversion normalises sigma and psi; g1_to_bytes then
        # reads the memoised affine pairs.
        G1Point.to_affine_batch(
            [point for point in (self.sigma, self.psi) if not point.is_infinity()]
        )
        return (
            g1_to_bytes(self.sigma)
            + (self.y_masked % R).to_bytes(FP_BYTES, "big")
            + g1_to_bytes(self.psi)
            + gt_to_bytes(self.commitment)
        )

    @staticmethod
    def from_bytes(data: bytes) -> "PrivateProof":
        if len(data) != PRIVATE_PROOF_BYTES:
            raise ValueError(f"private proof must be {PRIVATE_PROOF_BYTES} bytes")
        sigma = g1_from_bytes(data[:G1_COMPRESSED_BYTES])
        offset = G1_COMPRESSED_BYTES
        y_masked = int.from_bytes(data[offset : offset + FP_BYTES], "big")
        if y_masked >= R:
            raise ValueError("y' not canonical")
        offset += FP_BYTES
        psi = g1_from_bytes(data[offset : offset + G1_COMPRESSED_BYTES])
        offset += G1_COMPRESSED_BYTES
        commitment = gt_from_bytes(data[offset:])
        return PrivateProof(
            sigma=sigma, y_masked=y_masked, psi=psi, commitment=commitment
        )

    def byte_size(self) -> int:
        return PRIVATE_PROOF_BYTES
