"""Pseudo-random function and permutation (paper Definition 2).

The smart contract publishes only 48 bytes of randomness per challenge
(``C1``, ``C2``, ``r``); the storage provider and verifier expand it
deterministically:

* ``pi : {0,1}^lambda x {0,1}^log n -> {0,1}^k`` — a small-domain PRP keyed
  by ``C1`` selecting ``k`` *distinct* chunk indices.  Implemented as a
  4-round Feistel network with cycle-walking, so it is a true permutation of
  ``[0, domain)`` for any domain size.
* ``f : {0,1}^lambda -> Zp^k`` — an HMAC-SHA256 PRF keyed by ``C2`` deriving
  the challenge coefficients ``c_i``.

:meth:`FeistelPrp.sample_indices` and :meth:`Prf.scalars` run in the native
BN254 kernel (:mod:`.bn254.kernel`) when it is in use: one call walks every
cycle, or derives every wide digest, with the key's HMAC midstates computed
once.  :meth:`FeistelPrp._sample_indices_ref` and :meth:`Prf._scalars_ref`
are their references and return the same values.
"""

from __future__ import annotations

import hashlib
import hmac

from .bn254.constants import CURVE_ORDER as R
from .bn254.kernel import active


class Prf:
    """HMAC-SHA256 based PRF into Zr."""

    def __init__(self, key: bytes):
        self.key = key

    def scalar(self, index: int) -> int:
        """c_index in Zr (wide reduction keeps bias below 2^-250)."""
        raw = hmac.new(self.key, index.to_bytes(8, "big") + b"\x00", hashlib.sha256)
        wide = raw.digest() + hmac.new(
            self.key, index.to_bytes(8, "big") + b"\x01", hashlib.sha256
        ).digest()
        return int.from_bytes(wide, "big") % R

    def scalars(self, count: int) -> list[int]:
        """c_0 .. c_{count-1}: the kernel's wide digests reduced here, or
        :meth:`_scalars_ref`."""
        kernel = active()
        if kernel is not None:
            return [
                int.from_bytes(wide, "big") % R
                for wide in kernel.prf_wide(self.key, max(count, 0))
            ]
        return self._scalars_ref(count)

    def _scalars_ref(self, count: int) -> list[int]:
        return [self.scalar(index) for index in range(count)]


class FeistelPrp:
    """Keyed permutation of ``[0, domain)`` via Feistel + cycle-walking.

    The Feistel network permutes ``[0, 2^(2*half_bits))``; indices that land
    outside ``[0, domain)`` are re-encrypted until they fall inside
    (cycle-walking), which preserves the permutation property exactly.
    """

    ROUNDS = 4

    def __init__(self, key: bytes, domain: int):
        if domain < 1:
            raise ValueError("domain must be positive")
        self.key = key
        self.domain = domain
        self.half_bits = max(1, (domain - 1).bit_length() + 1) // 2 + 1
        self.half_mask = (1 << self.half_bits) - 1
        self.width = 1 << (2 * self.half_bits)

    def _round(self, round_index: int, value: int) -> int:
        message = round_index.to_bytes(1, "big") + value.to_bytes(8, "big")
        digest = hmac.new(self.key, message, hashlib.sha256).digest()
        return int.from_bytes(digest[:8], "big") & self.half_mask

    def _feistel(self, value: int) -> int:
        left = value >> self.half_bits
        right = value & self.half_mask
        for round_index in range(self.ROUNDS):
            left, right = right, left ^ self._round(round_index, right)
        return (left << self.half_bits) | right

    def permute(self, index: int) -> int:
        """Image of ``index`` under the permutation of [0, domain)."""
        if not 0 <= index < self.domain:
            raise ValueError(f"index {index} outside domain [0, {self.domain})")
        value = index
        while True:
            value = self._feistel(value)
            if value < self.domain:
                return value

    def sample_indices(self, count: int) -> list[int]:
        """The first ``count`` images: k distinct indices in [0, domain).

        The kernel walks them when it is in use and every Feistel value
        fits 64 bits (any domain up to 2^62), else :meth:`_sample_indices_ref`."""
        kernel = active()
        if kernel is not None and self.half_bits <= 32:
            return kernel.prp_sample(
                self.key, self.domain, self.half_bits, max(min(count, self.domain), 0)
            )
        return self._sample_indices_ref(count)

    def _sample_indices_ref(self, count: int) -> list[int]:
        count = min(count, self.domain)
        return [self.permute(i) for i in range(count)]
