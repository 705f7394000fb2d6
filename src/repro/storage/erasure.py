"""Systematic Reed-Solomon erasure coding (paper Section III-A).

"Erasure coding (parity blocks) is also required for data redundancy" — the
data owner splits a file into ``k`` data shards and ``n - k`` parity shards
such that *any* ``k`` of the ``n`` survive a loss of the rest.  The paper's
cost discussion uses a "3-out-of-10" code (k=3, n=10); the same class
covers any (n, k).

Construction: an n x k Vandermonde matrix over GF(256) is multiplied by the
inverse of its top k x k block, so that block becomes the identity
(systematic form).  The data shards are the padded input itself, so encoding
computes only the n - k parity rows, one matrix-vector product per byte
column.  Decoding computes only the data rows it lacks: with S the chosen
systematic rows, P the chosen parity rows and M the missing data rows,
d_M = G[P,M]^-1 * (y_P + G[P,S] * d_S), one |M| x |M| inversion and one
|M|-row product over the chosen shards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.hotpath import profiled
from .gf256 import gf_matmul, gf_matrix_invert, gf_pow


#: Bytes of the big-endian length header :meth:`ReedSolomonCode.encode_framed`
#: prepends, making framed shard sets self-describing on the wire.
FRAME_HEADER_BYTES = 8


def _systematic_matrix(n: int, k: int) -> np.ndarray:
    """n x k generator matrix whose top k rows are the identity."""
    vandermonde = [[gf_pow(row, col) for col in range(k)] for row in range(1, n + 1)]
    return gf_matmul(vandermonde, gf_matrix_invert(vandermonde[:k]))


@dataclass(frozen=True)
class Shard:
    """One erasure-coded piece of a file."""

    index: int
    data: bytes


class ReedSolomonCode:
    """A systematic RS(n, k) code over GF(256).

    ``encode`` returns n shards; ``decode`` reconstructs the original bytes
    from any k of them (by index).  Tolerates up to ``n - k`` erasures —
    the redundancy level the data owner tunes per Section III-A.
    """

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n <= 255:
            raise ValueError("need 1 <= k <= n <= 255 for GF(256) RS codes")
        self.n = n
        self.k = k
        self.matrix = _systematic_matrix(n, k)

    @property
    def redundancy_factor(self) -> float:
        """Storage blow-up: n/k (e.g. 10/3 = 3.33x for the paper's code)."""
        return self.n / self.k

    def shard_length(self, data_length: int) -> int:
        return (data_length + self.k - 1) // self.k

    @profiled("gf256.encode")
    def encode(self, data: bytes) -> list[Shard]:
        if not data:
            raise ValueError("cannot encode empty data")
        length = self.shard_length(len(data))
        padded = data.ljust(self.k * length, b"\x00")
        stack = np.frombuffer(padded, dtype=np.uint8).reshape(self.k, length)
        parity = gf_matmul(self.matrix[self.k :], stack)
        return [
            Shard(index=i, data=padded[i * length : (i + 1) * length])
            for i in range(self.k)
        ] + [Shard(index=self.k + i, data=row.tobytes()) for i, row in enumerate(parity)]

    @profiled("gf256.decode")
    def decode(self, shards: list[Shard], data_length: int) -> bytes:
        """Reconstruct from any >= k distinct shards; the first k by index
        decide the output."""
        unique: dict[int, Shard] = {}
        for shard in shards:
            if not 0 <= shard.index < self.n:
                raise ValueError(f"shard index {shard.index} out of range")
            unique.setdefault(shard.index, shard)
        if len(unique) < self.k:
            raise ValueError(
                f"need at least {self.k} shards to decode, got {len(unique)}"
            )
        chosen = sorted(unique.values(), key=lambda s: s.index)[: self.k]
        lengths = {len(s.data) for s in chosen}
        if len(lengths) != 1:
            raise ValueError("inconsistent shard lengths")
        (length,) = lengths
        if data_length > self.k * length:
            raise ValueError(
                f"data_length {data_length} exceeds the {self.k * length} bytes "
                f"that {self.k} shards of {length} B hold"
            )
        # The first k distinct shards decide the output, as a full inversion
        # of their rows would: that square system has one solution, so the
        # result is the same bytes for every input, codeword or not.
        stack = np.stack(
            [np.frombuffer(s.data, dtype=np.uint8) for s in chosen]
        )
        known = [s.index for s in chosen if s.index < self.k]
        solved = [s.index for s in chosen[len(known) :]]
        missing = sorted(set(range(self.k)).difference(known))
        data = np.empty((self.k, length), dtype=np.uint8)
        data[known] = stack[: len(known)]
        if missing:
            # y_P = G[P,S] d_S + G[P,M] d_M, and the stack is [d_S; y_P].
            inverse = gf_matrix_invert(self.matrix[np.ix_(solved, missing)])
            through_known = gf_matmul(inverse, self.matrix[np.ix_(solved, known)])
            data[missing] = gf_matmul(
                np.concatenate([through_known, inverse], axis=1), stack
            )
        return data.tobytes()[:data_length]

    def encode_framed(self, data: bytes) -> list[Shard]:
        """Encode with a self-describing length header.

        ``decode`` needs the caller to remember ``data_length`` — fine when
        encoder and decoder share state, unsafe when shards travel (DA
        chunks served over RPC carry no side channel).  Framing prepends an
        8-byte big-endian length so any ``k`` shards alone reconstruct the
        exact original bytes, including the empty payload the bare encoder
        rejects (the frame itself is never empty).
        """
        return self.encode(len(data).to_bytes(FRAME_HEADER_BYTES, "big") + data)

    def decode_framed(self, shards: list[Shard]) -> bytes:
        """Reconstruct framed data from any >= k shards, no length needed."""
        length = self.shard_length_framed(shards)
        raw = self.decode(shards, self.k * length)
        payload_length = int.from_bytes(raw[:FRAME_HEADER_BYTES], "big")
        if FRAME_HEADER_BYTES + payload_length > len(raw):
            raise ValueError(
                f"framed length {payload_length} exceeds decoded capacity "
                f"{len(raw) - FRAME_HEADER_BYTES}"
            )
        return raw[FRAME_HEADER_BYTES : FRAME_HEADER_BYTES + payload_length]

    def shard_length_framed(self, shards: list[Shard]) -> int:
        """Per-shard byte length of a framed shard set (must be uniform)."""
        lengths = {len(shard.data) for shard in shards}
        if len(lengths) != 1:
            raise ValueError("inconsistent shard lengths")
        (length,) = lengths
        if length * self.k < FRAME_HEADER_BYTES:
            raise ValueError("shards too short to carry a length frame")
        return length

    def repair(self, shards: list[Shard], missing_index: int, data_length: int) -> Shard:
        """Regenerate one lost shard from any k survivors."""
        data = self.decode(shards, self.k * self.shard_length(data_length))
        return self.encode(data)[missing_index]
