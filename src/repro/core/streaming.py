"""Streaming preprocessing: authenticate arbitrarily large files in O(s) memory.

The paper's target workload is archive data — image backups, file
collections — which can far exceed RAM.  ``stream_authenticators`` consumes
any iterable of byte strings (file objects, network streams), carries at
most one chunk of state, and yields authenticators as it goes, so a 1 GB
archive needs kilobytes of working memory instead of gigabytes.

Equivalence with the in-memory path is asserted by the test suite, and the
incremental hash ties the stream to the same ``ChunkedFile`` layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from ..crypto.bn254 import G1Point
from ..crypto.bn254.constants import CURVE_ORDER as R
from ..crypto.bn254.msm import generator_table
from ..crypto.field import BLOCK_BYTES
from .authenticator import block_digest_point
from .keys import KeyPair, PublicKey
from .params import ProtocolParams
from .prover import Prover


@dataclass
class StreamSummary:
    """What the owner keeps after a streaming pass."""

    name: int
    byte_length: int
    num_chunks: int


def _blocks_from_stream(stream: Iterable[bytes]) -> Iterator[int]:
    """Re-block an arbitrary byte stream into 31-byte field elements."""
    buffer = b""
    for piece in stream:
        buffer += piece
        while len(buffer) >= BLOCK_BYTES:
            yield int.from_bytes(buffer[:BLOCK_BYTES], "big")
            buffer = buffer[BLOCK_BYTES:]
    if buffer:
        yield int.from_bytes(buffer, "big")


def stream_authenticators(
    stream: Iterable[bytes],
    keypair: KeyPair,
    params: ProtocolParams,
    name: int,
) -> Iterator[tuple[int, G1Point]]:
    """Yield (chunk_index, sigma_i) pairs while consuming the stream.

    Memory: one chunk of coefficients plus the fixed-base table.  The
    produced authenticators are bit-identical to
    :func:`repro.core.authenticator.generate_authenticators` on the same
    bytes (asserted by tests).
    """
    table = generator_table()
    x = keypair.secret.x
    alpha = keypair.secret.alpha
    s = params.s
    chunk_index = 0
    # Horner state runs highest-coefficient-first, but the stream arrives
    # lowest-first; accumulate sum(m_j * alpha^j) with a running power.
    accumulator = 0
    power = 1
    filled = 0
    for block in _blocks_from_stream(stream):
        accumulator = (accumulator + block * power) % R
        power = power * alpha % R
        filled += 1
        if filled == s:
            digest = block_digest_point(name, chunk_index)
            yield chunk_index, (table.mul(accumulator) + digest) * x
            chunk_index += 1
            accumulator, power, filled = 0, 1, 0
    if filled:
        digest = block_digest_point(name, chunk_index)
        yield chunk_index, (table.mul(accumulator) + digest) * x


class StreamingProver(Prover):
    """Answer audit challenges from a byte *stream* in O(s) working memory.

    The in-memory :class:`~repro.core.prover.Prover` holds every chunk of
    the file; archives larger than RAM cannot.  This prover instead walks
    the stream once per challenge, accumulating the challenged linear
    combination ``P_k = Σ c_t · M_{i_t}`` chunk by chunk — at any moment it
    holds one chunk's coefficients plus the s-vector accumulator.  That
    one pass (:meth:`_combine`) is the whole difference: evaluation,
    synthetic division, the MSMs and the Sigma masking are ``Prover``'s.

    Differential guarantee (asserted by
    ``tests/core/test_streaming_prover_differential.py``): for the same
    challenge, the same authenticators and the same nonce RNG, the
    produced proof is **byte-identical** to ``Prover``'s.

    ``stream_factory`` is any zero-argument callable returning a fresh
    iterable of byte strings (an opened file, a network fetch); it is
    invoked once per proof.
    """

    def __init__(
        self,
        stream_factory: Callable[[], Iterable[bytes]],
        public: PublicKey,
        authenticators: Sequence[G1Point],
        params: ProtocolParams,
        rng=None,
    ):
        if params.s > len(public.powers):
            raise ValueError("chunk size exceeds published alpha powers")
        if not authenticators:
            raise ValueError("cannot prove over an empty file")
        self.stream_factory = stream_factory
        self.public = public
        self.authenticators = list(authenticators)
        self.params = params
        self._rng = rng

    @property
    def num_chunks(self) -> int:
        return len(self.authenticators)

    # -- streaming aggregation ----------------------------------------------

    def _combine(self, expanded) -> list[int]:
        """One pass over the stream: Σ c_t · M_{i_t} in O(s) memory."""
        coefficient_of: dict[int, int] = {}
        for index, coefficient in zip(expanded.indices, expanded.coefficients):
            coefficient_of[index] = (
                coefficient_of.get(index, 0) + coefficient
            ) % R
        s = self.params.s
        combined = [0] * s
        chunk_index = 0
        position = 0
        seen = 0
        for block in _blocks_from_stream(self.stream_factory()):
            weight = coefficient_of.get(chunk_index)
            if weight is not None:
                combined[position] = (combined[position] + weight * block) % R
            position += 1
            if position == s:
                chunk_index += 1
                position = 0
            seen += 1
        if seen == 0:
            raise ValueError("cannot prove over an empty stream")
        chunks = chunk_index + (1 if position else 0)
        if chunks != self.num_chunks:
            raise ValueError(
                f"stream has {chunks} chunks, {self.num_chunks} authenticators"
            )
        # Mirror the in-memory path's trailing-zero shape: linear_combination
        # returns exactly s coefficients (padded chunks), as we do here.
        return combined


def stream_summary(
    stream: Iterable[bytes], params: ProtocolParams, name: int
) -> StreamSummary:
    """Byte/chunk accounting for a stream without keeping its contents."""
    total = 0
    for piece in stream:
        total += len(piece)
    blocks = (total + BLOCK_BYTES - 1) // BLOCK_BYTES
    chunks = (blocks + params.s - 1) // params.s
    return StreamSummary(name=name, byte_length=total, num_chunks=max(1, chunks))
