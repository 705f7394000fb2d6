"""Challenge generation and deterministic expansion (paper Fig. 3, left).

The smart contract publishes only three lambda-bit seeds — ``C1``, ``C2``
and ``r`` (48 bytes total, Section VII-B) — and both prover and verifier
expand them locally:

    {i_0..i_{k-1}}  = PRP_{C1}(0..k-1)     distinct chunk indices
    {c_0..c_{k-1}}  = PRF_{C2}(0..k-1)     coefficients in Zp
    r               = evaluation point in Zp (derived from the r-seed)

Pre-determined expansion is what the paper calls "expanding the domain of
randomness outputs": it keeps on-chain randomness consumption constant
regardless of k.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from ..crypto.bn254.constants import CURVE_ORDER as R
from ..crypto.field import hash_to_scalar
from ..crypto.prf import FeistelPrp, Prf
from .params import ProtocolParams


@dataclass(frozen=True)
class Challenge:
    """The on-chain challenge: (C1, C2, r) seeds plus the audit round."""

    c1: bytes
    c2: bytes
    r_seed: bytes
    k: int

    def __post_init__(self) -> None:
        if len(self.c1) != len(self.c2) or len(self.c1) != len(self.r_seed):
            raise ValueError("challenge seeds must have equal length")
        if self.k < 1:
            raise ValueError("k must be positive")

    @property
    def point(self) -> int:
        """The polynomial evaluation point r in Zp."""
        return hash_to_scalar(b"challenge-point", self.r_seed)

    def byte_size(self) -> int:
        """On-chain size: 48 bytes at lambda = 128."""
        return len(self.c1) + len(self.c2) + len(self.r_seed)

    def to_bytes(self) -> bytes:
        return self.c1 + self.c2 + self.r_seed

    @staticmethod
    def from_bytes(data: bytes, k: int, seed_bytes: int = 16) -> "Challenge":
        if len(data) != 3 * seed_bytes:
            raise ValueError(f"challenge must be {3 * seed_bytes} bytes")
        return Challenge(
            c1=data[:seed_bytes],
            c2=data[seed_bytes : 2 * seed_bytes],
            r_seed=data[2 * seed_bytes :],
            k=k,
        )

    def expand(self, num_chunks: int) -> "ExpandedChallenge":
        """Derive the challenged set {(i, c_i)} and the evaluation point.

        Memoized: expansion is deterministic, and prover and verifier both
        expand the *same* challenge every audit.  The cache's remaining
        reason is the paper's point: at 677 chunks and k = 300,
        ``FeistelPrp`` walks a 4,096-wide domain, so even in the native
        kernel one expansion costs ~7 ms (2-core reference host), which a
        verifier in the same process would pay again.  A PRP domain that
        fits the chunk count makes it cheap enough to drop.
        """
        return _expand_challenge(self, num_chunks)


@lru_cache(maxsize=2048)
def _expand_challenge(challenge: Challenge, num_chunks: int) -> "ExpandedChallenge":
    k = min(challenge.k, num_chunks)
    prp = FeistelPrp(challenge.c1, num_chunks)
    indices = prp.sample_indices(k)
    coefficients = Prf(challenge.c2).scalars(k)
    return ExpandedChallenge(
        indices=tuple(indices),
        coefficients=tuple(coefficients),
        point=challenge.point,
    )


@dataclass(frozen=True)
class ExpandedChallenge:
    """The fully-expanded challenge both sides compute locally."""

    indices: tuple[int, ...]
    coefficients: tuple[int, ...]
    point: int

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.coefficients):
            raise ValueError("indices and coefficients must align")
        if not 0 <= self.point < R:
            raise ValueError("evaluation point out of field range")

    @property
    def k(self) -> int:
        return len(self.indices)


def random_challenge(params: ProtocolParams, rng=None) -> Challenge:
    """Sample a fresh challenge the way the beacon-backed contract would."""
    seed_bytes = params.seed_bytes
    if rng is None:
        material = os.urandom(3 * seed_bytes)
    else:
        material = bytes(rng.randrange(256) for _ in range(3 * seed_bytes))
    return Challenge.from_bytes(material, k=params.k, seed_bytes=seed_bytes)


def epoch_challenge(
    beacon_output: bytes, params: ProtocolParams, name: int
) -> Challenge:
    """Per-file challenge for one engine epoch, with a shared evaluation point.

    ``C1``/``C2`` are domain-separated per file (each file gets distinct
    challenged indices and coefficients), while the ``r``-seed is derived
    from the epoch beacon alone, so every audit in the epoch evaluates at
    the same point ``r``.  Sharing ``r`` is sound — it is unpredictable
    until the beacon fires, exactly as when independent contracts read the
    same beacon round — and it is what lets grouped batch verification
    merge each owner's ``delta - r*epsilon`` pairs into one Miller loop.
    """
    import hashlib

    seed_bytes = params.seed_bytes
    name_bytes = name.to_bytes(32, "big")
    c1 = hashlib.sha256(b"epoch-c1" + name_bytes + beacon_output).digest()
    c2 = hashlib.sha256(b"epoch-c2" + name_bytes + beacon_output).digest()
    r_seed = hashlib.sha256(b"epoch-r" + beacon_output).digest()
    return Challenge(
        c1=c1[:seed_bytes],
        c2=c2[:seed_bytes],
        r_seed=r_seed[:seed_bytes],
        k=params.k,
    )


def challenge_from_beacon(
    beacon_output: bytes, params: ProtocolParams
) -> Challenge:
    """Derive the round challenge from raw beacon randomness.

    The beacon output is stretched with domain separation so that a 32-byte
    beacon value still yields three independent seeds.
    """
    import hashlib

    seed_bytes = params.seed_bytes
    material = b"".join(
        hashlib.sha256(b"chal-seed" + bytes([label]) + beacon_output).digest()
        for label in range(3)
    )
    seeds = [
        material[i * 32 : i * 32 + seed_bytes] for i in range(3)
    ]
    return Challenge(c1=seeds[0], c2=seeds[1], r_seed=seeds[2], k=params.k)
