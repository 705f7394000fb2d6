"""Randomness beacon interfaces (paper Section V-E).

The audit contract must draw "reliable, unpredictable, unbiased" randomness
each round; all it needs of a beacon is :class:`RandomnessBeacon`.  This
module defines that interface plus the deterministic hash-chain beacon the
system, its tests and its benchmarks run.  The three practical designs the
paper surveys — commit-reveal (with the last-revealer bias attack), a VDF
finaliser and a trusted external beacon — live with the eclipse attacker's
scripted beacon in ``benchmarks/paper/beacons/``, outside the package.
"""

from __future__ import annotations

import hashlib
from typing import Protocol


class RandomnessBeacon(Protocol):
    """Anything that can serve per-round randomness to the audit contract."""

    def output(self, round_id: int) -> bytes:
        """32 bytes of randomness for the given round."""
        ...

    @property
    def cost_usd(self) -> float:
        """Estimated per-round cost of obtaining this randomness on chain.

        The paper estimates $0.01 (HydRand-style) to $0.05 (Randao-style)
        per draw (Section VII-B).
        """
        ...


class HashChainBeacon:
    """Deterministic beacon: output_i = H(seed || i).

    Unbiased and unpredictable *only* under the assumption nobody knows the
    seed — the honest-but-simulated stand-in for tests and benchmarks.
    """

    #: Nothing rewrites the seed or the cost once built, so a chain log that
    #: holds a contract's beacon once holds it for good.
    _immutable_value = True

    def __init__(self, seed: bytes, cost_usd: float = 0.0):
        self._seed = seed
        self._cost = cost_usd

    def output(self, round_id: int) -> bytes:
        return hashlib.sha256(
            b"REPRO-BEACON" + self._seed + round_id.to_bytes(8, "big")
        ).digest()

    @property
    def cost_usd(self) -> float:
        return self._cost
