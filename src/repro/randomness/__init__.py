"""Randomness beacons for audit challenges (paper Section V-E)."""

from .beacon import HashChainBeacon, RandomnessBeacon

__all__ = [
    "HashChainBeacon",
    "RandomnessBeacon",
]
