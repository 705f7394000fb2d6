"""The Section V-E beacon survey: what the audit contract could draw from.

The contract needs only a :class:`repro.randomness.RandomnessBeacon`; the
system runs :class:`repro.randomness.HashChainBeacon`.  The designs the
paper weighs live here, outside the installed package:

* :mod:`beacons.commit_reveal` — Randao-style commit-reveal, with the
  last-revealer bias attack that breaks it,
* :mod:`beacons.vdf` — a Wesolowski VDF finaliser closing that loophole,
* :mod:`beacons.trusted` — an external trusted (NIST-style) beacon,
* :mod:`beacons.malicious` — the eclipse attacker's scripted beacon.
"""

from .commit_reveal import (
    AttackStats,
    CommitRevealBeacon,
    CommitRevealRound,
    LastRevealerAttacker,
    combine_reveals,
)
from .malicious import MaliciousBeacon
from .trusted import BeaconConsumer, SignedOutput, TrustedBeacon
from .vdf import BlindLastRevealer, VdfBeacon, VdfProof, WesolowskiVdf, hash_to_prime

__all__ = [
    "AttackStats",
    "BeaconConsumer",
    "BlindLastRevealer",
    "CommitRevealBeacon",
    "CommitRevealRound",
    "LastRevealerAttacker",
    "MaliciousBeacon",
    "SignedOutput",
    "TrustedBeacon",
    "VdfBeacon",
    "VdfProof",
    "WesolowskiVdf",
    "combine_reveals",
    "hash_to_prime",
]
