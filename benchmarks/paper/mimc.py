"""MiMC: a SNARK-friendly hash over the BN254 scalar field.

The paper's strawman encodes a Merkle-path check inside a ZK-SNARK circuit.
Their prototype (Bellman) uses a SHA-256-class hash, which costs ~27k R1CS
constraints per invocation and pushes the 1 KB-file circuit to ~3x10^5
constraints.  We substitute MiMC (x^7 permutation, 91 rounds — the
parameterisation popularised by circomlib for this curve), which costs 4
constraints per round and keeps the circuit provable in pure Python.  The
strawman benchmark reports both the measured MiMC constraint count and the
SHA-256-equivalent model so Table II can be compared on equal terms.

Exponent 7 is the smallest integer coprime to r-1 for BN254's r (3 and 5
both divide r-1), which makes ``x -> x^7`` a permutation of the field.
"""

from __future__ import annotations

import hashlib
import math

from repro.crypto.bn254.constants import CURVE_ORDER as R

N_ROUNDS = 91
EXPONENT = 7

assert math.gcd(EXPONENT, R - 1) == 1, "x^7 must be a permutation of Fr"


def _derive_constants(count: int) -> list[int]:
    """Nothing-up-my-sleeve round constants from a SHA-256 chain."""
    constants = [0]  # first round constant is conventionally zero
    seed = hashlib.sha256(b"REPRO-MIMC-BN254").digest()
    while len(constants) < count:
        seed = hashlib.sha256(seed).digest()
        wide = seed + hashlib.sha256(seed + b"w").digest()
        constants.append(int.from_bytes(wide, "big") % R)
    return constants[:count]


ROUND_CONSTANTS = _derive_constants(N_ROUNDS)


def mimc_permutation(x: int, key: int) -> int:
    """The keyed MiMC-n/n permutation: 91 rounds of x -> (x + k + c_i)^7."""
    x %= R
    key %= R
    for constant in ROUND_CONSTANTS:
        x = pow((x + key + constant) % R, EXPONENT, R)
    return (x + key) % R


def mimc_hash2(left: int, right: int) -> int:
    """Two-to-one compression in Miyaguchi-Preneel mode.

    ``h = E_right(left) + left + right`` — the feed-forward prevents key
    recovery / inversion, making the function usable as a Merkle node hash.
    """
    return (mimc_permutation(left, right) + left + right) % R


def mimc_hash(values: list[int]) -> int:
    """Sponge-style chaining for arbitrary-length field-element inputs."""
    state = 0
    for value in values:
        state = mimc_hash2(state, value % R)
    return state
