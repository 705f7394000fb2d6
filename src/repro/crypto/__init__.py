"""Cryptographic substrate: the BN254 pairing group plus every symmetric
primitive the auditing protocol and the storage layer need.

Submodules:

* :mod:`repro.crypto.bn254` — the pairing curve (fields, groups, pairing,
  MSM, hashing, serialization),
* :mod:`repro.crypto.field` — scalar-field helpers and block packing,
* :mod:`repro.crypto.prf` — challenge-expansion PRF/PRP (paper Def. 2),
* :mod:`repro.crypto.chacha20` — owner-side block encryption,
* :mod:`repro.crypto.merkle` — SHA-256 Merkle trees (checkpoints, DA roots).
"""

from . import bn254, chacha20, field, merkle, prf, schnorr

__all__ = ["bn254", "chacha20", "field", "merkle", "prf", "schnorr"]
