"""Task encoding for the parallel audit engine.

The engine splits immutable state from work, so prover threads share no
mutable object:

* :class:`AuditInstance` — one registered (owner, file) audit: the public
  key, the chunked file and its authenticators.
* :class:`ProveTask` — one audit round for one instance: the 48-byte
  on-chain challenge plus a deterministic RNG seed for the Sigma-protocol
  nonce.  Each task gets its own prover and nonce RNG.
* :class:`ProveOutcome` — the wire-format proof plus the prover's timing
  report.

Proofs come back as their canonical byte encodings — which is what makes
the engine's determinism testable bit-for-bit.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from ..core.challenge import Challenge
from ..core.chunking import ChunkedFile
from ..core.keys import PublicKey
from ..core.proof import PrivateProof
from ..crypto.bn254 import G1Point


@dataclass(frozen=True)
class AuditInstance:
    """One (owner, file) audit registration.

    ``owner_id`` groups instances that share a keypair; the engine uses it
    only for bookkeeping — cache sharing happens automatically because the
    precompute cache is keyed by the group elements themselves.
    """

    owner_id: str
    name: int
    public: PublicKey
    chunked: ChunkedFile
    authenticators: tuple[G1Point, ...]

    @property
    def num_chunks(self) -> int:
        return self.chunked.num_chunks

    @staticmethod
    def from_package(package, owner_id: str = "") -> "AuditInstance":
        """Adapt a :class:`~repro.core.protocol.OutsourcingPackage`."""
        return AuditInstance(
            owner_id=owner_id or f"owner-{package.name:x}"[:16],
            name=package.name,
            public=package.public,
            chunked=package.chunked,
            authenticators=tuple(package.authenticators),
        )


@dataclass(frozen=True)
class ProveTask:
    """One audit round to execute: which file, which challenge, which seed.

    ``rng_seed`` pins the Sigma-protocol nonce ``z`` so that proving is a
    pure function of the task — the property behind the engine's
    parallel-equals-sequential determinism guarantee.  ``None`` keeps the
    nonce truly random (production behaviour).
    """

    name: int
    challenge_bytes: bytes
    k: int
    seed_bytes: int = 16
    rng_seed: int | None = None

    def challenge(self) -> Challenge:
        return Challenge.from_bytes(
            self.challenge_bytes, k=self.k, seed_bytes=self.seed_bytes
        )

    def rng(self):
        return None if self.rng_seed is None else random.Random(self.rng_seed)

    @staticmethod
    def for_round(
        instance: AuditInstance,
        challenge: Challenge,
        epoch: int | None = None,
        salt: bytes = b"engine",
    ) -> "ProveTask":
        """Build the task for one instance/round, deriving a deterministic
        per-task seed from (salt, epoch, file name) when ``epoch`` is given."""
        rng_seed = None
        if epoch is not None:
            digest = hashlib.sha256(
                salt
                + epoch.to_bytes(8, "big")
                + instance.name.to_bytes(32, "big")
            ).digest()
            rng_seed = int.from_bytes(digest, "big")
        return ProveTask(
            name=instance.name,
            challenge_bytes=challenge.to_bytes(),
            k=challenge.k,
            seed_bytes=len(challenge.c1),
            rng_seed=rng_seed,
        )


@dataclass(frozen=True)
class ProveOutcome:
    """A finished proof plus its wall-clock decomposition."""

    name: int
    proof_bytes: bytes
    zp_seconds: float
    ecc_seconds: float
    privacy_seconds: float

    def proof(self) -> PrivateProof:
        return PrivateProof.from_bytes(self.proof_bytes)
