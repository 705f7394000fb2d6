"""Sia-style Merkle-proof auditing — the baseline the paper breaks twice.

Sia's construction (paper Section II): "storage providers prove the storage
by periodically submitting part of the original file and the corresponding
hashes within the file's Merkle tree to the blockchain."  Two flaws:

1. **No on-chain privacy** — the challenged block goes on chain *in the
   clear* (an adversary reading the chain collects raw file blocks).
2. **Challenge-space exhaustion** — "the storage provider can reuse the
   proofs for challenged blocks ... due to the low entropy of challenge
   randomness": once a block has been challenged, its (leaf, path) response
   is public; a provider caching responses can drop data and keep answering
   whatever fraction of the challenge space it has seen.

Both are implemented and measured: :class:`CachingCheater` quantifies the
survival probability as audits accumulate (a coupon-collector curve), and
the trail-size accounting feeds the comparison benches.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.crypto.merkle import MerkleProof, MerkleTree, verify_merkle_proof


@dataclass(frozen=True)
class SiaChallenge:
    """A low-entropy challenge: selects one leaf by index."""

    round_id: int
    leaf_index: int


@dataclass(frozen=True)
class SiaProof:
    """What goes on chain: the raw leaf plus its Merkle path."""

    proof: MerkleProof

    def byte_size(self) -> int:
        return self.proof.byte_size()

    @property
    def leaked_block(self) -> bytes:
        """The raw data block this proof reveals to every chain observer."""
        return self.proof.leaf_data


class SiaStyleAuditor:
    """Owner/contract side: holds the root, issues challenges, verifies."""

    def __init__(self, root: bytes, num_leaves: int):
        self.root = root
        self.num_leaves = num_leaves

    def challenge(self, round_id: int, randomness: bytes) -> SiaChallenge:
        digest = hashlib.sha256(b"SIA" + randomness + round_id.to_bytes(8, "big")).digest()
        return SiaChallenge(
            round_id=round_id,
            leaf_index=int.from_bytes(digest[:8], "big") % self.num_leaves,
        )

    def verify(self, challenge: SiaChallenge, proof: SiaProof) -> bool:
        if proof.proof.leaf_index != challenge.leaf_index:
            return False
        return verify_merkle_proof(self.root, proof.proof)


class SiaStyleProver:
    """Honest provider: stores the blocks, rebuilds proofs on demand."""

    def __init__(self, blocks: list[bytes]):
        self.tree = MerkleTree(blocks)

    @property
    def root(self) -> bytes:
        return self.tree.root

    @property
    def num_leaves(self) -> int:
        return len(self.tree.leaves)

    def respond(self, challenge: SiaChallenge) -> SiaProof:
        return SiaProof(proof=self.tree.prove(challenge.leaf_index))


@dataclass
class CachingCheater:
    """The exhaustion attacker: caches past responses, then drops the data.

    ``observe`` records each (leaf, proof) pair the honest phase produced —
    these are public on the chain, so even a *different* provider could
    collect them.  After ``go_rogue`` the file is gone; ``respond`` succeeds
    only for already-seen leaves.
    """

    cache: dict[int, SiaProof] = field(default_factory=dict)
    rogue: bool = False
    answered: int = 0
    busted: int = 0

    def observe(self, proof: SiaProof) -> None:
        self.cache[proof.proof.leaf_index] = proof

    def go_rogue(self) -> None:
        self.rogue = True

    def respond(self, challenge: SiaChallenge) -> SiaProof | None:
        cached = self.cache.get(challenge.leaf_index)
        if cached is not None:
            self.answered += 1
            return cached
        self.busted += 1
        return None

    def coverage(self, num_leaves: int) -> float:
        return len(self.cache) / num_leaves


def expected_coverage(num_leaves: int, rounds: int) -> float:
    """Coupon-collector expectation: 1 - (1 - 1/n)^rounds.

    After ``rounds`` honest audits a cheater expects to answer this fraction
    of future challenges — the quantitative version of the paper's "the
    challenge randomness would eventually run out".
    """
    return 1.0 - (1.0 - 1.0 / num_leaves) ** rounds
