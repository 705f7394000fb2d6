"""Binary Merkle tree over SHA-256.

Commits the checkpoint rollup's leaves and the fabric super-commitment
(``rollup/``, the checkpoint contract, the light client) and the DA layer's
chunk roots.  The **Sia-style** auditing baseline the paper compares against
(Section II; ``benchmarks/paper/baselines``) posts the challenged leaf and
its path on chain in the clear with the same tree.

Leaves are hashed with a domain-separation prefix distinct from interior
nodes so a leaf can never be confused with an internal node (second-preimage
hardening).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


def _hash_leaf(data: bytes) -> bytes:
    return hashlib.sha256(_LEAF_PREFIX + data).digest()


def _hash_node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


@dataclass(frozen=True)
class MerkleProof:
    """Authentication path for one leaf.

    ``siblings[i]`` is the sibling hash at depth i (leaf-side first);
    ``directions[i]`` is True when the running hash is the *right* child.
    """

    leaf_index: int
    leaf_data: bytes
    siblings: tuple[bytes, ...]
    directions: tuple[bool, ...]

    def byte_size(self) -> int:
        """On-chain size of this proof (what Sia-style auditing posts)."""
        return len(self.leaf_data) + 32 * len(self.siblings) + 8


class MerkleTree:
    """Merkle tree over a fixed list of byte-string leaves.

    Odd nodes at any level are promoted (Bitcoin-style duplication is
    deliberately avoided: duplication enables the well-known CVE-2012-2459
    ambiguity).
    """

    def __init__(self, leaves: list[bytes]):
        if not leaves:
            raise ValueError("cannot build a Merkle tree with no leaves")
        self.leaves = list(leaves)
        self.levels: list[list[bytes]] = [[_hash_leaf(leaf) for leaf in leaves]]
        while len(self.levels[-1]) > 1:
            current = self.levels[-1]
            parent = []
            for index in range(0, len(current) - 1, 2):
                parent.append(_hash_node(current[index], current[index + 1]))
            if len(current) % 2:
                parent.append(current[-1])
            self.levels.append(parent)

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def prove(self, leaf_index: int) -> MerkleProof:
        if not 0 <= leaf_index < len(self.leaves):
            raise IndexError(f"leaf {leaf_index} out of range")
        siblings = []
        directions = []
        index = leaf_index
        for level in self.levels[:-1]:
            sibling_index = index ^ 1
            if sibling_index < len(level):
                siblings.append(level[sibling_index])
                directions.append(bool(index & 1))
            index >>= 1
        return MerkleProof(
            leaf_index=leaf_index,
            leaf_data=self.leaves[leaf_index],
            siblings=tuple(siblings),
            directions=tuple(directions),
        )


def verify_merkle_proof(root: bytes, proof: MerkleProof) -> bool:
    """Stateless verification (what the Sia-style contract runs on chain)."""
    current = _hash_leaf(proof.leaf_data)
    for sibling, is_right in zip(proof.siblings, proof.directions):
        if is_right:
            current = _hash_node(sibling, current)
        else:
            current = _hash_node(current, sibling)
    return current == root
