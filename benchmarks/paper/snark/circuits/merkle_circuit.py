"""The strawman's statement circuit: Merkle-path membership (paper IV-B).

Proves, in zero knowledge:  "I know a leaf value ``m_i`` and sibling hashes
such that the authentication path for public index bits leads to the public
root ``rt``."  The leaf and siblings are private witnesses — exactly what
keeps the challenged block off the chain in the strawman design.

Public inputs (in order): root, index bit per level.
Private inputs: leaf value, sibling per level.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.bn254.constants import CURVE_ORDER as R

from mimc import mimc_hash2
from ..r1cs import ConstraintSystem, LinearCombination
from .mimc_gadget import mimc_hash2_gadget


def merkle_root_native(leaf: int, siblings: list[int], index: int) -> int:
    """Reference (non-circuit) path evaluation over the MiMC tree."""
    current = leaf % R
    for level, sibling in enumerate(siblings):
        if (index >> level) & 1:
            current = mimc_hash2(sibling, current)
        else:
            current = mimc_hash2(current, sibling)
    return current


class MiMCMerkleTree:
    """Merkle tree over field elements using the MiMC 2-to-1 hash.

    The strawman data owner builds this over the file's blocks and records
    the root on chain (paper IV-B: "construct a Merkle tree from data to be
    stored and obtain the Merkle root rt").  Leaf count is padded to a power
    of two with zero leaves.
    """

    def __init__(self, leaves: list[int]):
        if not leaves:
            raise ValueError("cannot build a Merkle tree with no leaves")
        size = 1 if len(leaves) == 1 else 1 << (len(leaves) - 1).bit_length()
        padded = [leaf % R for leaf in leaves] + [0] * (size - len(leaves))
        self.levels = [padded]
        while len(self.levels[-1]) > 1:
            current = self.levels[-1]
            self.levels.append(
                [
                    mimc_hash2(current[i], current[i + 1])
                    for i in range(0, len(current), 2)
                ]
            )

    @property
    def root(self) -> int:
        return self.levels[-1][0]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def num_leaves(self) -> int:
        return len(self.levels[0])

    def siblings(self, index: int) -> list[int]:
        if not 0 <= index < self.num_leaves:
            raise IndexError("leaf index out of range")
        path = []
        for level in self.levels[:-1]:
            path.append(level[index ^ 1])
            index >>= 1
        return path


@dataclass
class MerkleCircuitWitness:
    """Everything needed to instantiate one proof of the statement."""

    root: int
    leaf_index: int
    leaf_value: int
    siblings: list[int]


def build_merkle_circuit(witness: MerkleCircuitWitness) -> ConstraintSystem:
    """Construct the R1CS with the witness filled in.

    Layout: public = [1, root, bit_0 .. bit_{d-1}]; private = leaf, siblings,
    then all intermediate MiMC state.
    """
    cs = ConstraintSystem()
    depth = len(witness.siblings)
    root_var = cs.public_input(witness.root)
    bit_vars = [
        cs.public_input((witness.leaf_index >> level) & 1) for level in range(depth)
    ]
    leaf_var = cs.private_input(witness.leaf_value % R)
    sibling_vars = [cs.private_input(s % R) for s in witness.siblings]

    for bit in bit_vars:
        cs.enforce_boolean(bit)

    current = LinearCombination.variable(leaf_var)
    for level in range(depth):
        sibling = LinearCombination.variable(sibling_vars[level])
        bit = bit_vars[level]
        # left = bit ? sibling : current ; right = bit ? current : sibling.
        left = cs.select(bit, sibling, current)
        right = cs.select(bit, current, sibling)
        current = mimc_hash2_gadget(cs, left, right)

    cs.enforce_equal(current, LinearCombination.variable(root_var))
    return cs


def circuit_constraint_count(depth: int) -> int:
    """Predicted constraint count: depth * (2 mux + 364 MiMC) + depth bool + 1."""
    from .mimc_gadget import CONSTRAINTS_PER_PERMUTATION

    return depth * (2 + CONSTRAINTS_PER_PERMUTATION) + depth + 1


def sha256_equivalent_constraints(depth: int) -> int:
    """Constraint model for a SHA-256-based circuit (the paper's Bellman
    prototype): ~27k constraints per compression, two compressions per
    double-width node hash.  For a 1 KB file (32 leaves, depth 5) this gives
    ~2.7e5 constraints, matching Table II's 3 x 10^5 within rounding.
    """
    sha256_compression_constraints = 27_000
    return depth * 2 * sha256_compression_constraints
