"""Circuit gadgets for the strawman SNARK."""

from .merkle_circuit import (
    MerkleCircuitWitness,
    MiMCMerkleTree,
    build_merkle_circuit,
    circuit_constraint_count,
    merkle_root_native,
    sha256_equivalent_constraints,
)
from .mimc_gadget import (
    CONSTRAINTS_PER_PERMUTATION,
    mimc_hash2_gadget,
    mimc_permutation_gadget,
)

__all__ = [
    "CONSTRAINTS_PER_PERMUTATION",
    "MerkleCircuitWitness",
    "MiMCMerkleTree",
    "build_merkle_circuit",
    "circuit_constraint_count",
    "merkle_root_native",
    "mimc_hash2_gadget",
    "mimc_permutation_gadget",
    "sha256_equivalent_constraints",
]
