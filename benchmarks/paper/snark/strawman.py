"""The strawman auditing protocol of paper Section IV, end to end.

Flow: the owner builds a MiMC Merkle tree over the file blocks and performs
the circuit's trusted setup; ``rt``, the verification key and the contract
terms go on chain.  Each round the contract's randomness selects a leaf; the
*prover* produces a Groth16 proof that the challenged leaf hashes up to
``rt`` — on-chain privacy via zero knowledge, on-chain efficiency via proof
succinctness.  All the pain lives off-chain: the trusted setup, the
megabytes of parameters, and the seconds-per-proof generation that Table II
charges against this design.

Section IV-D's second limitation — challenge-space exhaustion — is also
modelled: :meth:`StrawmanProver.precompute_all_proofs` shows that once the
(low-entropy) challenge domain has been swept, the provider can answer every
future audit from a proof cache and **delete the file**.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.crypto.bn254.constants import CURVE_ORDER as R
from repro.crypto.field import bytes_to_blocks
from repro.crypto.prf import FeistelPrp

from .circuits.merkle_circuit import (
    MerkleCircuitWitness,
    MiMCMerkleTree,
    build_merkle_circuit,
    circuit_constraint_count,
    sha256_equivalent_constraints,
)
from .groth16 import Proof, SetupResult, prove, setup, verify


@dataclass
class StrawmanSetup:
    """Owner-side output of the strawman Initialize phase."""

    root: int
    depth: int
    num_leaves: int
    snark: SetupResult
    constraint_count: int
    sha256_equivalent: int

    @property
    def param_bytes(self) -> int:
        """Public parameter footprint (pk + vk) — Table II "Param. size"."""
        return self.snark.proving_key.byte_size() + self.snark.verifying_key.byte_size()


class StrawmanOwner:
    """Data owner D in the strawman: tree construction + trusted setup."""

    def __init__(self, data: bytes, rng=None):
        if not data:
            raise ValueError("cannot audit an empty file")
        self.blocks = bytes_to_blocks(data)
        self.tree = MiMCMerkleTree(self.blocks)
        self._rng = rng

    def trusted_setup(self) -> StrawmanSetup:
        """Run the per-file circuit setup (the strawman's dominant cost)."""
        # Build the circuit shape with a throwaway witness (index 0).
        witness = MerkleCircuitWitness(
            root=self.tree.root,
            leaf_index=0,
            leaf_value=self.tree.levels[0][0],
            siblings=self.tree.siblings(0),
        )
        cs = build_merkle_circuit(witness)
        snark = setup(cs, rng=self._rng)
        return StrawmanSetup(
            root=self.tree.root,
            depth=self.tree.depth,
            num_leaves=self.tree.num_leaves,
            snark=snark,
            constraint_count=cs.num_constraints,
            sha256_equivalent=sha256_equivalent_constraints(self.tree.depth),
        )


class StrawmanProver:
    """Storage provider S: stores blocks, answers challenges with SNARKs."""

    def __init__(self, blocks: list[int], setup_result: StrawmanSetup, rng=None):
        self.tree: MiMCMerkleTree | None = MiMCMerkleTree(blocks)
        if self.tree.root != setup_result.root:
            raise ValueError("stored data does not match the committed root")
        self.setup = setup_result
        self.num_leaves = self.tree.num_leaves
        self._rng = rng
        self._proof_cache: dict[int, Proof] = {}

    def challenge_to_leaf(self, challenge_seed: bytes) -> int:
        """PRF mapping from the round randomness to a leaf index."""
        prp = FeistelPrp(challenge_seed, self.num_leaves)
        return prp.permute(0)

    def respond(self, challenge_seed: bytes) -> tuple[Proof, list[int], float]:
        """Generate the round's proof; returns (proof, publics, seconds)."""
        leaf_index = self.challenge_to_leaf(challenge_seed)
        if leaf_index in self._proof_cache:
            proof = self._proof_cache[leaf_index]
            publics = self._public_values(leaf_index)
            return proof, publics, 0.0
        if self.tree is None:
            raise RuntimeError(
                "data discarded and no cached proof for this leaf: busted"
            )
        start = time.perf_counter()
        witness_obj = MerkleCircuitWitness(
            root=self.setup.root,
            leaf_index=leaf_index,
            leaf_value=self.tree.levels[0][leaf_index],
            siblings=self.tree.siblings(leaf_index),
        )
        cs = build_merkle_circuit(witness_obj)
        proof = prove(self.setup.snark.proving_key, self.setup.snark.qap, cs.witness, rng=self._rng)
        elapsed = time.perf_counter() - start
        return proof, cs.public_values(), elapsed

    def _public_values(self, leaf_index: int) -> list[int]:
        publics = [1, self.setup.root]
        publics += [(leaf_index >> level) & 1 for level in range(self.setup.depth)]
        return publics

    def precompute_all_proofs(self) -> int:
        """The Section IV-D exhaustion attack: cache a proof per leaf.

        After this returns, the provider can discard the file and keep
        passing audits forever (the challenge only selects a leaf index).
        Returns the number of cached proofs.
        """
        for leaf_index in range(self.tree.num_leaves):
            witness_obj = MerkleCircuitWitness(
                root=self.setup.root,
                leaf_index=leaf_index,
                leaf_value=self.tree.levels[0][leaf_index],
                siblings=self.tree.siblings(leaf_index),
            )
            cs = build_merkle_circuit(witness_obj)
            self._proof_cache[leaf_index] = prove(
                self.setup.snark.proving_key, self.setup.snark.qap, cs.witness, rng=self._rng
            )
        return len(self._proof_cache)

    def discard_data(self) -> None:
        """Drop the file, keeping only cached proofs (exhaustion attack)."""
        self.tree = None  # type: ignore[assignment]


class StrawmanVerifier:
    """The on-chain side: constant-cost Groth16 verification."""

    def __init__(self, setup_result: StrawmanSetup):
        self.setup = setup_result

    def verify(self, challenge_seed: bytes, proof: Proof, publics: list[int]) -> bool:
        # Recompute the expected leaf index from the challenge and pin the
        # public inputs to it (otherwise the prover could open any leaf).
        prp = FeistelPrp(challenge_seed, self.setup.num_leaves)
        expected_index = prp.permute(0)
        expected_publics = [1, self.setup.root] + [
            (expected_index >> level) & 1 for level in range(self.setup.depth)
        ]
        if publics != expected_publics:
            return False
        return verify(self.setup.snark.verifying_key, publics, proof)
