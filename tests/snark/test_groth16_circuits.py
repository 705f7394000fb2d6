"""Groth16 end-to-end plus the MiMC/Merkle gadgets."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.crypto.bn254 import G1Point
from repro.crypto.bn254.constants import CURVE_ORDER as R

from mimc import mimc_hash2
from snark.circuits.merkle_circuit import (
    MerkleCircuitWitness,
    MiMCMerkleTree,
    build_merkle_circuit,
    circuit_constraint_count,
    merkle_root_native,
    sha256_equivalent_constraints,
)
from snark.circuits.mimc_gadget import (
    CONSTRAINTS_PER_PERMUTATION,
    mimc_hash2_gadget,
)
from snark.groth16 import prove, setup, verify
from snark.r1cs import ConstraintSystem


@pytest.fixture(scope="module")
def simple_setup(rng):
    cs = ConstraintSystem()
    out = cs.public_input(21)
    a = cs.private_input(3)
    b = cs.private_input(7)
    cs.enforce(cs.lc(a), cs.lc(b), cs.lc(out))
    return cs, setup(cs, rng=rng)


class TestGroth16:
    def test_valid_proof_verifies(self, simple_setup, rng):
        cs, result = simple_setup
        proof = prove(result.proving_key, result.qap, cs.witness, rng=rng)
        assert verify(result.verifying_key, cs.public_values(), proof)

    def test_other_witness_same_statement(self, simple_setup, rng):
        """21 = 3*7 = 1*21: a different witness for the same public value."""
        cs, result = simple_setup
        other = ConstraintSystem()
        out = other.public_input(21)
        a = other.private_input(1)
        b = other.private_input(21)
        other.enforce(other.lc(a), other.lc(b), other.lc(out))
        proof = prove(result.proving_key, result.qap, other.witness, rng=rng)
        assert verify(result.verifying_key, other.public_values(), proof)

    def test_wrong_public_input_fails(self, simple_setup, rng):
        cs, result = simple_setup
        proof = prove(result.proving_key, result.qap, cs.witness, rng=rng)
        assert not verify(result.verifying_key, [1, 22], proof)

    def test_public_input_length_checked(self, simple_setup, rng):
        cs, result = simple_setup
        proof = prove(result.proving_key, result.qap, cs.witness, rng=rng)
        with pytest.raises(ValueError):
            verify(result.verifying_key, [1, 21, 5], proof)

    def test_tampered_proof_fails(self, simple_setup, rng):
        cs, result = simple_setup
        proof = prove(result.proving_key, result.qap, cs.witness, rng=rng)
        for field_name in ("a", "c"):
            point = getattr(proof, field_name)
            bad = dataclasses.replace(proof, **{field_name: point + G1Point.generator()})
            assert not verify(result.verifying_key, cs.public_values(), bad)

    def test_invalid_witness_cannot_prove(self, simple_setup, rng):
        cs, result = simple_setup
        bad = list(cs.witness)
        bad[-1] = (bad[-1] + 1) % R
        with pytest.raises(ValueError):
            prove(result.proving_key, result.qap, bad, rng=rng)

    def test_zero_knowledge_randomisation(self, simple_setup, rng):
        """Two proofs of the same witness differ (blinding factors)."""
        cs, result = simple_setup
        p1 = prove(result.proving_key, result.qap, cs.witness, rng=rng)
        p2 = prove(result.proving_key, result.qap, cs.witness, rng=rng)
        assert p1.a != p2.a
        assert verify(result.verifying_key, cs.public_values(), p1)
        assert verify(result.verifying_key, cs.public_values(), p2)

    def test_proof_size_constant(self, simple_setup, rng):
        cs, result = simple_setup
        proof = prove(result.proving_key, result.qap, cs.witness, rng=rng)
        assert len(proof.to_bytes()) == 128
        assert proof.byte_size() == 128

    def test_key_sizes_reported(self, simple_setup):
        _, result = simple_setup
        assert result.proving_key.byte_size() > result.verifying_key.byte_size()


class TestMiMCGadget:
    def test_matches_native(self):
        rng = random.Random(5)
        for _ in range(3):
            left, right = rng.randrange(R), rng.randrange(R)
            cs = ConstraintSystem()
            a = cs.private_input(left)
            b = cs.private_input(right)
            out = mimc_hash2_gadget(cs, cs.lc(a), cs.lc(b))
            assert out.evaluate(cs.witness) == mimc_hash2(left, right)
            assert cs.is_satisfied()

    def test_constraint_count(self):
        cs = ConstraintSystem()
        a = cs.private_input(1)
        b = cs.private_input(2)
        mimc_hash2_gadget(cs, cs.lc(a), cs.lc(b))
        assert cs.num_constraints == CONSTRAINTS_PER_PERMUTATION == 364


class TestMerkleCircuit:
    @pytest.fixture(scope="class")
    def tree(self):
        return MiMCMerkleTree([10, 20, 30, 40, 50, 60, 70, 80])

    def test_native_path(self, tree):
        for index in range(8):
            assert (
                merkle_root_native(
                    tree.levels[0][index], tree.siblings(index), index
                )
                == tree.root
            )

    def test_circuit_satisfied_all_indices(self, tree):
        for index in range(8):
            witness = MerkleCircuitWitness(
                root=tree.root,
                leaf_index=index,
                leaf_value=tree.levels[0][index],
                siblings=tree.siblings(index),
            )
            assert build_merkle_circuit(witness).is_satisfied()

    def test_wrong_leaf_unsatisfied(self, tree):
        witness = MerkleCircuitWitness(
            root=tree.root, leaf_index=2,
            leaf_value=tree.levels[0][2] + 1, siblings=tree.siblings(2),
        )
        assert not build_merkle_circuit(witness).is_satisfied()

    def test_wrong_sibling_unsatisfied(self, tree):
        siblings = tree.siblings(4)
        siblings[1] = (siblings[1] + 1) % R
        witness = MerkleCircuitWitness(
            root=tree.root, leaf_index=4,
            leaf_value=tree.levels[0][4], siblings=siblings,
        )
        assert not build_merkle_circuit(witness).is_satisfied()

    def test_constraint_count_prediction(self, tree):
        witness = MerkleCircuitWitness(
            root=tree.root, leaf_index=0,
            leaf_value=tree.levels[0][0], siblings=tree.siblings(0),
        )
        cs = build_merkle_circuit(witness)
        assert cs.num_constraints == circuit_constraint_count(tree.depth)

    def test_sha256_model_matches_paper_order(self):
        """1 KB -> 32 leaves -> depth 5 -> ~2.7e5, the paper's 3e5."""
        assert 2e5 < sha256_equivalent_constraints(5) < 4e5

    def test_non_power_of_two_padded(self):
        tree = MiMCMerkleTree([1, 2, 3])
        assert tree.num_leaves == 4
        assert tree.levels[0][3] == 0

    def test_single_leaf(self):
        tree = MiMCMerkleTree([42])
        assert tree.depth == 0
        assert tree.root == 42

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MiMCMerkleTree([])
