"""Hash-to-curve, PRF/PRP, ChaCha20, Merkle, MiMC and field helpers."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.bn254 import (
    CURVE_ORDER,
    hash_gt_to_scalar,
    hash_to_g1,
    hash_to_scalar,
    kernel,
)
from repro.crypto.bn254.curve import G1Point, G2Point
from repro.crypto.bn254.pairing import pairing
from repro.crypto.chacha20 import chacha20_block, chacha20_xor, convergent_key
from repro.crypto.field import (
    BLOCK_BYTES,
    MODULUS,
    batch_inverse,
    blocks_to_bytes,
    bytes_to_blocks,
)
from repro.crypto.merkle import MerkleTree, verify_merkle_proof
from repro.crypto.prf import FeistelPrp, Prf

from mimc import mimc_hash, mimc_hash2, mimc_permutation  # benchmarks/paper


class TestHashToCurve:
    def test_on_curve_and_deterministic(self):
        point = hash_to_g1(b"name||0")
        assert point.is_on_curve()
        assert hash_to_g1(b"name||0") == point

    def test_distinct_inputs_distinct_points(self):
        points = {hash_to_g1(f"m{i}".encode()).to_affine() for i in range(20)}
        assert len(points) == 20

    def test_hash_to_scalar_range(self):
        for i in range(10):
            value = hash_to_scalar(f"x{i}".encode())
            assert 0 <= value < CURVE_ORDER

    def test_hash_gt_deterministic(self):
        e = pairing(G1Point.generator(), G2Point.generator())
        assert hash_gt_to_scalar(e) == hash_gt_to_scalar(e)
        assert hash_gt_to_scalar(e) != hash_gt_to_scalar(e * e)


class TestPrf:
    def test_deterministic(self):
        assert Prf(b"k").scalar(5) == Prf(b"k").scalar(5)

    def test_key_separation(self):
        assert Prf(b"k1").scalar(5) != Prf(b"k2").scalar(5)

    def test_scalars_batch(self):
        assert Prf(b"k").scalars(4) == [Prf(b"k").scalar(i) for i in range(4)]


class TestFeistelPrp:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=400), st.binary(min_size=1, max_size=8))
    def test_is_permutation(self, domain, key):
        prp = FeistelPrp(key, domain)
        images = [prp.permute(i) for i in range(domain)]
        assert sorted(images) == list(range(domain))

    def test_sample_indices_distinct(self):
        prp = FeistelPrp(b"c1", 1000)
        indices = prp.sample_indices(300)
        assert len(set(indices)) == 300
        assert all(0 <= i < 1000 for i in indices)

    def test_sample_clamped_to_domain(self):
        prp = FeistelPrp(b"c1", 5)
        assert sorted(prp.sample_indices(300)) == list(range(5))

    def test_out_of_domain_raises(self):
        with pytest.raises(ValueError):
            FeistelPrp(b"k", 10).permute(10)

    def test_invalid_domain(self):
        with pytest.raises(ValueError):
            FeistelPrp(b"k", 0)

    def test_round_hmacs_at_the_paper_point(self, monkeypatch):
        """What one expansion at s = 50, k = 300 on a 1 MiB file costs in
        round HMACs, counted on the Python reference: the 677 chunks sit in
        a 4,096-wide Feistel domain, so each index takes about six passes.
        A domain that fits n more tightly moves this count."""
        rounds = []
        original = FeistelPrp._round

        def counted(self, round_index, value):
            rounds.append(round_index)
            return original(self, round_index, value)

        monkeypatch.setattr(FeistelPrp, "_round", counted)
        monkeypatch.setattr(kernel, "_backend", kernel.Backend("python"))
        prp = FeistelPrp(bytes(range(16)), 677)
        indices = prp.sample_indices(300)
        assert prp.width == 4096
        assert len(set(indices)) == 300
        assert len(rounds) == 7240


class TestChaCha20:
    def test_rfc7539_block_vector(self):
        key = bytes(range(32))
        nonce = bytes.fromhex("000000090000004a00000000")
        block = chacha20_block(key, 1, nonce)
        assert block[:16] == bytes.fromhex("10f1e7e4d13b5915500fdd1fa32071c4")

    def test_rfc7539_encryption_vector(self):
        key = bytes(range(32))
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        ciphertext = chacha20_xor(key, nonce, plaintext, counter=1)
        assert ciphertext[:16] == bytes.fromhex("6e2e359a2568f98041ba0728dd0d6981")

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=0, max_size=300))
    def test_roundtrip(self, data):
        key, nonce = b"\x07" * 32, b"\x01" * 12
        assert chacha20_xor(key, nonce, chacha20_xor(key, nonce, data)) == data

    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            chacha20_block(b"short", 0, b"\x00" * 12)

    def test_convergent_key_deterministic(self):
        assert convergent_key(b"same") == convergent_key(b"same")
        assert convergent_key(b"same") != convergent_key(b"different")


class TestMerkle:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=40))
    def test_all_proofs_verify(self, count):
        leaves = [bytes([i]) * 8 for i in range(count)]
        tree = MerkleTree(leaves)
        for index in range(count):
            assert verify_merkle_proof(tree.root, tree.prove(index))

    def test_tampered_leaf_fails(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d"])
        proof = dataclasses.replace(tree.prove(1), leaf_data=b"x")
        assert not verify_merkle_proof(tree.root, proof)

    def test_wrong_root_fails(self):
        tree = MerkleTree([b"a", b"b"])
        assert not verify_merkle_proof(b"\x00" * 32, tree.prove(0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MerkleTree([])

    def test_out_of_range_leaf(self):
        with pytest.raises(IndexError):
            MerkleTree([b"a"]).prove(1)

    def test_single_leaf(self):
        tree = MerkleTree([b"only"])
        assert verify_merkle_proof(tree.root, tree.prove(0))

    def test_leaf_node_domain_separation(self):
        """A leaf equal to an interior-node preimage must not collide."""
        t1 = MerkleTree([b"a", b"b"])
        fake_leaf = t1.levels[0][0] + t1.levels[0][1]
        t2 = MerkleTree([fake_leaf])
        assert t1.root != t2.root


class TestMiMC:
    def test_deterministic_and_asymmetric(self):
        assert mimc_hash2(1, 2) == mimc_hash2(1, 2)
        assert mimc_hash2(1, 2) != mimc_hash2(2, 1)

    def test_permutation_is_injective_sample(self):
        outputs = {mimc_permutation(x, 7) for x in range(50)}
        assert len(outputs) == 50

    def test_hash_chain(self):
        assert mimc_hash([1, 2, 3]) != mimc_hash([1, 2])
        assert mimc_hash([1, 2, 3]) == mimc_hash([1, 2, 3])

    def test_range(self):
        assert 0 <= mimc_hash2(MODULUS - 1, MODULUS - 2) < MODULUS


class TestFieldHelpers:
    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=1, max_size=200))
    def test_block_roundtrip(self, data):
        blocks = bytes_to_blocks(data)
        assert blocks_to_bytes(blocks, len(data)) == data
        assert all(0 <= b < MODULUS for b in blocks)

    def test_block_bound(self):
        assert 256**BLOCK_BYTES < MODULUS

    def test_blocks_to_bytes_insufficient(self):
        with pytest.raises(ValueError):
            blocks_to_bytes([1], 100)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=MODULUS - 1), min_size=1, max_size=30))
    def test_batch_inverse(self, values):
        inverses = batch_inverse(values)
        assert all(v * i % MODULUS == 1 for v, i in zip(values, inverses))

    def test_batch_inverse_empty(self):
        assert batch_inverse([]) == []

    def test_batch_inverse_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            batch_inverse([1, 0, 2])
