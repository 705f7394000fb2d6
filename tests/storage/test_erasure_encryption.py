"""GF(256), Reed-Solomon and the encryption layer."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.encryption import decrypt_file, encrypt_file, generate_key
from repro.storage.erasure import ReedSolomonCode, Shard
from repro.storage.gf256 import (
    gf_div,
    gf_inv,
    gf_matmul,
    gf_matrix_invert,
    gf_mul,
    gf_pow,
)


class TestGf256:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_field_axioms(self, a, b, c):
        assert gf_mul(a, b) == gf_mul(b, a)
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 255))
    def test_inverse(self, a):
        assert gf_mul(a, gf_inv(a)) == 1
        assert gf_div(a, a) == 1

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)
        with pytest.raises(ZeroDivisionError):
            gf_div(1, 0)

    def test_pow(self):
        assert gf_pow(2, 0) == 1
        assert gf_pow(2, 1) == 2
        assert gf_pow(3, 255) == 1  # group order divides 255

    def test_matrix_inverse(self):
        matrix = [[1, 2], [3, 4]]
        inverse = gf_matrix_invert(matrix)
        import numpy as np

        identity = gf_matmul(
            matrix, gf_matmul(inverse, np.eye(2, dtype=np.uint8))
        )
        assert identity.tolist() == [[1, 0], [0, 1]]

    def test_singular_matrix(self):
        with pytest.raises(ValueError):
            gf_matrix_invert([[1, 1], [1, 1]])


class TestReedSolomon:
    @settings(max_examples=15, deadline=None)
    @given(
        st.binary(min_size=1, max_size=400),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=6),
    )
    def test_roundtrip_any_k_shards(self, data, k, extra):
        n = k + extra
        code = ReedSolomonCode(n, k)
        shards = code.encode(data)
        assert len(shards) == n
        # Decode from the *last* k shards (hardest case: parity-heavy).
        assert code.decode(shards[-k:], len(data)) == data

    def test_systematic_property(self):
        code = ReedSolomonCode(6, 3)
        data = bytes(range(90))
        shards = code.encode(data)
        assert b"".join(s.data for s in shards[:3])[: len(data)] == data

    def test_paper_3_of_10_code(self):
        """The paper's example: 3-out-of-10 erasure coding, 3.33x blow-up."""
        code = ReedSolomonCode(10, 3)
        assert abs(code.redundancy_factor - 10 / 3) < 1e-9
        data = b"archive!" * 100
        shards = code.encode(data)
        for selection in ([0, 4, 9], [7, 8, 9], [1, 2, 3]):
            subset = [shards[i] for i in selection]
            assert code.decode(subset, len(data)) == data

    def test_insufficient_shards(self):
        code = ReedSolomonCode(5, 3)
        shards = code.encode(b"hello world")
        with pytest.raises(ValueError):
            code.decode(shards[:2], 11)

    def test_duplicate_shards_not_counted_twice(self):
        code = ReedSolomonCode(5, 3)
        shards = code.encode(b"hello world")
        with pytest.raises(ValueError):
            code.decode([shards[0], shards[0], shards[0]], 11)

    def test_repair_regenerates_exact_shard(self):
        code = ReedSolomonCode(8, 4)
        data = b"\xab" * 333
        shards = code.encode(data)
        regenerated = code.repair(shards[4:], missing_index=2, data_length=len(data))
        assert regenerated.data == shards[2].data
        assert regenerated.index == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(3, 5)
        with pytest.raises(ValueError):
            ReedSolomonCode(300, 3)
        with pytest.raises(ValueError):
            ReedSolomonCode(5, 3).encode(b"")

    def test_data_length_beyond_the_shards_is_rejected(self):
        code = ReedSolomonCode(6, 3)
        data = bytes(range(90))
        shards = code.encode(data)
        assert code.decode(shards[3:], 90) == data
        with pytest.raises(ValueError, match="data_length 200 exceeds the 90 bytes"):
            code.decode(shards[3:], 200)

    def test_bad_shard_index_rejected(self):
        code = ReedSolomonCode(4, 2)
        shards = code.encode(b"data")
        with pytest.raises(ValueError):
            code.decode([Shard(index=9, data=b"xx")] + shards[:1], 4)


class TestEncryption:
    @settings(max_examples=10, deadline=None)
    @given(st.binary(min_size=0, max_size=500))
    def test_roundtrip(self, plaintext):
        key = generate_key()
        assert decrypt_file(encrypt_file(plaintext, key), key) == plaintext

    def test_tamper_detected(self):
        key = generate_key()
        enc = encrypt_file(b"secret", key)
        flipped = bytes([enc.ciphertext[0] ^ 1]) + enc.ciphertext[1:]
        with pytest.raises(ValueError):
            decrypt_file(dataclasses.replace(enc, ciphertext=flipped), key)

    def test_wrong_key_detected(self):
        enc = encrypt_file(b"secret", generate_key())
        with pytest.raises(ValueError):
            decrypt_file(enc, generate_key())

    def test_random_mode_non_deterministic(self):
        key = generate_key()
        a = encrypt_file(b"same", key)
        b = encrypt_file(b"same", key)
        assert a.nonce != b.nonce  # fresh nonce per encryption

    def test_convergent_mode_deduplicates(self):
        """Two owners of the same file produce identical ciphertext —
        the dedup property whose privacy cost the paper warns about."""
        plain = b"shared public document"
        k1 = generate_key(plain, "convergent")
        k2 = generate_key(plain, "convergent")
        assert k1 == k2
        e1 = encrypt_file(plain, k1, "convergent")
        e2 = encrypt_file(plain, k2, "convergent")
        assert e1.ciphertext == e2.ciphertext

    def test_convergent_needs_plaintext(self):
        with pytest.raises(ValueError):
            generate_key(None, "convergent")
