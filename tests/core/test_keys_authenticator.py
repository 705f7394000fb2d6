"""Key generation, public-key validation, authenticator generation/checks."""

from __future__ import annotations

import pytest

from repro.core.authenticator import (
    PreprocessReport,
    authenticator_storage_bytes,
    block_digest_point,
    generate_authenticators,
    validate_authenticator,
    validate_authenticators_batched,
)
from repro.core.chunking import chunk_file, corrupt_chunk
from repro.core.keys import (
    KeyPair,
    PublicKey,
    SecretKey,
    generate_keypair,
    validate_public_key,
    validate_public_key_batched,
)
from repro.core.params import ProtocolParams
from repro.crypto.bn254 import CURVE_ORDER, G1Point, G2Point


class TestKeys:
    def test_structure(self, keypair, params):
        pk = keypair.public
        assert len(pk.powers) == params.s
        assert pk.powers[0] == G1Point.generator()
        assert pk.supports_privacy

    def test_powers_are_consecutive(self, keypair):
        alpha = keypair.secret.alpha
        g1 = G1Point.generator()
        power = 1
        for point in keypair.public.powers:
            assert point == g1 * power
            power = power * alpha % CURVE_ORDER

    def test_epsilon_delta_relation(self, keypair):
        g2 = G2Point.generator()
        sk = keypair.secret
        assert keypair.public.epsilon == g2 * sk.x
        assert keypair.public.delta == g2 * (sk.alpha * sk.x % CURVE_ORDER)

    def test_validate_public_key(self, keypair):
        assert validate_public_key(keypair.public)

    def test_validate_public_key_batched(self, keypair, rng):
        assert validate_public_key_batched(keypair.public, rng=rng)

    def test_forged_powers_rejected(self, keypair, rng):
        """An owner publishing inconsistent powers must be caught at ACK."""
        tampered = list(keypair.public.powers)
        tampered[2] = tampered[2] + G1Point.generator()
        forged = PublicKey(
            epsilon=keypair.public.epsilon,
            delta=keypair.public.delta,
            powers=tuple(tampered),
            pairing_base=keypair.public.pairing_base,
        )
        assert not validate_public_key(forged)
        assert not validate_public_key_batched(forged, rng=rng)

    def test_forged_pairing_base_rejected(self, keypair, rng):
        forged = PublicKey(
            epsilon=keypair.public.epsilon,
            delta=keypair.public.delta,
            powers=keypair.public.powers,
            pairing_base=keypair.public.pairing_base * keypair.public.pairing_base,
        )
        assert not validate_public_key_batched(forged, rng=rng)

    def test_serialization_roundtrip(self, keypair):
        data = keypair.public.to_bytes()
        restored = PublicKey.from_bytes(data)
        assert restored.epsilon == keypair.public.epsilon
        assert restored.delta == keypair.public.delta
        assert restored.powers == keypair.public.powers
        assert restored.pairing_base == keypair.public.pairing_base

    def test_byte_size_formula(self, keypair, params):
        """Fig. 4 accounting: 2 G2 + s G1 + name + GT (privacy)."""
        expected = 2 * 64 + params.s * 32 + 32 + 192
        assert keypair.public.byte_size() == expected

    def test_no_privacy_key_smaller(self, params, rng):
        kp = generate_keypair(params.s, private_auditing=False, rng=rng)
        assert kp.public.byte_size() + 192 == 2 * 64 + params.s * 32 + 32 + 192
        assert not kp.public.supports_privacy

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            generate_keypair(0)


class TestAuthenticators:
    def test_generation_and_batch_validation(self, package, rng):
        assert validate_authenticators_batched(
            package.chunked, list(package.authenticators), package.public, rng=rng
        )

    def test_two_prepares_build_the_generator_table_once(self, monkeypatch):
        from repro.core import DataOwner
        from repro.crypto.bn254 import msm

        built = []
        build = msm.FixedBaseMul.__init__

        def counting(self, base, *args, **kwargs):
            built.append(base)
            build(self, base, *args, **kwargs)

        monkeypatch.setattr(msm.FixedBaseMul, "__init__", counting)
        msm.generator_table.cache_clear()
        owner = DataOwner(ProtocolParams(s=4, k=2))
        first, second = owner.prepare(b"\x21" * 200), owner.prepare(b"\x22" * 200)
        assert built == [G1Point.generator()]
        for package in (first, second):
            assert validate_authenticators_batched(
                package.chunked, list(package.authenticators), package.public
            )

    def test_single_validation(self, package):
        assert validate_authenticator(
            package.chunked.chunks[0],
            0,
            package.authenticators[0],
            package.public,
            package.name,
        )

    def test_wrong_index_fails(self, package):
        assert not validate_authenticator(
            package.chunked.chunks[0],
            1,  # wrong index: digest H(name||1) won't match
            package.authenticators[0],
            package.public,
            package.name,
        )

    def test_tampered_chunk_fails_validation(self, package, rng):
        bad = corrupt_chunk(package.chunked, 0)
        assert not validate_authenticators_batched(
            bad, list(package.authenticators), package.public, rng=rng
        )

    def test_tampered_authenticator_fails(self, package, rng):
        tampered = list(package.authenticators)
        tampered[1] = tampered[1] + G1Point.generator()
        assert not validate_authenticators_batched(
            package.chunked, tampered, package.public, rng=rng
        )

    def test_wrong_count_fails(self, package, rng):
        assert not validate_authenticators_batched(
            package.chunked,
            list(package.authenticators[:-1]),
            package.public,
            rng=rng,
        )

    def test_naive_mode_matches_horner(self, params, rng, file_bytes, keypair):
        chunked = chunk_file(file_bytes[:200], params, name=77)
        fast = generate_authenticators(chunked, keypair, mode="horner")
        slow = generate_authenticators(chunked, keypair, mode="naive")
        assert fast == slow

    def test_report_populated(self, params, rng, keypair):
        chunked = chunk_file(b"\x42" * 400, params, name=88)
        report = PreprocessReport()
        generate_authenticators(chunked, keypair, report=report)
        assert report.num_chunks == chunked.num_chunks
        assert report.total_seconds > 0
        assert report.ecc_seconds > 0

    def test_digest_points_distinct(self):
        points = {
            block_digest_point(5, i).to_affine() for i in range(10)
        }
        assert len(points) == 10

    def test_storage_accounting(self):
        assert authenticator_storage_bytes(100) == 3200
