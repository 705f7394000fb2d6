"""The protocol's core guarantees: completeness, soundness, detection.

These tests exercise paper Theorems 1 and 2 operationally: honest proofs
always verify (completeness); every cheating strategy we implement fails
(soundness); corruption of challenged data is detected.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.adversary import ReplayingProver
from repro.core import (
    ProveReport,
    Prover,
    Verifier,
    VerifyReport,
    corrupt_chunk,
    generate_keypair,
    random_challenge,
)
from repro.core.chunking import chunk_file
from repro.core.params import ProtocolParams
from repro.core.proof import PrivateProof
from repro.crypto.bn254 import G1Point
from repro.crypto.field import random_scalar


@pytest.fixture(scope="module")
def verifier(package):
    return Verifier(package.public, package.name, package.chunked.num_chunks)


@pytest.fixture(scope="module")
def prover(package, rng):
    return Prover(
        package.chunked, package.public, list(package.authenticators), rng=rng
    )


class TestCompleteness:
    def test_private_proof_verifies(self, prover, verifier, params, rng):
        for _ in range(3):
            challenge = random_challenge(params, rng=rng)
            proof = prover.respond_private(challenge)
            assert verifier.verify_private(challenge, proof)

    def test_plain_proof_verifies(self, prover, verifier, params, rng):
        challenge = random_challenge(params, rng=rng)
        assert verifier.verify_plain(challenge, prover.respond_plain(challenge))

    def test_proof_survives_serialization(self, prover, verifier, params, rng):
        """What the contract actually verifies is the deserialized bytes."""
        challenge = random_challenge(params, rng=rng)
        proof = prover.respond_private(challenge)
        restored = PrivateProof.from_bytes(proof.to_bytes())
        assert verifier.verify_private(challenge, restored)

    def test_reports_populated(self, prover, verifier, params, rng):
        challenge = random_challenge(params, rng=rng)
        prove_report = ProveReport()
        verify_report = VerifyReport()
        proof = prover.respond_private(challenge, prove_report)
        assert verifier.verify_private(challenge, proof, verify_report)
        assert prove_report.zp_seconds > 0
        assert prove_report.ecc_seconds > 0
        assert prove_report.privacy_seconds > 0
        assert verify_report.pairing_seconds > 0
        assert verify_report.hash_seconds > 0

    def test_sigma_commitments_fresh_per_proof(self, prover, params, rng):
        """Zero-knowledge hygiene: same challenge, different R and y'."""
        challenge = random_challenge(params, rng=rng)
        p1 = prover.respond_private(challenge)
        p2 = prover.respond_private(challenge)
        assert p1.commitment != p2.commitment
        assert p1.y_masked != p2.y_masked
        assert p1.sigma == p2.sigma  # the deterministic parts agree


class TestSoundness:
    def test_corrupted_challenged_chunk_fails(self, package, verifier, params, rng):
        challenge = random_challenge(params, rng=rng)
        target = challenge.expand(package.chunked.num_chunks).indices[0]
        bad = corrupt_chunk(package.chunked, target)
        cheater = Prover(bad, package.public, list(package.authenticators), rng=rng)
        assert not verifier.verify_private(challenge, cheater.respond_private(challenge))

    def test_unchallenged_corruption_not_detected_single_round(
        self, package, verifier, params, rng
    ):
        """Detection is probabilistic: an untouched chunk can hide (that is
        exactly why k is sized by the confidence model)."""
        challenge = random_challenge(params, rng=rng)
        expanded = challenge.expand(package.chunked.num_chunks)
        untouched = next(
            i for i in range(package.chunked.num_chunks) if i not in expanded.indices
        )
        bad = corrupt_chunk(package.chunked, untouched)
        cheater = Prover(bad, package.public, list(package.authenticators), rng=rng)
        assert verifier.verify_private(challenge, cheater.respond_private(challenge))

    def test_cheating_strategies_fail(self, package, prover, verifier, params, rng):
        """Zero-fill answers over the damaged file; random-sigma is an
        honest answer under a random aggregated authenticator."""
        challenge = random_challenge(params, rng=rng)
        target = challenge.expand(package.chunked.num_chunks).indices[0]
        bad = corrupt_chunk(package.chunked, target)
        zero_fill = Prover(bad, package.public, list(package.authenticators), rng=rng)
        random_sigma = dataclasses.replace(
            prover.respond_private(challenge),
            sigma=G1Point.generator() * random_scalar(rng),
        )
        for proof in (zero_fill.respond_private(challenge), random_sigma):
            assert not verifier.verify_private(challenge, proof)

    def test_stale_proof_rejected(self, package, verifier, params, rng):
        cheater = ReplayingProver(
            package.chunked, package.public, list(package.authenticators), rng=rng
        )
        c1 = random_challenge(params, rng=rng)
        assert verifier.verify_private(c1, cheater.respond_private(c1))
        c2 = random_challenge(params, rng=rng)
        assert not verifier.verify_private(c2, cheater.respond_private(c2))

    def test_proof_for_other_challenge_fails(self, prover, verifier, params, rng):
        c1 = random_challenge(params, rng=rng)
        c2 = random_challenge(params, rng=rng)
        proof = prover.respond_private(c1)
        assert not verifier.verify_private(c2, proof)

    def test_tampered_fields_fail(self, prover, verifier, params, rng):
        challenge = random_challenge(params, rng=rng)
        proof = prover.respond_private(challenge)
        tampered = [
            dataclasses.replace(proof, sigma=proof.sigma + G1Point.generator()),
            dataclasses.replace(proof, psi=proof.psi + G1Point.generator()),
            dataclasses.replace(proof, y_masked=(proof.y_masked + 1)),
            dataclasses.replace(
                proof, commitment=proof.commitment * proof.commitment
            ),
        ]
        for bad in tampered:
            assert not verifier.verify_private(challenge, bad)

    def test_wrong_key_fails(self, package, params, rng):
        other = generate_keypair(params.s, rng=rng)
        wrong_verifier = Verifier(other.public, package.name, package.chunked.num_chunks)
        prover = Prover(
            package.chunked, package.public, list(package.authenticators), rng=rng
        )
        challenge = random_challenge(params, rng=rng)
        assert not wrong_verifier.verify_private(
            challenge, prover.respond_private(challenge)
        )

    def test_wrong_name_fails(self, package, verifier, params, rng):
        wrong = Verifier(package.public, package.name + 1, package.chunked.num_chunks)
        prover = Prover(
            package.chunked, package.public, list(package.authenticators), rng=rng
        )
        challenge = random_challenge(params, rng=rng)
        assert not wrong.verify_private(challenge, prover.respond_private(challenge))


class TestEdgeCases:
    def test_single_chunk_file(self, params, rng):
        kp = generate_keypair(params.s, rng=rng)
        chunked = chunk_file(b"tiny", params, name=3)
        assert chunked.num_chunks == 1
        from repro.core.authenticator import generate_authenticators

        auths = generate_authenticators(chunked, kp)
        prover = Prover(chunked, kp.public, auths, rng=rng)
        verifier = Verifier(kp.public, 3, 1)
        challenge = random_challenge(params, rng=rng)
        assert verifier.verify_private(challenge, prover.respond_private(challenge))

    def test_s_equals_one(self, rng):
        """The degenerate 'w/o s parameter' configuration of Fig. 7."""
        params = ProtocolParams(s=1, k=3)
        kp = generate_keypair(1, rng=rng)
        chunked = chunk_file(b"\x05" * 93, params, name=9)  # 3 blocks
        from repro.core.authenticator import generate_authenticators

        auths = generate_authenticators(chunked, kp)
        prover = Prover(chunked, kp.public, auths, rng=rng)
        verifier = Verifier(kp.public, 9, chunked.num_chunks)
        challenge = random_challenge(params, rng=rng)
        assert verifier.verify_private(challenge, prover.respond_private(challenge))

    def test_prover_requires_matching_authenticators(self, package, rng):
        with pytest.raises(ValueError):
            Prover(
                package.chunked,
                package.public,
                list(package.authenticators[:-1]),
                rng=rng,
            )

    def test_plain_prover_with_nonprivate_key(self, params, rng):
        kp = generate_keypair(params.s, private_auditing=False, rng=rng)
        chunked = chunk_file(b"\x01" * 100, params, name=4)
        from repro.core.authenticator import generate_authenticators

        auths = generate_authenticators(chunked, kp)
        prover = Prover(chunked, kp.public, auths, rng=rng)
        challenge = random_challenge(params, rng=rng)
        verifier = Verifier(kp.public, 4, chunked.num_chunks)
        assert verifier.verify_plain(challenge, prover.respond_plain(challenge))
        with pytest.raises(ValueError):
            prover.respond_private(challenge)
