"""Theorem-1 extractors: the Sigma protocol's special soundness."""

from __future__ import annotations

import pytest

from repro.core import random_challenge
from repro.core.soundness import (
    ForkingProver,
    extract_masked_evaluation,
    knowledge_error_bound,
    verify_extraction,
)


class TestSpecialSoundness:
    @pytest.fixture(scope="class")
    def forking_prover(self, package, rng):
        return ForkingProver(
            package.chunked, package.public, list(package.authenticators), rng=rng
        )

    def test_extractor_recovers_y_and_z(self, forking_prover, params, rng):
        challenge = random_challenge(params, rng=rng)
        transcripts = forking_prover.respond_forked(challenge)
        y, z = extract_masked_evaluation(transcripts)
        assert verify_extraction(transcripts, forking_prover, y, z)

    def test_forked_transcripts_differ_only_in_y(self, forking_prover, params, rng):
        challenge = random_challenge(params, rng=rng)
        transcripts = forking_prover.respond_forked(challenge)
        assert transcripts.proof_one.sigma == transcripts.proof_two.sigma
        assert transcripts.proof_one.psi == transcripts.proof_two.psi
        assert transcripts.proof_one.commitment == transcripts.proof_two.commitment
        assert transcripts.proof_one.y_masked != transcripts.proof_two.y_masked

    def test_same_zeta_rejected(self, forking_prover, params, rng):
        import dataclasses

        challenge = random_challenge(params, rng=rng)
        transcripts = forking_prover.respond_forked(challenge)
        broken = dataclasses.replace(transcripts, zeta_two=transcripts.zeta_one)
        with pytest.raises(ValueError):
            extract_masked_evaluation(broken)

    def test_mismatched_commitments_rejected(self, forking_prover, params, rng):
        import dataclasses

        c1 = random_challenge(params, rng=rng)
        c2 = random_challenge(params, rng=rng)
        t1 = forking_prover.respond_forked(c1)
        t2 = forking_prover.respond_forked(c2)
        mixed = dataclasses.replace(t1, proof_two=t2.proof_two)
        with pytest.raises(ValueError):
            extract_masked_evaluation(mixed)

    def test_wrong_extraction_detected(self, forking_prover, params, rng):
        challenge = random_challenge(params, rng=rng)
        transcripts = forking_prover.respond_forked(challenge)
        y, z = extract_masked_evaluation(transcripts)
        assert not verify_extraction(transcripts, forking_prover, y + 1, z)
        assert not verify_extraction(transcripts, forking_prover, y, z + 1)

    def test_knowledge_error_negligible(self):
        assert knowledge_error_bound(10**6) < 2**-200

