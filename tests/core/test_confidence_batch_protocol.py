"""Confidence model (Fig. 9 schedule), batch auditing, high-level roles."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    BatchItem,
    DataOwner,
    OffchainAuditSession,
    StorageProvider,
    detection_probability,
    detection_probability_exact,
    figure9_k_schedule,
    random_challenge,
    required_challenges,
    verify_batch_grouped,
    verify_sequential,
)
from repro.core.params import ProtocolParams


class TestConfidence:
    def test_paper_k300_gives_95_percent(self):
        """Section VI-A: k=300 -> 95% assurance at 1% tampering."""
        assert detection_probability(300, 0.01) >= 0.95

    def test_paper_schedule(self):
        schedule = figure9_k_schedule()
        assert schedule[0.91] == 240        # paper: 240
        assert schedule[0.95] in (298, 299, 300)  # paper rounds to 300
        assert schedule[0.99] in (458, 459, 460)  # paper: 460

    def test_required_challenges_inverse(self):
        for confidence in (0.5, 0.9, 0.99):
            k = required_challenges(confidence, 0.01)
            assert detection_probability(k, 0.01) >= confidence
            assert detection_probability(k - 1, 0.01) < confidence

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=1000))
    def test_monotone_in_k(self, k):
        assert detection_probability(k + 1, 0.01) >= detection_probability(k, 0.01)

    def test_exact_dominates_binomial(self):
        """Sampling without replacement detects at least as well."""
        n, corrupted, k = 1000, 10, 300
        exact = detection_probability_exact(n, corrupted, k)
        approx = detection_probability(k, corrupted / n)
        assert exact >= approx - 1e-12

    def test_exact_edge_cases(self):
        assert detection_probability_exact(100, 0, 50) == 0.0
        assert detection_probability_exact(100, 60, 50) == 1.0
        assert detection_probability_exact(10, 1, 10) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            detection_probability(-1, 0.5)
        with pytest.raises(ValueError):
            detection_probability(10, 1.5)
        with pytest.raises(ValueError):
            required_challenges(1.0, 0.01)


class TestBatchAuditing:
    @pytest.fixture(scope="class")
    def batch_items(self, package, accepted_provider, params, rng):
        items = []
        for _ in range(3):
            challenge = random_challenge(params, rng=rng)
            proof = accepted_provider.respond(package.name, challenge)
            items.append(
                BatchItem(
                    public=package.public,
                    name=package.name,
                    num_chunks=package.num_chunks,
                    challenge=challenge,
                    proof=proof,
                )
            )
        return items

    def test_batch_accepts_valid(self, batch_items, rng):
        assert verify_batch_grouped(batch_items, rng=rng)

    def test_sequential_agrees(self, batch_items):
        assert verify_sequential(batch_items)

    def test_batch_rejects_one_bad(self, batch_items, rng):
        bad_proof = dataclasses.replace(
            batch_items[1].proof, y_masked=(batch_items[1].proof.y_masked + 1)
        )
        tampered = [
            batch_items[0],
            dataclasses.replace(batch_items[1], proof=bad_proof),
            batch_items[2],
        ]
        assert not verify_batch_grouped(tampered, rng=rng)
        assert not verify_sequential(tampered)

    def test_empty_batch(self, rng):
        assert verify_batch_grouped([], rng=rng)

    def test_multi_user_batch(self, params, rng):
        """Different owners, different keys, one combined check."""
        items = []
        for user in range(2):
            owner = DataOwner(params, rng=rng)
            package = owner.prepare(bytes([user + 1]) * 400)
            provider = StorageProvider(rng=rng)
            assert provider.accept(package)
            challenge = random_challenge(params, rng=rng)
            items.append(
                BatchItem(
                    public=package.public,
                    name=package.name,
                    num_chunks=package.num_chunks,
                    challenge=challenge,
                    proof=provider.respond(package.name, challenge),
                )
            )
        assert verify_batch_grouped(items, rng=rng)


class TestProtocolRoles:
    def test_provider_rejects_forged_metadata(self, package, rng):
        """The Initialize-phase defence: bad authenticators -> no ACK."""
        import dataclasses as dc

        from repro.crypto.bn254 import G1Point

        tampered = list(package.authenticators)
        tampered[0] = tampered[0] + G1Point.generator()
        forged = dc.replace(package, authenticators=tuple(tampered))
        provider = StorageProvider(rng=rng)
        assert not provider.accept(forged)

    def test_session_rounds(self, params, rng):
        owner = DataOwner(params, rng=rng)
        package = owner.prepare(b"\x33" * 500)
        provider = StorageProvider(rng=rng)
        assert provider.accept(package)
        session = OffchainAuditSession(owner, provider, package, rng=rng)
        for _ in range(2):
            assert session.run_round().passed
        assert len(session.history) == 2

    def test_dropped_file_raises(self, params, rng):
        owner = DataOwner(params, rng=rng)
        package = owner.prepare(b"\x44" * 300)
        provider = StorageProvider(rng=rng)
        assert provider.accept(package)
        provider.drop_file(package.name)
        with pytest.raises(KeyError):
            provider.respond(package.name, random_challenge(params, rng=rng))

    def test_dropped_file_leaves_no_tables_behind(self, params, rng):
        from repro.crypto.bn254 import PROCESS_CACHE as cache

        owner = DataOwner(params, rng=rng)
        package = owner.prepare(b"\x45" * 300)
        provider = StorageProvider(rng=rng)
        assert provider.accept(package)
        session = OffchainAuditSession(owner, provider, package, rng=rng)
        assert session.run_round().passed
        assert {name for name, _ in cache._digests} == {package.name}
        assert set(package.authenticators) & set(cache._wnaf)
        provider.drop_file(package.name)
        assert not cache._digests
        assert not set(package.authenticators) & set(cache._wnaf)
        # Eviction is not a correctness event: the owner still verifies.
        assert session.verifier.verify_private(
            session.history[0].challenge, session.history[0].proof
        )

    def test_extra_storage_is_one_over_s(self, package, accepted_provider):
        prover = accepted_provider.prover_for(package.name)
        data_bytes = package.chunked.byte_length
        extra = prover.extra_storage_bytes()
        # 32-byte authenticator per chunk of s 31-byte blocks.
        expected_ratio = 32 / (package.chunked.s * 31)
        assert extra / data_bytes == pytest.approx(expected_ratio, rel=0.25)
