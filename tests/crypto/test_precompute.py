"""Fixed-base precomputation cache: correctness and reuse semantics."""

from __future__ import annotations

import random

from repro.crypto.bn254 import (
    CURVE_ORDER,
    G1Point,
    G2Point,
    PrecomputeCache,
    pairing,
)

G1 = G1Point.generator()
G2 = G2Point.generator()


class TestPrecomputeCache:
    def test_gt_context_reused_across_proof_like_calls(self):
        cache = PrecomputeCache()
        base = pairing(G1, G2 * 9)
        first = cache.gt_context(base)
        second = cache.gt_context(base)
        assert first is second
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        rng = random.Random(3)
        exponent = rng.randrange(CURVE_ORDER)
        assert first.pow(exponent) == second.pow(exponent)

    def test_gt_context_shared_across_equal_keys(self):
        """Two files under one owner key share e(g1, epsilon): one table."""
        cache = PrecomputeCache()
        epsilon = G2 * 1234
        base_file_a = pairing(G1, epsilon)
        base_file_b = pairing(G1, epsilon)
        assert cache.gt_context(base_file_a) is cache.gt_context(base_file_b)

    def test_block_digest_memoized(self):
        from repro.core.authenticator import block_digest_point

        cache = PrecomputeCache()
        point = cache.block_digest(99, 3)
        assert point == block_digest_point(99, 3)
        assert cache.block_digest(99, 3) is point
        assert cache.block_digest(99, 4) != point


class TestProverCacheIntegration:
    def test_cache_reuse_across_proofs_and_files(self):
        """Two files of one owner + two rounds: identical results to the
        cache-less seed path, with the GT context built exactly once."""
        from repro.core import (
            DataOwner,
            ProtocolParams,
            Prover,
            StorageProvider,
            random_challenge,
        )

        rng = random.Random(5)
        params = ProtocolParams(s=5, k=3)
        owner = DataOwner(params, rng=rng)
        packages = [
            owner.prepare(bytes([40 + i]) * 900, fresh_keypair=i == 0)
            for i in range(2)
        ]
        assert packages[0].public.pairing_base == packages[1].public.pairing_base

        cache = PrecomputeCache()
        cached_provider = StorageProvider(rng=random.Random(1), precompute=cache)
        seed_provider = StorageProvider(rng=random.Random(1))
        for package in packages:
            assert cached_provider.accept(package, validate=False)
            assert seed_provider.accept(package, validate=False)

        for round_index in range(2):
            challenge = random_challenge(params, rng=rng)
            for package in packages:
                nonce_rng_a = random.Random(round_index)
                nonce_rng_b = random.Random(round_index)
                cached_prover = cached_provider.prover_for(package.name)
                seed_prover = seed_provider.prover_for(package.name)
                cached_prover._rng = nonce_rng_a
                seed_prover._rng = nonce_rng_b
                cached = cached_prover.respond_private(challenge)
                plain = seed_prover.respond_private(challenge)
                assert cached.to_bytes() == plain.to_bytes()
        # One GT context for the shared owner key, then pure hits.
        assert len(cache._gt) == 1
