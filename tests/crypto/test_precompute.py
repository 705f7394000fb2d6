"""Fixed-base precomputation cache: correctness and reuse semantics."""

from __future__ import annotations

import random

from repro.crypto.bn254 import (
    CURVE_ORDER,
    G1Point,
    G2Point,
    PROCESS_CACHE,
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
        """Two files of one owner + two rounds: a provider proving over the
        warm process cache answers byte for byte what one proving over a
        cold cache does, with the GT context built exactly once."""
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

        challenges = [random_challenge(params, rng=rng) for _ in range(2)]

        def transcript(cold: bool) -> list[bytes]:
            provider = StorageProvider(rng=random.Random(1))
            proofs = []
            for package in packages:
                assert provider.accept(package, validate=False)
            for round_index, challenge in enumerate(challenges):
                for package in packages:
                    prover = provider.prover_for(package.name)
                    prover._rng = random.Random(round_index)
                    if cold:
                        PROCESS_CACHE.clear()
                    proofs.append(prover.respond_private(challenge).to_bytes())
            return proofs

        warm = transcript(cold=False)
        # One GT context for the shared owner key, then pure hits.
        assert len(PROCESS_CACHE._gt) == 1
        assert transcript(cold=True) == warm
