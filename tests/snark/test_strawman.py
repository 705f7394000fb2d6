"""The Section IV strawman end to end (tiny file to keep the CRS small)."""

from __future__ import annotations

import pytest

from snark.strawman import StrawmanOwner, StrawmanProver, StrawmanVerifier


@pytest.fixture(scope="module")
def strawman(rng):
    """64-byte file: 3 blocks -> 4 padded leaves -> depth-2 circuit."""
    data = bytes(range(64))
    owner = StrawmanOwner(data, rng=rng)
    setup_result = owner.trusted_setup()
    prover = StrawmanProver(owner.blocks, setup_result, rng=rng)
    verifier = StrawmanVerifier(setup_result)
    return owner, setup_result, prover, verifier


class TestStrawmanAudit:
    def test_honest_round(self, strawman):
        _, _, prover, verifier = strawman
        seed = b"round-1-randomness"
        proof, publics, elapsed = prover.respond(seed)
        assert verifier.verify(seed, proof, publics)
        assert elapsed > 0

    def test_wrong_seed_fails(self, strawman):
        _, _, prover, verifier = strawman
        proof, publics, _ = prover.respond(b"seed-A")
        # Index bits are pinned to the challenge: replaying under another
        # challenge fails unless the PRP happens to pick the same leaf.
        leaf_a = prover.challenge_to_leaf(b"seed-A")
        other = next(
            s for s in (b"seed-B", b"seed-C", b"seed-D", b"seed-E")
            if prover.challenge_to_leaf(s) != leaf_a
        )
        assert not verifier.verify(other, proof, publics)

    def test_forged_publics_fail(self, strawman):
        _, _, prover, verifier = strawman
        seed = b"round-2"
        proof, publics, _ = prover.respond(seed)
        forged = list(publics)
        forged[1] = (forged[1] + 1)
        assert not verifier.verify(seed, proof, forged)

    def test_mismatched_data_rejected_at_init(self, strawman, rng):
        owner, setup_result, _, _ = strawman
        bad_blocks = list(owner.blocks)
        bad_blocks[0] = (bad_blocks[0] + 1)
        with pytest.raises(ValueError):
            StrawmanProver(bad_blocks, setup_result, rng=rng)

    def test_table2_shape(self, strawman):
        """Table II qualitative shape: params MB-ish >> proof, setup cost."""
        _, setup_result, _, _ = strawman
        assert setup_result.param_bytes > 50_000       # >> the HLA pk (~KB)
        assert setup_result.constraint_count > 500
        assert setup_result.sha256_equivalent > setup_result.constraint_count

    def test_exhaustion_attack(self, strawman):
        """Section IV-D: precompute every leaf's proof, drop the data,
        keep passing audits forever."""
        _, _, prover, verifier = strawman
        cached = prover.precompute_all_proofs()
        assert cached == prover.tree.num_leaves
        prover.discard_data()
        for round_index in range(5):
            seed = f"post-drop-{round_index}".encode()
            proof, publics, elapsed = prover.respond(seed)
            assert elapsed == 0.0  # served from cache: no data needed
            assert verifier.verify(seed, proof, publics)
