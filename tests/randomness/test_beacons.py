"""Beacons: determinism, the last-revealer bias attack, the VDF fix."""

from __future__ import annotations

import dataclasses
import random

import pytest

from beacons import (  # benchmarks/paper
    BeaconConsumer,
    BlindLastRevealer,
    CommitRevealBeacon,
    CommitRevealRound,
    LastRevealerAttacker,
    MaliciousBeacon,
    TrustedBeacon,
    VdfBeacon,
    WesolowskiVdf,
    combine_reveals,
    hash_to_prime,
)
from beacons.vdf import is_probable_prime
from repro.randomness import HashChainBeacon


class TestHashChainBeacon:
    def test_deterministic_and_distinct(self):
        beacon = HashChainBeacon(b"seed")
        assert beacon.output(1) == beacon.output(1)
        assert beacon.output(1) != beacon.output(2)
        assert len(beacon.output(0)) == 32

    def test_seed_separation(self):
        assert HashChainBeacon(b"a").output(1) != HashChainBeacon(b"b").output(1)


class TestMaliciousBeacon:
    def test_scripted_rounds_override(self):
        fallback = HashChainBeacon(b"x")
        beacon = MaliciousBeacon({3: b"E" * 32}, fallback)
        assert beacon.output(3) == b"E" * 32
        assert beacon.output(4) == fallback.output(4)
        beacon.script(4, b"F" * 32)
        assert beacon.output(4) == b"F" * 32


class TestCommitReveal:
    def test_protocol_flow(self):
        beacon = CommitRevealBeacon(["a", "b", "c"], b"s")
        assert beacon.output(0) != beacon.output(1)

    def test_reveal_must_match_commitment(self):
        rnd = CommitRevealRound()
        from beacons.commit_reveal import _commitment

        rnd.commit("p", _commitment(b"value", b"salt"))
        rnd.start_reveal()
        with pytest.raises(ValueError):
            rnd.reveal("p", b"other", b"salt")

    def test_double_commit_rejected(self):
        rnd = CommitRevealRound()
        rnd.commit("p", b"c1")
        with pytest.raises(RuntimeError):
            rnd.commit("p", b"c2")

    def test_withholder_forfeits_deposit(self):
        from beacons.commit_reveal import _commitment

        rnd = CommitRevealRound(deposit=42)
        rnd.commit("honest", _commitment(b"v1", b"s1"))
        rnd.commit("cheat", _commitment(b"v2", b"s2"))
        rnd.start_reveal()
        rnd.reveal("honest", b"v1", b"s1")
        rnd.finalize()
        assert rnd.forfeited == {"cheat": 42}

    def test_phase_guards(self):
        rnd = CommitRevealRound()
        with pytest.raises(RuntimeError):
            rnd.reveal("p", b"v", b"s")
        with pytest.raises(RuntimeError):
            rnd.finalize()


class TestLastRevealerBias:
    def test_attack_beats_chance(self):
        rng = random.Random(9)
        attacker = LastRevealerAttacker()
        predicate = lambda out: out[-1] & 1 == 0
        for _ in range(300):
            honest = [rng.randbytes(16) for _ in range(3)]
            attacker.play(honest, rng.randbytes(16), predicate)
        # Two candidate outputs -> ~3/4 success; honest play would be 1/2.
        assert attacker.stats.success_rate > 0.65
        assert attacker.stats.deposits_lost > 0

    def test_attacker_keeps_deposit_when_pointless(self):
        attacker = LastRevealerAttacker()
        attacker.play([b"h" * 16], b"o" * 16, lambda out: False)
        assert attacker.stats.deposits_lost == 0
        assert attacker.stats.successes == 0


class TestVdf:
    @pytest.fixture(scope="class")
    def vdf(self):
        return WesolowskiVdf.from_seed(b"test-vdf", bits=256, delay=128)

    def test_evaluate_verify_roundtrip(self, vdf):
        proof = vdf.evaluate(b"input-1")
        assert vdf.verify(b"input-1", proof)

    def test_wrong_input_rejected(self, vdf):
        proof = vdf.evaluate(b"input-1")
        assert not vdf.verify(b"input-2", proof)

    def test_tampered_output_rejected(self, vdf):
        proof = vdf.evaluate(b"input-3")
        assert not vdf.verify(
            b"input-3", dataclasses.replace(proof, output=proof.output + 1)
        )
        assert not vdf.verify(
            b"input-3", dataclasses.replace(proof, proof=proof.proof + 1)
        )

    def test_deterministic(self, vdf):
        assert vdf.evaluate(b"x").output == vdf.evaluate(b"x").output

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            WesolowskiVdf(2, 0)

    def test_hash_to_prime(self):
        prime = hash_to_prime(b"data")
        assert is_probable_prime(prime)
        assert prime.bit_length() == 128
        assert hash_to_prime(b"data") == prime

    def test_miller_rabin_known_values(self):
        assert is_probable_prime(2)
        assert is_probable_prime(97)
        assert is_probable_prime(2**127 - 1)
        assert not is_probable_prime(1)
        assert not is_probable_prime(561)      # Carmichael number
        assert not is_probable_prime(2**16)


class TestVdfBeacon:
    def test_outputs_distinct(self):
        vdf = WesolowskiVdf.from_seed(b"b", bits=256, delay=64)
        beacon = VdfBeacon(vdf, ["a", "b"], b"seed")
        assert beacon.output(0) != beacon.output(1)
        assert beacon.cost_usd == 0.01  # paper: HydRand-style ~ $0.01

    def test_bias_collapses_to_chance(self):
        """The paper's point: a VDF finaliser blinds the last revealer."""
        rng = random.Random(10)
        vdf = WesolowskiVdf.from_seed(b"blind", bits=256, delay=64)
        attacker = BlindLastRevealer(vdf)
        predicate = lambda out: out[-1] & 1 == 0
        for _ in range(150):
            honest = [rng.randbytes(16) for _ in range(3)]
            attacker.play(honest, rng.randbytes(16), predicate)
        assert 0.35 < attacker.stats.success_rate < 0.65


class TestTrustedBeacon:
    def test_signature_verifies(self):
        beacon = TrustedBeacon(b"key", b"seed")
        consumer = BeaconConsumer(b"key")
        signed = beacon.emit(7)
        assert consumer.verify(signed)

    def test_forged_value_rejected(self):
        beacon = TrustedBeacon(b"key", b"seed")
        consumer = BeaconConsumer(b"key")
        signed = beacon.emit(7)
        assert not consumer.verify(dataclasses.replace(signed, value=b"z" * 32))

    def test_wrong_key_rejected(self):
        beacon = TrustedBeacon(b"key", b"seed")
        assert not BeaconConsumer(b"other").verify(beacon.emit(1))


def test_combine_reveals_order_sensitive():
    assert combine_reveals([b"a", b"b"]) != combine_reveals([b"b", b"a"])
