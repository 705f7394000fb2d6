"""Replay freshness: a proof valid in epoch e must fail in epoch e+1.

Covers the beacon-derived challenge freshness argument on both execution
surfaces — the sequential verifier path and the parallel engine's grouped
batch path (with failure pinpointing down to the replayed file).
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import ReplayingProver
from repro.core import DataOwner, ProtocolParams, Verifier, epoch_challenge
from repro.engine import AuditExecutor, AuditInstance, EpochScheduler
from repro.randomness import HashChainBeacon
from repro.sim.workloads import archive_file


@pytest.fixture(scope="module")
def replay_params():
    return ProtocolParams(s=4, k=3)


@pytest.fixture(scope="module")
def replay_packages(replay_params):
    rng = random.Random(0xF5E5)
    owner = DataOwner(replay_params, rng=rng)
    return [
        owner.prepare(
            archive_file(900, tag=f"replay-{i}").data, fresh_keypair=i == 0
        )
        for i in range(3)
    ]


class TestSequentialPath:
    def test_epoch_e_proof_fails_in_epoch_e_plus_one(
        self, replay_params, replay_packages
    ):
        package = replay_packages[0]
        beacon = HashChainBeacon(b"replay-sequential")
        prover = ReplayingProver(
            package.chunked, package.public, list(package.authenticators)
        )
        verifier = Verifier(package.public, package.name, package.num_chunks)

        challenge_e = epoch_challenge(beacon.output(0), replay_params, package.name)
        proof = prover.respond_private(challenge_e)
        assert verifier.verify_private(challenge_e, proof)

        challenge_next = epoch_challenge(
            beacon.output(1), replay_params, package.name
        )
        replayed = prover.respond_private(challenge_next)
        assert replayed.to_bytes() == proof.to_bytes()
        outcome = verifier.verify_private(challenge_next, replayed)
        assert not outcome
        assert outcome.reason.code == "pairing-mismatch"


class TestParallelEnginePath:
    def test_unregistered_override_rejected_at_construction(
        self, replay_params, replay_packages
    ):
        instances = [AuditInstance.from_package(replay_packages[0])]
        with AuditExecutor(instances, workers=1) as executor:
            scheduler = EpochScheduler(
                executor, replay_params, HashChainBeacon(b"bad-override")
            )
            with pytest.raises(KeyError):
                scheduler.set_override(0xBEEF, lambda challenge, epoch: None)

    def test_replay_caught_by_grouped_batch_and_pinpointed(
        self, replay_params, replay_packages
    ):
        instances = [
            AuditInstance.from_package(p, owner_id="replay-owner")
            for p in replay_packages
        ]
        cheater = replay_packages[-1]
        prover = ReplayingProver(
            cheater.chunked, cheater.public, list(cheater.authenticators)
        )
        # workers=2: honest proofs come from the executor's prover threads
        # while the replayed one comes from the override.
        with AuditExecutor(instances, workers=2) as executor:
            scheduler = EpochScheduler(
                executor,
                replay_params,
                HashChainBeacon(b"replay-parallel"),
                rng=random.Random(99),
            )
            scheduler.set_override(
                cheater.name, lambda challenge, epoch: prover.respond_private(challenge)
            )
            first = scheduler.run_epoch(0)
            assert first.batch_ok  # the cached epoch-0 answer is honest
            assert first.rejected_names() == ()

            second = scheduler.run_epoch(1)
            assert not second.batch_ok
            assert second.batch_ok.checked == len(instances)
            rejections = second.batch_ok.failures
            assert [r.name for r in rejections] == [cheater.name]
            assert rejections[0].reason.code == "pairing-mismatch"
            assert second.rejected_names() == (cheater.name,)
            # honest files were unaffected across both epochs
            honest = {p.name for p in replay_packages[:-1]}
            assert honest.isdisjoint(second.rejected_names())
