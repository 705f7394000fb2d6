"""Parallel audit engine: determinism and grouped batching."""

from __future__ import annotations

import random

import pytest

from repro.core import (
    BatchItem,
    DataOwner,
    ProtocolParams,
    Verifier,
    corrupt_chunk,
    epoch_challenge,
    verify_batch_grouped,
    verify_sequential,
)
from repro.crypto.bn254 import PROCESS_CACHE
from repro.engine import (
    AuditExecutor,
    AuditInstance,
    EpochScheduler,
    ProveTask,
)
from repro.randomness import HashChainBeacon

PARAMS = ProtocolParams(s=5, k=3)


def _make_fleet(owners: int = 2, files: int = 2, seed: int = 9):
    rng = random.Random(seed)
    instances = []
    for owner_index in range(owners):
        owner = DataOwner(PARAMS, rng=rng)
        for file_index in range(files):
            package = owner.prepare(
                bytes([17 + owner_index * files + file_index]) * 700,
                fresh_keypair=file_index == 0,
            )
            instances.append(
                AuditInstance.from_package(package, owner_id=f"owner-{owner_index}")
            )
    return instances


@pytest.fixture(scope="module")
def fleet():
    return _make_fleet()


def _run_epoch(instances, workers: int):
    with AuditExecutor(instances, workers=workers) as executor:
        scheduler = EpochScheduler(
            executor,
            PARAMS,
            HashChainBeacon(b"engine-test"),
            deterministic=True,  # test-only: makes proofs comparable bytewise
            rng=random.Random(2),
        )
        return scheduler.run_epoch(0)


class TestDeterminism:
    def test_parallel_matches_sequential_bit_for_bit(self, fleet):
        """The headline engine guarantee: threaded results == inline results."""
        inline = _run_epoch(fleet, workers=1)
        threaded = _run_epoch(fleet, workers=2)
        assert inline.batch_ok and threaded.batch_ok
        assert inline.proof_bytes() == threaded.proof_bytes()

    def test_production_default_uses_fresh_nonces(self, fleet):
        """deterministic=False (the default): publicly derivable nonces
        would let observers strip the privacy mask, so the same epoch run
        twice must yield different Sigma commitments."""

        def run():
            with AuditExecutor(fleet, workers=1) as executor:
                scheduler = EpochScheduler(
                    executor,
                    PARAMS,
                    HashChainBeacon(b"engine-test"),
                    rng=random.Random(2),
                )
                return scheduler.run_epoch(0)

        first, second = run(), run()
        assert first.batch_ok and second.batch_ok
        assert first.proof_bytes() != second.proof_bytes()

    def test_epochs_produce_distinct_proofs(self, fleet):
        with AuditExecutor(fleet, workers=1) as executor:
            scheduler = EpochScheduler(
                executor,
                PARAMS,
                HashChainBeacon(b"engine-test"),
                deterministic=True,
                rng=random.Random(2),
            )
            first, second = scheduler.run_epoch(0), scheduler.run_epoch(1)
        assert first.batch_ok and second.batch_ok
        assert first.proof_bytes() != second.proof_bytes()

    def test_shared_evaluation_point_per_epoch(self, fleet):
        beacon = HashChainBeacon(b"engine-test")
        challenges = [
            epoch_challenge(beacon.output(0), PARAMS, instance.name)
            for instance in fleet
        ]
        points = {challenge.point for challenge in challenges}
        assert len(points) == 1
        seeds = {challenge.c1 for challenge in challenges}
        assert len(seeds) == len(fleet)  # per-file challenged sets


class TestGroupedBatchVerify:
    def test_matches_sequential_verdict(self, fleet):
        result = _run_epoch(fleet, workers=1)
        items = [
            BatchItem(
                public=instance.public,
                name=instance.name,
                num_chunks=instance.num_chunks,
                challenge=result.challenges[instance.name],
                proof=outcome.proof(),
            )
            for instance, outcome in zip(fleet, result.outcomes)
        ]
        assert verify_sequential(items)
        assert verify_batch_grouped(items, rng=random.Random(4))

    def test_detects_single_bad_proof(self, fleet):
        result = _run_epoch(fleet, workers=1)
        items = []
        for index, (instance, outcome) in enumerate(zip(fleet, result.outcomes)):
            proof = outcome.proof()
            if index == 1:  # swap in another instance's sigma
                other = result.outcomes[0].proof()
                from repro.core import PrivateProof

                proof = PrivateProof(
                    sigma=other.sigma,
                    y_masked=proof.y_masked,
                    psi=proof.psi,
                    commitment=proof.commitment,
                )
            items.append(
                BatchItem(
                    public=instance.public,
                    name=instance.name,
                    num_chunks=instance.num_chunks,
                    challenge=result.challenges[instance.name],
                    proof=proof,
                )
            )
        assert not verify_batch_grouped(items, rng=random.Random(4))

    def test_detects_data_loss(self):
        """A provider proving over corrupted data fails the grouped check."""
        rng = random.Random(31)
        owner = DataOwner(PARAMS, rng=rng)
        package = owner.prepare(b"\x2a" * 700)
        corrupted = corrupt_chunk(package.chunked, chunk_index=0)
        instance = AuditInstance(
            owner_id="corrupt",
            name=package.name,
            public=package.public,
            chunked=corrupted,
            authenticators=package.authenticators,
        )
        result = _run_epoch([instance], workers=1)
        assert not result.batch_ok


class TestExecutor:
    def test_unknown_file_rejected(self, fleet):
        with AuditExecutor(fleet, workers=1) as executor:
            task = ProveTask(name=0xDEAD, challenge_bytes=b"\x00" * 48, k=3)
            with pytest.raises(KeyError):
                executor.prove([task])

    def test_duplicate_registration_rejected(self, fleet):
        with pytest.raises(ValueError):
            AuditExecutor([fleet[0], fleet[0]])

    def test_unregister_releases_what_only_the_retired_instance_could_look_up(
        self, fleet
    ):
        """The process has one cache; retiring an instance returns it to its
        size before the instance arrived and evicts nothing a registered
        instance still reads."""
        resident, same_owner, _, other_owner = fleet

        def sizes(cache):
            return tuple(
                len(table)
                for table in (cache._gt, cache._digests, cache._prepared, cache._wnaf)
            )

        with AuditExecutor([resident], workers=1) as executor:
            cache = PROCESS_CACHE
            scheduler = EpochScheduler(
                executor,
                PARAMS,
                HashChainBeacon(b"engine-test"),
                deterministic=True,
                rng=random.Random(2),
            )
            # The same epoch every time: the same challenged chunks, so the
            # resident's own tables do not grow between the readings.
            assert scheduler.run_epoch(0).batch_ok
            before = sizes(cache)
            assert all(before)
            executor.register(same_owner)
            executor.register(other_owner)
            assert scheduler.run_epoch(0).batch_ok
            grown = sizes(cache)
            assert all(now > then for now, then in zip(grown, before))

            executor.unregister(other_owner.name)  # the last of its owner key
            assert other_owner.public.pairing_base not in cache._gt
            assert other_owner.public.epsilon not in cache._prepared
            executor.unregister(same_owner.name)   # its key is still in use
            assert sizes(cache) == before
            assert resident.public == same_owner.public
            assert resident.public.pairing_base in cache._gt
            assert {resident.public.epsilon, resident.public.delta} <= set(
                cache._prepared
            )
            misses = cache.stats.misses
            assert scheduler.run_epoch(0).batch_ok
            assert cache.stats.misses == misses  # nothing had to be rebuilt

    def test_workers_resolution(self, fleet):
        assert AuditExecutor(fleet, workers=3).workers == 3
        assert AuditExecutor(fleet, workers=0).workers >= 1
        with pytest.raises(ValueError):
            AuditExecutor(fleet, workers=-1)

