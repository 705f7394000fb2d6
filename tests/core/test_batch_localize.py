"""A failed batch is bisected to its bad proofs, and says what the walk says.

``verify_batch_grouped`` localizes a failed product by adaptive bisection
over subset products (``core.batch._bisect``); ``verify_sequential`` is the
walk — every item's lone check — and the oracle.  These tests hold the two
to each other field for field, hold the checkpoint light client's grouped
replay to its lone-check reference, and pin what localization costs in
final exponentiations, a count that does not depend on the host.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.light_client import CheckpointLightClient, CheckpointReplayReport
from repro.core import (
    BatchItem,
    DataOwner,
    ProtocolParams,
    Prover,
    random_challenge,
    verify_batch_grouped,
    verify_sequential,
)
from repro.core.batch import _bisect
from repro.core.challenge import epoch_challenge
from repro.crypto.bn254 import G1Point
from repro.obs.hotpath import HOTPATH
from repro.randomness import HashChainBeacon
from repro.rollup.checkpoint import build_checkpoint
from repro.rollup.records import RoundRecord

PARAMS = ProtocolParams(s=3, k=2)
OWNERS, FILES, CHALLENGES = 3, 2, 4

TAMPERS = ("sigma", "y", "psi", "R", "other-challenge", "other-file")


@dataclasses.dataclass(repr=False)  # hypothesis prints fixtures too
class Entry:
    package: object
    prover: Prover
    proofs: list  # (challenge, private proof), CHALLENGES of them


@pytest.fixture(scope="module")
def pool():
    """``OWNERS`` keys x ``FILES`` files, each with ``CHALLENGES`` answered
    challenges; ``pool[owner][file]``."""
    rng = random.Random(3700)
    owners = []
    for owner_index in range(OWNERS):
        owner = DataOwner(PARAMS, rng=rng)
        entries = []
        for file_index in range(FILES):
            package = owner.prepare(
                bytes([16 * owner_index + file_index + 1]) * 300,
                fresh_keypair=file_index == 0,
            )
            prover = Prover(
                package.chunked, package.public, list(package.authenticators), rng=rng
            )
            proofs = []
            for _ in range(CHALLENGES):
                challenge = random_challenge(PARAMS, rng=rng)
                proofs.append((challenge, prover.respond_private(challenge)))
            entries.append(Entry(package, prover, proofs))
        owners.append(entries)
    return owners


def _item(pool, owner, file, answer, tamper) -> BatchItem:
    entry = pool[owner][file]
    package = entry.package
    challenge, proof = entry.proofs[answer]
    name = package.name
    other_answer = entry.proofs[(answer + 1) % CHALLENGES]
    if tamper == "sigma":
        proof = dataclasses.replace(proof, sigma=other_answer[1].sigma)
    elif tamper == "y":
        proof = dataclasses.replace(proof, y_masked=proof.y_masked ^ 1)
    elif tamper == "psi":
        proof = dataclasses.replace(proof, psi=proof.psi + G1Point.generator())
    elif tamper == "R":
        proof = dataclasses.replace(proof, commitment=other_answer[1].commitment)
    elif tamper == "other-challenge":
        proof = other_answer[1]
    elif tamper == "other-file":
        name = pool[owner][(file + 1) % FILES].package.name
    return BatchItem(package.public, name, package.num_chunks, challenge, proof)


def _batch(owners: int):
    """1-24 statements under the first ``owners`` keys, any subset tampered."""
    return st.lists(
        st.tuples(
            st.integers(0, owners - 1),
            st.integers(0, FILES - 1),
            st.integers(0, CHALLENGES - 1),
            st.sampled_from((None,) * 3 + TAMPERS),
        ),
        min_size=1,
        max_size=24,
    )


_PICKS = st.integers(1, OWNERS).flatmap(_batch)


def _final_exponentiations(run) -> tuple[object, int]:
    HOTPATH.reset()
    HOTPATH.enable()
    try:
        result = run()
        calls = HOTPATH.snapshot().get("bn254.final_exp", {}).get("calls", 0)
    finally:
        HOTPATH.disable()
        HOTPATH.reset()
    return result, calls


@dataclasses.dataclass(frozen=True)
class _Product:
    """A subset product in the cost model: the failing items it holds.
    Disjoint products multiply by union; a subset's inverse cancels it
    out of any superset (symmetric difference does both)."""

    failing: frozenset

    def is_one(self) -> bool:
        return not self.failing

    def inverse(self) -> "_Product":
        return self

    def __mul__(self, other: "_Product") -> "_Product":
        return _Product(self.failing ^ other.failing)


def _model_cost(count: int, bad: set[int]) -> int:
    """Final exponentiations of localizing ``bad`` among ``count`` items
    after the batch's own product: one per subset product, one per lone
    check, three per residual legs."""
    cost = 0

    def product(indices):
        nonlocal cost
        cost += 1
        return _Product(frozenset(bad.intersection(indices)))

    def judge(index):
        nonlocal cost
        cost += 1 + 3 * (index in bad)
        return _Product(frozenset(bad.intersection([index])))

    def condemn(index):
        nonlocal cost
        assert index in bad
        cost += 3

    _bisect(count, product, judge, condemn, _Product(frozenset(bad)))
    return cost


@settings(max_examples=12, deadline=None)
@given(picks=_PICKS, seed=st.integers(0, 2**32))
def test_localized_failures_equal_the_walk_field_for_field(pool, picks, seed):
    items = [_item(pool, *pick) for pick in picks]
    walk = verify_sequential(items)
    seeded, calls = _final_exponentiations(
        lambda: verify_batch_grouped(items, rng=random.Random(seed))
    )
    fresh = verify_batch_grouped(items)
    assert seeded == fresh == walk
    assert [r.index for r in walk.failures] == [
        i for i, pick in enumerate(picks) if pick[3] is not None
    ]
    # What was paid is what the search's own cost model predicts.
    bad = {rejection.index for rejection in walk.failures}
    assert calls == 1 + (_model_cost(len(items), bad) if bad else 0)


LEAVES = ("honest", "forged", "flipped", "withheld", "malformed")


@pytest.fixture(scope="module")
def checkpoint_world(pool):
    beacon = HashChainBeacon(b"batch-localize")
    entries = [entry for owner in pool for entry in owner]
    registry = {
        entry.package.name: (entry.package.public.to_bytes(), entry.package.num_chunks)
        for entry in entries
    }
    return beacon, entries, registry


def _leaf(entry, epoch, beacon, kind, claimed) -> RoundRecord:
    challenge = epoch_challenge(beacon.output(epoch), PARAMS, entry.package.name)
    proof = entry.prover.respond_private(challenge)
    if kind == "forged":
        proof = dataclasses.replace(proof, y_masked=proof.y_masked ^ 1)
    proof_bytes = {
        "withheld": b"",
        "malformed": b"\xff" * len(proof.to_bytes()),
    }.get(kind, proof.to_bytes())
    # An honest leaf tells the truth and a flipped one lies; the others
    # claim whatever they claim.
    verdict = {"honest": True, "flipped": False}.get(kind, claimed)
    return RoundRecord(
        name=entry.package.name,
        epoch=epoch,
        challenge_bytes=challenge.to_bytes(),
        proof_bytes=proof_bytes,
        verdict=verdict,
        reject_code="" if verdict else "pairing-mismatch",
    )


@settings(max_examples=10, deadline=None)
@given(
    kinds=st.lists(
        st.tuples(st.sampled_from(LEAVES), st.booleans()),
        min_size=OWNERS * FILES,
        max_size=OWNERS * FILES,
    ),
    epoch=st.integers(0, 3),
)
def test_grouped_checkpoint_replay_equals_the_per_leaf_one(
    checkpoint_world, kinds, epoch
):
    beacon, entries, registry = checkpoint_world
    bundle = build_checkpoint(
        epoch,
        tuple(
            _leaf(entry, epoch, beacon, kind, claimed)
            for entry, (kind, claimed) in zip(entries, kinds)
        ),
    )
    commitment = bundle.checkpoint
    reference_client = CheckpointLightClient(registry, PARAMS, beacon)
    reference = CheckpointReplayReport(checkpoints_checked=1)
    for record in bundle.records:
        reference.rounds_checked += 1
        if reference_client.check_record(commitment, record).ok:
            reference.agreements += 1
        else:
            reference.disagreements.append((commitment.epoch, record.name))
    client = CheckpointLightClient(registry, PARAMS, beacon)
    grouped = client.replay_checkpoint(commitment, bundle.records)
    assert grouped == reference
    lies = sum(
        kind == "flipped" or (kind != "honest" and claimed)
        for kind, claimed in kinds
    )
    assert len(grouped.disagreements) == lies


# --------------------------------------------------------------------------- #
# Cost: final exponentiations, counted                                        #
# --------------------------------------------------------------------------- #


def _one_key_batch(pool, count, bad):
    entry = pool[0][0]
    package = entry.package
    rng = random.Random(3701)
    items = []
    for index in range(count):
        challenge = random_challenge(PARAMS, rng=rng)
        proof = entry.prover.respond_private(challenge)
        if index in bad:
            proof = dataclasses.replace(proof, y_masked=proof.y_masked ^ 1)
        items.append(
            BatchItem(
                package.public, package.name, package.num_chunks, challenge, proof
            )
        )
    return items


def test_two_adjacent_cheaters_in_sixteen_localize_in_ten(pool):
    items = _one_key_batch(pool, 16, {0, 1})
    walk, walk_calls = _final_exponentiations(lambda: verify_sequential(items))
    grouped, calls = _final_exponentiations(
        lambda: verify_batch_grouped(items, rng=random.Random(1))
    )
    assert grouped.failures == walk.failures and grouped.rejected_names()
    assert walk_calls == 22
    assert calls - 1 == 10  # the batch's own product, then localization


@pytest.mark.parametrize("count", range(1, 13))
def test_localization_never_costs_more_than_the_walk(count):
    for size in range(1, count + 1):
        for bad in itertools.combinations(range(count), size):
            assert _model_cost(count, set(bad)) <= count + 3 * size, bad


def test_an_honest_checkpoint_replays_with_one_final_exponentiation():
    rng = random.Random(3702)
    owner = DataOwner(PARAMS, rng=rng)
    beacon = HashChainBeacon(b"honest-sixteen")
    records, registry = [], {}
    for index in range(16):
        package = owner.prepare(bytes([index + 1]) * 200, fresh_keypair=index == 0)
        prover = Prover(
            package.chunked, package.public, list(package.authenticators), rng=rng
        )
        registry[package.name] = (package.public.to_bytes(), package.num_chunks)
        records.append(_leaf(Entry(package, prover, []), 0, beacon, "honest", True))
    bundle = build_checkpoint(0, tuple(records))
    client = CheckpointLightClient(registry, PARAMS, beacon)
    report, calls = _final_exponentiations(
        lambda: client.replay_checkpoint(bundle.checkpoint, bundle.records)
    )
    assert report.consistent and report.agreements == 16
    assert calls == 1
