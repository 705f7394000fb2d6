"""Per-round vs. checkpointed settlement: identical verdicts, provably.

Acceptance properties:

* across the adversary strategy suite, the checkpointed path accepts and
  rejects exactly the round set the per-round (individual Eq.-2) path
  does, epoch by epoch;
* a light client can verify inclusion of **any** round in a committed
  checkpoint from the commitment + one Merkle path;
* replaying a checkpoint whose served leaves were tampered with flags the
  inconsistency (the off-chain detection that precedes an on-chain fraud
  proof).
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import StrategySpec, make_prover
from repro.chain.light_client import CheckpointLightClient
from repro.core import DataOwner, ProtocolParams, Verifier
from repro.core.challenge import Challenge
from repro.engine import AuditExecutor, AuditInstance, EpochScheduler
from repro.randomness import HashChainBeacon
from repro.rollup import build_checkpoint, build_epoch_checkpoint
from repro.sim.workloads import archive_file

EPOCHS = 2

#: One provider per strategy; rho high enough that selective/bitrot get
#: caught within the run's challenge budget with near-certainty is NOT
#: assumed — equivalence must hold whatever the verdicts turn out to be.
STRATEGY_MIX = (
    StrategySpec("honest", count=2),
    StrategySpec("forge"),
    StrategySpec("replay"),
    StrategySpec("selective", rho=0.5),
    StrategySpec("bitrot", rho=0.5),
    StrategySpec("offline", rho=1.0),  # always silent: exercises withheld
)


@pytest.fixture(scope="module")
def adversarial_run(params):
    """Checkpointed epochs over the full strategy mix, plus raw materials
    for the independent per-round verification pass."""
    rng = random.Random(0x0DD5)
    owner = DataOwner(params, rng=rng)
    beacon = HashChainBeacon(b"equivalence-test")
    instances, provers, kinds = [], {}, {}
    serial = 0
    for spec in STRATEGY_MIX:
        for _ in range(spec.count):
            package = owner.prepare(
                archive_file(900, tag=f"equiv-{serial}").data,
                fresh_keypair=serial == 0,
            )
            instances.append(AuditInstance.from_package(package, owner_id="eq"))
            provers[package.name] = make_prover(
                spec.kind, package, rng=rng, rho=spec.rho
            )
            kinds[package.name] = spec.kind
            serial += 1
    with AuditExecutor(instances, workers=1) as executor:
        scheduler = EpochScheduler(
            executor, params, beacon, rng=rng
        )
        for name, kind in kinds.items():
            if kind != "honest":
                prover = provers[name]
                scheduler.set_override(
                    name,
                    lambda challenge, epoch, prover=prover: (
                        prover.respond_private(challenge)
                    ),
                )
        results = [scheduler.run_epoch(epoch) for epoch in range(EPOCHS)]
    return {
        "bundles": [build_epoch_checkpoint(result) for result in results],
        "params": params,
        "beacon": beacon,
        "instances": instances,
        "kinds": kinds,
        "results": results,
    }


def _per_round_verdicts(run, result) -> dict[int, bool]:
    """The pre-rollup ground truth: one individual Eq.-2 check per round."""
    params = run["params"]
    verdicts: dict[int, bool] = {name: False for name in result.withheld}
    by_name = {instance.name: instance for instance in run["instances"]}
    for outcome in result.outcomes:
        instance = by_name[outcome.name]
        verifier = Verifier(instance.public, instance.name, instance.num_chunks)
        verdicts[outcome.name] = bool(
            verifier.verify_private(
                result.challenges[outcome.name], outcome.proof()
            )
        )
    return verdicts


class TestVerdictEquivalence:
    def test_checkpoint_verdicts_match_per_round_path(self, adversarial_run):
        saw_reject = saw_accept = False
        for result, bundle in zip(
            adversarial_run["results"], adversarial_run["bundles"]
        ):
            expected = _per_round_verdicts(adversarial_run, result)
            committed = {r.name: r.verdict for r in bundle.records}
            assert committed == expected, (
                f"epoch {result.epoch}: checkpointed verdicts diverge from "
                f"the per-round path"
            )
            saw_reject |= not all(expected.values())
            saw_accept |= any(expected.values())
            # Counts in the on-chain commitment match too.
            assert bundle.checkpoint.accepted == sum(expected.values())
            assert bundle.checkpoint.rejected == len(expected) - sum(
                expected.values()
            )
        # The mix must actually exercise both verdict classes.
        assert saw_reject and saw_accept

    def test_forge_and_offline_always_rejected(self, adversarial_run):
        kinds = adversarial_run["kinds"]
        for bundle in adversarial_run["bundles"]:
            for record in bundle.records:
                kind = kinds[record.name]
                if kind == "forge":
                    assert not record.verdict
                if kind == "offline":
                    assert not record.verdict and record.withheld
                    assert record.reject_code == "no-proof"
                if kind == "honest":
                    assert record.verdict

    def test_replay_rejected_after_first_epoch(self, adversarial_run):
        kinds = adversarial_run["kinds"]
        replayer = next(n for n, k in kinds.items() if k == "replay")
        first = adversarial_run["bundles"][0].record_for(replayer)
        second = adversarial_run["bundles"][1].record_for(replayer)
        assert first.verdict          # honest answer in its first epoch
        assert not second.verdict     # stale proof against a fresh challenge


class TestLightClientInclusion:
    def test_every_round_verifiable_from_commitment(self, adversarial_run):
        registry = {
            instance.name: (instance.public.to_bytes(), instance.num_chunks)
            for instance in adversarial_run["instances"]
        }
        client = CheckpointLightClient(
            registry, adversarial_run["params"], adversarial_run["beacon"]
        )
        for bundle in adversarial_run["bundles"]:
            for record in bundle.records:
                outcome = client.verify_inclusion(
                    bundle.checkpoint, bundle.prove(record.name)
                )
                assert outcome.ok, (record.name, outcome.reason)

    def test_replay_flags_tampered_leaf_set(self, adversarial_run):
        registry = {
            instance.name: (instance.public.to_bytes(), instance.num_chunks)
            for instance in adversarial_run["instances"]
        }
        client = CheckpointLightClient(
            registry, adversarial_run["params"], adversarial_run["beacon"]
        )
        bundle = adversarial_run["bundles"][0]
        # Honest replay: consistent.
        clean = client.replay_checkpoint(bundle.checkpoint, bundle.records)
        assert clean.consistent
        assert clean.rounds_checked == len(bundle.records)
        # Aggregator serves leaves with one verdict flipped: the root no
        # longer matches AND the flipped leaf's verdict disagrees.
        tampered = list(bundle.records)
        tampered[0] = tampered[0].flipped()
        report = client.replay_checkpoint(bundle.checkpoint, tuple(tampered))
        assert not report.consistent
        assert report.root_mismatches == [bundle.checkpoint.epoch]
        assert (bundle.checkpoint.epoch, tampered[0].name) in report.disagreements

    def test_forged_commitment_fails_inclusion_against_true_root(
        self, adversarial_run
    ):
        registry = {
            instance.name: (instance.public.to_bytes(), instance.num_chunks)
            for instance in adversarial_run["instances"]
        }
        client = CheckpointLightClient(
            registry, adversarial_run["params"], adversarial_run["beacon"]
        )
        bundle = adversarial_run["bundles"][0]
        records = list(bundle.records)
        records[0] = records[0].flipped()
        forged = build_checkpoint(bundle.checkpoint.epoch, tuple(records))
        # The forged leaf is included in the forged tree — but its verdict
        # does not survive independent re-verification.
        outcome = client.verify_inclusion(
            forged.checkpoint, forged.prove(records[0].name)
        )
        assert not outcome.ok and outcome.reason == "verdict-flipped"
        # And the forged leaf cannot be proven into the *true* root.
        crossed = client.verify_inclusion(
            bundle.checkpoint, forged.prove(records[0].name)
        )
        assert not crossed.ok and crossed.reason == "not-included"
