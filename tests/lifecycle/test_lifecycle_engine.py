"""The long-horizon engine: determinism, durability, eviction, settlement.

One moderately-churny run is shared module-wide (engine runs are the
expensive fixture); separate small runs cover determinism and edge
behaviour.  Every assertion here maps to an acceptance criterion of the
lifecycle issue: same seed ⇒ same trail + state hash, zero shards lost
while churn ≤ erasure tolerance, every evicted provider has an on-chain
slashing record, and every epoch settles through the checkpoint rollup.
"""

from __future__ import annotations

import pytest

from repro.chain.contracts.audit_contract import AuditContract
from repro.chain.contracts.checkpoint_contract import (
    CheckpointContract,
    CheckpointStatus,
)
from repro.crypto.bn254 import PROCESS_CACHE
from repro.lifecycle import LifecycleConfig, LifecycleEngine
from repro.obs import MetricsRegistry, register_core_instruments
from state_oracles import fabric_state_hash, state_hash_v1, state_hash_v2

BASE = dict(
    years=1.0,
    epochs_per_year=4,
    files=1,
    file_bytes=400,
    erasure_n=3,
    erasure_k=2,
    providers=6,
    lanes=2,
    seed=13,
    s=3,
    k=2,
    churn=0.5,
    flake_rate=0.6,
    flake_rho=0.9,
)


def _registrations(engine) -> dict[str, tuple[int, int]]:
    """Trail-style name prefix -> (lane, name) of every instance the lanes'
    checkpoint contracts hold."""
    held = {}
    for lane_id, (_, address) in engine.lane_settlement.items():
        contract = engine.fabric.lane(lane_id).contract_at(address)
        for name in contract.export_instance_registry():
            held[f"{name:#x}"[:14]] = (lane_id, name)
    return held


@pytest.fixture(scope="module")
def finished():
    """One churny 4-epoch run plus its (kept-alive) engine."""
    engine = LifecycleEngine(LifecycleConfig(**BASE))
    outcome = engine.run()
    yield engine, outcome
    engine.close()


class TestDeterminism:
    def test_base_run_digests_are_the_ones_captured_at_34f8142(self, finished):
        """Known answers for the trail and every contract / registry
        attribute ``state_hash`` walks.  They moved once since they were
        captured, when the engine stopped deploying a dormant Fig. 2
        contract per shard: those contracts and their accounts left the
        chain state, and the ``rekeyed`` event lost its ``contract=``
        field.  Every verdict, repair and eviction stayed where it was.

        The ``c54da3bb…`` state literal is a ``chain-state-v1`` digest and
        is held against the v1 oracle's whole-history walk of the finished
        fabric: the state did not move.  ``state_hash`` is now
        ``chain-state-v2`` (sealed blocks and events enter as running hash
        chains), so the outcome's literal is new, and it must equal a
        from-scratch v2 fold of the same fabric."""
        engine, outcome = finished
        assert outcome.trail_digest == (
            "054dca6d66654426a5a07179ea8f1b5ce963b9d2096d95f91e48d8daedce148d"
        )
        assert fabric_state_hash(engine.fabric, state_hash_v1) == (
            "c54da3bbe9ced077e01987dc28b356362f21b9b8e0a13c8525489c2d76238b02"
        )
        assert outcome.state_hash == (
            "cca239bd98509140b81aa5481cf238bebdfdcea388c0dcaa6ec73db9932a3e2f"
        )
        assert outcome.state_hash == fabric_state_hash(engine.fabric, state_hash_v2)

    def test_same_seed_same_trail_and_state(self, finished):
        _, reference = finished
        repeat = LifecycleEngine(LifecycleConfig(**BASE)).run()
        assert repeat.trail_digest == reference.trail_digest
        assert repeat.state_hash == reference.state_hash
        assert repeat.trail.to_lines() == reference.trail.to_lines()

    def test_prover_threads_leave_trail_and_state_unchanged(self, finished):
        """``workers`` is an execution knob: with two, every epoch's proofs
        come from the executor's prover threads, and the run is the same run."""
        _, reference = finished
        engine = LifecycleEngine(LifecycleConfig(**{**BASE, "workers": 2}))
        try:
            assert engine.executor.workers == 2
            threaded = engine.run()
        finally:
            engine.close()
        assert threaded.trail_digest == reference.trail_digest
        assert threaded.state_hash == reference.state_hash

    def test_different_seed_diverges(self, finished):
        _, reference = finished
        other = LifecycleEngine(
            LifecycleConfig(**{**BASE, "seed": 14})
        ).run()
        assert other.trail_digest != reference.trail_digest


class TestDurability:
    def test_no_file_lost_under_tolerable_churn(self, finished):
        _, outcome = finished
        assert outcome.files_intact
        config = LifecycleConfig(**BASE)
        floor = min(s.min_healthy_shards for s in outcome.summaries)
        assert floor >= config.erasure_k

    def test_every_rejected_audit_is_repaired_or_deferred(self, finished):
        _, outcome = finished
        rejected = sum(s.rejected for s in outcome.summaries)
        repaired = sum(s.repaired for s in outcome.summaries)
        deferred = sum(s.deferred for s in outcome.summaries)
        assert rejected > 0, "the churny fixture must exercise failures"
        # Graceful leaves also repair, so repaired can exceed rejected.
        assert repaired + deferred >= rejected

    def test_a_retired_shard_leaves_no_tables_behind(self):
        """Every repair re-keys a shard; the process cache ends the run
        holding tables for the live fleet only, and the
        ``crypto_precompute_entries`` gauges say so."""
        engine = LifecycleEngine(LifecycleConfig(**{**BASE, "years": 2.0}))
        outcome = engine.run()
        live = engine.executor.instances
        gauges = register_core_instruments(MetricsRegistry()).snapshot()
        entries = {
            series["labels"]["kind"]: series["value"]
            for series in gauges["crypto_precompute_entries"]["series"]
        }
        assert outcome.total_repairs >= 5
        assert 0 < entries["gt"] <= len(live)
        # epsilon and delta per live key, plus the g2 generator
        assert 0 < entries["g2lines"] <= 2 * len(live) + 1
        assert entries["digest"] == len(PROCESS_CACHE._digests) > 0
        assert {name for name, _ in PROCESS_CACHE._digests} <= set(live)
        engine.close()

    def test_repair_rekeys_and_redeploys(self, finished):
        engine, outcome = finished
        rekeys = outcome.trail.of_kind("rekeyed")
        repairs = outcome.trail.of_kind("repaired")
        assert len(rekeys) == len(repairs) > 0
        registered = _registrations(engine)
        for event in rekeys:
            assert event.get("old") != event.get("new")
            # the replacement registers on its home lane's checkpoint
            # contract at its first settle (after the last epoch: never)
            if event.epoch < outcome.epochs_run:
                lane_id, name = registered[event.get("new")]
                assert lane_id == engine.fabric.lane_index_for(name)

    def test_repair_target_never_equals_source(self, finished):
        _, outcome = finished
        for event in outcome.trail.of_kind("repaired"):
            assert event.get("source") != event.get("target")


class TestEviction:
    def test_engine_evicts_under_churn(self, finished):
        _, outcome = finished
        assert outcome.total_evictions > 0

    def test_every_eviction_has_an_onchain_slashing_record(self, finished):
        engine, outcome = finished
        evicted = {e.subject for e in outcome.trail.of_kind("evicted")}
        slashed_trail = {e.subject for e in outcome.trail.of_kind("slashed")}
        assert evicted <= slashed_trail
        # ...and the slash is a real on-chain event, not just trail talk.
        onchain = {
            event.payload["provider"]
            for event in engine.fabric.events_named("stake_slashed")
        }
        assert evicted <= onchain

    def test_evicted_providers_leave_the_cluster_and_hold_nothing(
        self, finished
    ):
        engine, outcome = finished
        for event in outcome.trail.of_kind("evicted"):
            name = event.subject
            assert name not in {
                audit.provider for audit in engine._shards.values()
            }


class TestSettlement:
    def test_every_epoch_settles_through_the_rollup(self, finished):
        engine, outcome = finished
        settled = outcome.trail.of_kind("settled")
        assert outcome.epochs_run == LifecycleConfig(**BASE).total_epochs
        assert len(settled) == outcome.epochs_run
        for event in settled:
            assert int(event.get("audits")) > 0
            assert event.get("root")

    def test_lane_contracts_hold_the_checkpoints(self, finished):
        engine, outcome = finished
        total = 0
        for lane_id, (_, address) in engine.lane_settlement.items():
            contract = engine.fabric.lane(lane_id).contract_at(address)
            assert isinstance(contract, CheckpointContract)
            total += len(contract.checkpoints)
            for entry in contract.checkpoints:
                assert entry.status in (
                    CheckpointStatus.OPEN,
                    CheckpointStatus.FINAL,
                )
        expected = sum(int(e.get("lanes")) for e in outcome.trail.of_kind("settled"))
        assert total == expected

    def test_old_checkpoints_finalize_and_release_bonds(self, finished):
        engine, _ = finished
        finalized = [
            entry
            for lane_id, (_, address) in engine.lane_settlement.items()
            for entry in engine.fabric.lane(lane_id)
            .contract_at(address)
            .checkpoints
            if entry.status is CheckpointStatus.FINAL
        ]
        assert finalized, "epochs beyond the fraud window must finalize"
        assert all(entry.bond_wei == 0 for entry in finalized)

    def test_fabric_super_commitment_covers_the_last_epoch(self, finished):
        engine, outcome = finished
        bundle = engine.last_fabric_bundle
        assert bundle.checkpoint.epoch == outcome.epochs_run
        assert (
            bundle.checkpoint.accepted + bundle.checkpoint.rejected
            == bundle.checkpoint.num_leaves
        )
        # a light-client style inclusion proof opens against the super-root
        name = bundle.accepted_names()[0]
        proof = bundle.prove(name)
        assert bundle.verify_inclusion(proof)

    def test_shards_are_judged_by_the_checkpoint_contracts_alone(self, finished):
        """No Fig. 2 contract is deployed: a shard's one on-chain footprint
        is its registration on its home lane's checkpoint contract."""
        engine, _ = finished
        contracts = [
            contract
            for lane in engine.fabric.lanes
            for contract in lane.store.contracts.values()
        ]
        assert not any(isinstance(c, AuditContract) for c in contracts)
        assert engine.fabric.events_named("negotiated") == []
        assert engine.fabric.events_named("acked") == []
        registered = _registrations(engine).values()
        audited = {
            record.name
            for settlement in engine.aggregator.settled
            for _, bundle in settlement.fabric.lanes
            for record in bundle.records
        }
        assert {name for _, name in registered} == audited
        for lane_id, name in registered:
            assert lane_id == engine.fabric.lane_index_for(name)

    def test_settlement_gas_decomposes_into_epochs(self, finished):
        _, outcome = finished
        assert outcome.total_commitment_gas == sum(
            s.commitment_gas for s in outcome.summaries
        )


def test_a_lane_holding_no_shard_is_skipped_and_the_run_completes():
    """Three shards over four lanes: at least one lane settles nothing in
    every epoch, and the run still finishes with its files intact."""
    engine = LifecycleEngine(
        LifecycleConfig(**{**BASE, "lanes": 4, "files": 1, "erasure_n": 3})
    )
    try:
        outcome = engine.run()
    finally:
        engine.close()
    settled = outcome.trail.of_kind("settled")
    assert len(settled) == outcome.epochs_run == engine.config.total_epochs
    assert all(int(event.get("lanes")) < 4 for event in settled)
    assert outcome.files_intact


class TestEvictionDrain:
    def test_partially_deferred_eviction_is_drained_later(self):
        """An evicted-but-alive provider's leftover shards keep migrating
        until it holds nothing, at which point it leaves the cluster."""
        engine = LifecycleEngine(
            LifecycleConfig(**{**BASE, "seed": 99, "churn": 0.0,
                               "flake_rate": 0.0})
        )
        # Force the partial-eviction state by hand: a provider that was
        # slashed while migration could not complete.
        victim = next(
            audit.provider for _, audit in sorted(engine._shards.items())
        )
        state = engine.providers[victim]
        state.evicted = True
        assert state.alive and engine._names_held_by(victim)
        engine._evict_step(epoch=1)
        assert engine._names_held_by(victim) == []
        assert not state.alive
        assert victim not in engine.cluster.nodes
        # the migrated shards are live somewhere else
        assert all(
            audit.provider != victim for audit in engine._shards.values()
        )
        engine.close()


class TestConfigValidation:
    def test_rejects_zero_years(self):
        with pytest.raises(ValueError):
            LifecycleConfig(years=0)

    def test_rejects_impossible_erasure(self):
        with pytest.raises(ValueError):
            LifecycleConfig(erasure_n=2, erasure_k=3)

    def test_rejects_too_few_providers(self):
        with pytest.raises(ValueError):
            LifecycleConfig(erasure_n=4, erasure_k=2, providers=4)

    def test_total_epochs_rounds(self):
        assert LifecycleConfig(years=0.5, epochs_per_year=4).total_epochs == 2
        assert LifecycleConfig(years=2, epochs_per_year=12).total_epochs == 24
