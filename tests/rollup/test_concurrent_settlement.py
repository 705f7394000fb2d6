"""Differential: concurrent lane settlement is bit-identical to sequential.

Given more than one worker (``workers > 1``) and more than one populated
lane, the ``CrossShardAggregator`` runs each lane's full
prove → verify → post pipeline on its own worker thread, with the epoch
barrier only at fabric-checkpoint aggregation, and batch-verifies on that
lane thread; nobody chooses that — ``workers`` alone decides.  Each lane
owns a derived rng (split from the shared seed in lane order at
construction), so the thread interleaving has nothing left to race on:
against the same adversarial fleet the settlement must match the
sequential run *byte for byte* — same accept/reject sets, same lane roots,
same fabric super-commitment, same lane-chain ``state_hash``.

Blinding exponents never move an accept/reject verdict and nothing
rho-dependent reaches a record, so in deterministic mode the threaded run
equals the lockstep one bit for bit; without it the contract is verdict
equivalence.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.adversary import StrategySpec, make_prover
from repro.chain import ShardedChainFabric
from repro.chain.fabric import lane_index_for_key
from repro.core import DataOwner
from repro.engine import AuditExecutor, AuditInstance
from repro.engine import scheduler as scheduler_module
from repro.obs.tracing import Tracer
from repro.randomness import HashChainBeacon
from repro.rollup import CrossShardAggregator
from repro.sim.workloads import archive_file

EPOCHS = 2
LANES = 4

#: Honest majority plus one of each failure mode (accepts *and* rejects).
STRATEGY_MIX = (
    StrategySpec("honest", count=2),
    StrategySpec("replay"),
    StrategySpec("bitrot", rho=0.5),
)


def _build_fleet(params):
    rng = random.Random(0xC0C)
    owner = DataOwner(params, rng=rng)
    instances, specs = [], {}
    serial = 0
    for spec in STRATEGY_MIX:
        for _ in range(spec.count):
            package = owner.prepare(
                archive_file(900, tag=f"conc-{serial}").data,
                fresh_keypair=serial == 0,
            )
            instances.append(AuditInstance.from_package(package, owner_id="cs"))
            specs[package.name] = (spec, package, serial)
            serial += 1
    return instances, specs


def _overrides(specs):
    """Fresh per-run prover instances, deterministically seeded per file."""
    overrides = {}
    for name, (spec, package, serial) in specs.items():
        if spec.kind == "honest":
            continue
        prover = make_prover(
            spec.kind, package, rng=random.Random(0xD06 + serial), rho=spec.rho
        )
        overrides[name] = (
            lambda challenge, epoch, prover=prover: prover.respond_private(challenge)
        )
    return overrides


@contextmanager
def _aggregator(params, instances, workers, lanes, **aggregator_kwargs):
    """(fabric, aggregator) over a fresh executor; everything closed on exit.

    ``workers=2`` over more than one populated lane is the threaded walk,
    each lane verifying on its own thread; ``workers=1`` or one lane the
    lockstep, calling-thread one.
    """
    fabric = ShardedChainFabric(num_lanes=lanes)
    try:
        with AuditExecutor(instances, workers=workers) as executor:
            aggregator = CrossShardAggregator(
                fabric,
                executor,
                params,
                HashChainBeacon(b"concurrent-settlement"),
                rng=random.Random(7),
                **aggregator_kwargs,
            )
            try:
                yield fabric, aggregator
            finally:
                aggregator.close()
    finally:
        fabric.close()


def _settle(params, instances, specs, workers=1, lanes=LANES, **aggregator_kwargs):
    """One full settlement run; returns (settlements, state_hash)."""
    with _aggregator(params, instances, workers, lanes, **aggregator_kwargs) as (
        fabric,
        aggregator,
    ):
        assert aggregator.concurrent == (workers > 1 and lanes > 1)
        for name, override in _overrides(specs).items():
            aggregator.set_override(name, override)
        settlements = aggregator.run(EPOCHS)
        return settlements, fabric.state_hash()


@pytest.fixture(scope="module")
def fleet(params):
    return _build_fleet(params)


def _verdict_trace(settlements):
    return [
        (
            settlement.epoch,
            frozenset(settlement.accepted_names()),
            frozenset(settlement.rejected_names()),
        )
        for settlement in settlements
    ]


def test_concurrent_lanes_settle_bit_identically(params, fleet):
    # Deterministic mode pins every Sigma nonce to a per-(file, epoch)
    # digest; without it two *sequential* runs already differ byte-wise
    # (live blinding draws), so it is the precondition for comparing
    # transcripts — the concurrency question — rather than the blinding.
    instances, specs = fleet
    sequential, hash_seq = _settle(params, instances, specs, deterministic=True)
    concurrent, hash_conc = _settle(
        params, instances, specs, workers=2, deterministic=True
    )
    assert _verdict_trace(sequential) == _verdict_trace(concurrent)
    for left, right in zip(sequential, concurrent):
        assert left.fabric.checkpoint.fabric_root == right.fabric.checkpoint.fabric_root
        assert left.fabric.checkpoint.lanes_digest == right.fabric.checkpoint.lanes_digest
        assert left.fabric.checkpoint.to_bytes() == right.fabric.checkpoint.to_bytes()
        for (lane_a, bundle_a), (lane_b, bundle_b) in zip(
            left.fabric.lanes, right.fabric.lanes
        ):
            assert lane_a == lane_b
            assert bundle_a.checkpoint.root == bundle_b.checkpoint.root
    assert hash_seq == hash_conc
    # The mix produced both verdicts, so the equality above is non-vacuous.
    assert any(rejected for _, _, rejected in _verdict_trace(sequential))
    assert any(accepted for _, accepted, _ in _verdict_trace(sequential))


def _localized(settlements):
    """Per epoch, lanes merged: proofs checked and {file: RejectionReason}."""
    return [
        (
            sum(lane.result.batch_ok.checked for lane in settlement.lanes.values()),
            {
                rejection.name: rejection.reason
                for lane in settlement.lanes.values()
                for rejection in lane.result.batch_ok.failures
            },
        )
        for settlement in settlements
    ]


def test_pooled_verify_preserves_verdicts(params, fleet):
    # The same prover threads prove on both sides; one lane keeps settlement
    # on the calling thread, so only where the batch is verified differs
    # (verdict traces are by file name, not by lane).
    instances, specs = fleet
    inline, _ = _settle(params, instances, specs, workers=2, lanes=1)
    pooled, _ = _settle(params, instances, specs, workers=2)
    assert _verdict_trace(inline) == _verdict_trace(pooled)
    # A lane thread's outcome is the calling thread's: the same failures
    # with the same reasons (residual fingerprints included).
    assert _localized(inline) == _localized(pooled)
    assert any(reasons for _, reasons in _localized(inline))


def test_concurrent_pooled_process_workers_preserve_verdicts(params, fleet):
    """The full serving shape: lane threads, each verifying its own batch."""
    instances, specs = fleet
    baseline, _ = _settle(params, instances, specs)
    served, _ = _settle(params, instances, specs, workers=2)
    assert _verdict_trace(baseline) == _verdict_trace(served)
    # Same lanes on both sides, so each lane's whole outcome compares.
    for left, right in zip(baseline, served):
        assert {lane: s.result.batch_ok for lane, s in left.lanes.items()} == {
            lane: s.result.batch_ok for lane, s in right.lanes.items()
        }


# --------------------------------------------------------------------------- #
# The placement rule: lane threads iff workers > 1 and > 1 populated lane     #
# --------------------------------------------------------------------------- #


def _placement(params, instances, specs, workers):
    """(aggregator, thread ident each lane proved on, thread ident each lane
    batch-verified on) after one epoch on 2 lanes."""
    proved_on: dict[int, int] = {}
    verified_on: dict[int, int] = {}
    verify = scheduler_module.verify_batch_grouped

    def traced_verify(items, rng=None):
        verified_on[aggregator.lane_of(items[0].name)] = threading.get_ident()
        return verify(items, rng=rng)

    with _aggregator(params, instances, workers, 2, tracer=Tracer()) as (
        _,
        aggregator,
    ), mock.patch.object(scheduler_module, "verify_batch_grouped", traced_verify):
        for name, (spec, package, _serial) in specs.items():
            prover = make_prover(spec.kind, package, rho=spec.rho)

            def override(challenge, epoch, name=name, prover=prover):
                proved_on[aggregator.lane_of(name)] = threading.get_ident()
                return prover.respond_private(challenge)

            aggregator.set_override(name, override)
        aggregator.settle_epoch(0)
    return aggregator, proved_on, verified_on


def test_one_worker_settles_every_lane_on_the_calling_thread(params, fleet):
    aggregator, proved_on, verified_on = _placement(params, *fleet, workers=1)
    assert len(proved_on) == 2
    assert set(proved_on.values()) == {threading.get_ident()}
    assert not aggregator.concurrent and aggregator._lane_workers is None
    assert isinstance(aggregator.tracer, Tracer) and aggregator.tracer.span_count
    assert verified_on == proved_on  # both batches on the calling thread
    # Both lanes' schedulers prove through the one inline executor.
    assert all(
        p.scheduler.executor is aggregator.executor
        for p in aggregator.pipelines.values()
    )


def test_a_process_pool_moves_lanes_off_the_calling_thread(params, fleet):
    aggregator, proved_on, verified_on = _placement(params, *fleet, workers=2)
    assert len(proved_on) == 2
    assert threading.get_ident() not in proved_on.values()
    assert aggregator.concurrent and aggregator.tracer is None
    # Each lane's batch was verified on the thread that ran that lane.
    assert verified_on == proved_on


def test_one_populated_lane_stays_on_the_calling_thread_even_with_a_pool(params, fleet):
    instances, specs = fleet
    # Two lanes, but every audited file hashes to the same one.
    home = lane_index_for_key(instances[0].name, 2)
    together = [i for i in instances if lane_index_for_key(i.name, 2) == home]
    kept = {i.name: specs[i.name] for i in together}
    aggregator, proved_on, _ = _placement(params, together, kept, workers=2)
    assert set(proved_on.values()) == {threading.get_ident()}
    assert not aggregator.concurrent and aggregator._lane_workers is None
    assert isinstance(aggregator.tracer, Tracer)
