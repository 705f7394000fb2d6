"""Differential: concurrent lane settlement is bit-identical to sequential.

Over a ``ShardedChainFabric(concurrent=True)`` the ``CrossShardAggregator``
runs each lane's full
prove → verify → post pipeline on its own worker thread, with the epoch
barrier only at fabric-checkpoint aggregation.  Each lane owns a derived
rng (split from the shared seed in lane order at construction), so the
thread interleaving has nothing left to race on: against the same
adversarial fleet the settlement must match the sequential run *byte for
byte* — same accept/reject sets, same lane roots, same fabric
super-commitment, same lane-chain ``state_hash``.

With lane threads *and* a process pool (``workers > 1``) the aggregator
moves batch verification into the audit executor's
process pool.  The verification rho stream differs there (workers draw
from a shipped seed), so the contract is verdict equivalence, not byte
equality: blinding exponents never move an accept/reject verdict.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import StrategySpec, make_prover
from repro.chain import ShardedChainFabric
from repro.core import DataOwner
from repro.engine import AuditExecutor, AuditInstance
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


def _settle(params, instances, specs, **aggregator_kwargs):
    """One full settlement run; returns (settlements, state_hash)."""
    workers = aggregator_kwargs.pop("workers", 1)
    fabric = ShardedChainFabric(
        num_lanes=LANES, concurrent=aggregator_kwargs.pop("concurrent", False)
    )
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
                for name, override in _overrides(specs).items():
                    aggregator.set_override(name, override)
                settlements = aggregator.run(EPOCHS)
            finally:
                aggregator.close()
        return settlements, fabric.state_hash()
    finally:
        fabric.close()


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
        params, instances, specs, concurrent=True, deterministic=True
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


def test_pooled_verify_preserves_verdicts(params, fleet):
    # Same lane threads on both sides; only the pool (and with it where the
    # batch is verified) differs.
    instances, specs = fleet
    inline, _ = _settle(params, instances, specs, concurrent=True)
    pooled, _ = _settle(params, instances, specs, concurrent=True, workers=2)
    assert _verdict_trace(inline) == _verdict_trace(pooled)


def test_concurrent_pooled_process_workers_preserve_verdicts(params, fleet):
    """The full serving shape: lane threads + process-pool batch verify."""
    instances, specs = fleet
    baseline, _ = _settle(params, instances, specs)
    served, _ = _settle(
        params,
        instances,
        specs,
        concurrent=True,
        workers=2,
    )
    assert _verdict_trace(baseline) == _verdict_trace(served)
