"""An aggregator over existing lane contracts, whose fleet changes between epochs.

``CrossShardAggregator(lanes=...)`` settles on lane contracts someone else
deployed (the lifecycle engine's): construction sends no transaction,
``register`` / ``retire`` change the fleet between epochs, a name added
late is registered on chain just before its lane posts, and a lane that
holds no names is skipped.  Adding an instance late must settle exactly
what an aggregator that held it from the start settles.
"""

from __future__ import annotations

import random

import pytest

from repro.chain import ShardedChainFabric
from repro.chain.contracts.checkpoint_contract import CheckpointContract
from repro.core import DataOwner
from repro.core.prover import ResponseWithheld
from repro.engine import AuditExecutor, AuditInstance
from repro.randomness import HashChainBeacon
from repro.rollup import CrossShardAggregator
from repro.sim.workloads import archive_file

LANES = 3


def _withheld(challenge, epoch):
    raise ResponseWithheld("offline")


@pytest.fixture(scope="module")
def fleet(params):
    owner = DataOwner(params, rng=random.Random(0xE1A))
    return [
        AuditInstance.from_package(
            owner.prepare(
                archive_file(600, tag=f"elastic-{serial}").data,
                fresh_keypair=serial == 0,
            ),
            owner_id="elastic",
        )
        for serial in range(4)
    ]


def _deploy(fabric, beacon, params) -> dict[int, tuple[str, str]]:
    lanes = {}
    for lane_id, lane in enumerate(fabric.lanes):
        account = lane.create_account(10.0, label=f"owner-{lane_id}")
        contract = CheckpointContract(beacon, params)
        lanes[lane_id] = (account, lane.deploy(contract, deployer=account))
    return lanes


def _lane_roots(settlement) -> dict[int, bytes]:
    return {
        lane_id: bundle.checkpoint.root for lane_id, bundle in settlement.fabric.lanes
    }


def test_construction_on_existing_lanes_sends_no_transaction(params, fleet):
    beacon = HashChainBeacon(b"elastic")
    fabric = ShardedChainFabric(num_lanes=LANES)
    lanes = _deploy(fabric, beacon, params)
    before = fabric.state_hash()
    with AuditExecutor(fleet[:1], workers=1) as executor:
        aggregator = CrossShardAggregator(
            fabric, executor, params, beacon, deterministic=True, lanes=lanes
        )
        assert fabric.state_hash() == before
        assert sorted(aggregator.pipelines) == list(range(LANES))
        settlement = aggregator.settle_epoch(0)
    # Only the one populated lane posts; the others are skipped.
    assert list(settlement.lanes) == [fabric.lane_index_for(fleet[0].name)]
    registered = settlement.lanes[fabric.lane_index_for(fleet[0].name)]
    assert registered.registration_gas > 0
    assert settlement.total_commitment_gas() == (
        registered.receipt.gas_used + registered.registration_gas
    )


def test_register_between_epochs_settles_like_holding_it_from_the_start(
    params, fleet
):
    beacon = HashChainBeacon(b"elastic")
    late = fleet[-1]
    with AuditExecutor(fleet, workers=1) as executor:
        whole = CrossShardAggregator(
            ShardedChainFabric(num_lanes=LANES), executor, params, beacon,
            deterministic=True,
        )
        whole.set_override(fleet[1].name, _withheld)
        reference = whole.run(3)

    fabric = ShardedChainFabric(num_lanes=LANES)
    lanes = _deploy(fabric, beacon, params)
    with AuditExecutor(fleet[:-1], workers=1) as executor:
        grown = CrossShardAggregator(
            fabric, executor, params, beacon, deterministic=True, lanes=lanes
        )
        grown.set_override(fleet[1].name, _withheld)
        first = grown.settle_epoch(0)
        assert late.name not in first.accepted_names() + first.rejected_names()
        grown.register(late)
        assert late.name in grown.pipelines[grown.lane_of(late.name)].scheduler.names
        second = grown.settle_epoch(1)
        home = grown.pipelines[grown.lane_of(late.name)]
        assert late.name in home.contract.instances
        grown.retire(late.name)
        assert late.name not in home.scheduler.names
        third = grown.settle_epoch(2)

    assert second.accepted_names() == reference[1].accepted_names()
    assert second.rejected_names() == reference[1].rejected_names()
    assert _lane_roots(second) == _lane_roots(reference[1])
    assert second.fabric.checkpoint == reference[1].fabric.checkpoint
    assert late.name not in third.accepted_names() + third.rejected_names()
    assert third.fabric.checkpoint.num_leaves == len(fleet) - 1
    assert late.name not in executor.instances
