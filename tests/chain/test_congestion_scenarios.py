"""Congestion scenarios: storms, griefers and the base-fee controller.

Three end-to-end stories the fee market must survive:

* **epoch-boundary audit storm** — a live audit contract runs while storm
  traffic floods the pool at twice the gas target; a provider paying the
  default wallet tip policy (``Mempool.suggest_fees``) never misses a
  ``response_window``, so no round fails with the ``no-proof`` code and
  no dispute deadline is lost to underpricing,
* **fee-griefer detection** — adversaries overbidding for a block-space
  majority are flagged by drain telemetry alone, with no false positives
  on honest senders,
* **base-fee decay** — after a storm the controller walks the base fee
  back down to the floor within the closed-form envelope predicted by
  :class:`repro.sim.CongestionPricingModel`.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.adversary import FeeGriefer, detect_fee_griefers
from repro.chain import (
    ContractTerms,
    Transaction,
    deploy_audit_contract,
    run_contract_to_completion,
)
from repro.chain.blockchain import Blockchain
from repro.chain.mempool import (
    GasSinkContract,
    MempoolConfig,
    MempoolRejection,
    StormTraffic,
)
from repro.core import DataOwner, ProtocolParams, StorageProvider
from repro.randomness import HashChainBeacon
from repro.sim import CongestionPricingModel

PARAMS = ProtocolParams(s=4, k=3)


def _storm_world(num_senders=8, seed=0):
    chain = Blockchain(mempool=MempoolConfig())
    deployer = chain.create_account(10.0, label="deployer")
    sink = chain.deploy(GasSinkContract(), deployer=deployer)
    senders = [
        chain.create_account(200.0, label=f"storm-{i}")
        for i in range(num_senders)
    ]
    return chain, sink, StormTraffic(sink, senders, seed=seed)


def _storm_block(chain, storm, load=2.0, tip=1.0):
    """Submit one block's worth of storm traffic at ``load``x gas target.

    The storm bids *below* the wallet-suggested tip (uniform in
    ``[tip/2, tip)``): the suggestion exists precisely to outbid the bulk
    of pending background traffic, and a storm that systematically
    overbids it would model griefing, not organic congestion (that case
    is :func:`test_fee_griefers_detected_without_false_positives`).
    """
    market = chain.pool.config.fee_market
    offered = int(load * market.gas_target(chain.block_gas_limit))
    max_fee_gwei, tip_gwei = chain.pool.suggest_fees(tip)
    admitted = 0
    for tx in storm.txs_for_block(
        offered, max_fee_gwei=max_fee_gwei, priority_fee_gwei=tip_gwei / 2,
        jitter_gwei=tip / 2,
    ):
        try:
            chain.submit(tx)
            admitted += 1
        except MempoolRejection:
            pass
    return admitted


def test_audit_storm_never_misses_response_window():
    """Default tip policy keeps proofs inside the window under 2x load."""
    chain, _sink, storm = _storm_world()
    rng = random.Random(0x570)
    owner = DataOwner(PARAMS, rng=rng)
    package = owner.prepare(bytes(rng.randrange(256) for _ in range(500)))
    provider = StorageProvider(rng=rng)
    assert provider.accept(package)
    # response_window of two blocks: a proof delayed past one extra block
    # by underpricing would lapse the round.
    terms = ContractTerms(
        num_audits=4, audit_interval=15.0, response_window=30.0
    )
    deployment = deploy_audit_contract(
        chain, package, provider, terms, HashChainBeacon(b"storm"), PARAMS,
        owner_funds_eth=50.0, provider_funds_eth=50.0,
    )
    agent = deployment.provider_agent
    agent.use_pool = True          # proofs compete for block space...
    agent.tip_gwei = 1.0           # ...at the default wallet tip policy

    storm_blocks = 0
    original_on_block = agent.on_block

    def stormy_on_block():
        nonlocal storm_blocks
        _storm_block(chain, storm, load=2.0)
        storm_blocks += 1
        original_on_block()

    agent.on_block = stormy_on_block
    contract = run_contract_to_completion(chain, deployment)

    assert storm_blocks > 0 and chain.base_fee_wei > 10**9  # real congestion
    assert len(contract.rounds) == terms.num_audits
    assert all(r.passed for r in contract.rounds)
    # A proof delayed past the window fails the round with "no-proof";
    # zero such rounds means no deadline was ever lost to underpricing.
    assert not any(r.reject_reason == "no-proof" for r in contract.rounds)
    assert all(r.resolved_at is not None for r in contract.rounds)


def test_fee_griefers_detected_without_false_positives():
    chain, sink, storm = _storm_world(num_senders=6, seed=1)
    griefers = []
    for index in range(2):
        account = chain.create_account(100_000.0, label=f"griefer-{index}")
        griefers.append(
            FeeGriefer(chain, account, sink, gas_share=0.4, aggression=5.0)
        )
    for _ in range(12):
        for griefer in griefers:
            griefer.on_block()
        _storm_block(chain, storm, load=1.0)
        chain.mine_block()
    reports = detect_fee_griefers(chain)
    flagged = {r.sender for r in reports if r.flagged}
    griefer_accounts = {g.account for g in griefers}
    assert flagged & griefer_accounts == griefer_accounts  # 100% detected
    assert not flagged - griefer_accounts                  # 0 false positives
    # The griefers paid for their block space: base fee burned, not free.
    assert chain.burned > 0
    assert all(g.spent_wei > 0 for g in griefers)


def test_drain_telemetry_grows_with_senders_not_transactions():
    """One record per sender: more drained transactions from the same
    senders add to the records, never to their number."""
    chain, _sink, storm = _storm_world(num_senders=3, seed=4)
    pool = chain.pool
    seen = []
    for _ in range(2):
        for _ in range(3):
            _storm_block(chain, storm, load=1.0)
            chain.mine_block()
        seen.append((len(pool.drained_by_sender), pool.stats["drained"]))
    (senders, drained), (senders_later, drained_later) = seen
    assert drained_later > drained > senders_later == senders == 3
    assert sum(d.count for d in pool.drained_by_sender.values()) == drained_later


def test_base_fee_decays_to_floor_within_model_envelope():
    chain, _sink, storm = _storm_world(seed=2)
    market = chain.pool.config.fee_market
    for _ in range(14):
        _storm_block(chain, storm, load=2.0)
        chain.mine_block()
    peak = chain.base_fee_wei
    floor = market.base_fee_floor_wei
    assert peak > 2 * floor  # the storm genuinely escalated the price

    # Growth obeys the controller's per-block envelope (<= 12.5%/block).
    model = CongestionPricingModel.for_market(market, chain.block_gas_limit)
    growth_bound = 1.0 + 1.0 / market.max_change_denominator
    assert peak <= floor * growth_bound**14 * (1.0 + 1e-9)

    # Decay: drain the leftovers, then empty blocks walk the fee down
    # within the closed-form bound (integer floors only speed this up).
    while len(chain.pool):
        chain.mine_block()
    bound = math.ceil(model.decay_blocks_from_multiplier(peak / floor)) + 1
    decay_blocks = 0
    while chain.base_fee_wei > floor:
        chain.mine_block()
        decay_blocks += 1
        assert decay_blocks <= bound, (
            f"base fee stuck above the floor after {decay_blocks} empty "
            f"blocks (model bound {bound})"
        )
    assert chain.base_fee_wei == floor
    # And it stays there: empty blocks at the floor are a fixed point.
    chain.mine_block()
    assert chain.base_fee_wei == floor
