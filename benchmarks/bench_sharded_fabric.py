"""Sharded chain fabric — epoch settlement throughput vs lane count.

The single-chain bottleneck this PR removes: every audit's settlement
transactions (negotiate, challenge, proof, the 589k-gas verification)
serialize through one block producer's gas-limited block space.  The
fabric spreads the same fleet across N deterministic lanes mining
concurrently, so the chain time to absorb one epoch's settlement traffic
is ``max`` over lanes instead of the single lane's total.

Metric: **settlement chain-time** — each lane's recorded gas translated
into the 10M-gas block slots it occupies
(:meth:`repro.chain.blockchain.Blockchain.congestion_seconds`), taking the
slowest lane (:meth:`~repro.chain.fabric.ShardedChainFabric.settlement_chain_seconds`).
Throughput is audits settled per chain-second.  Wall-clock is reported
too, but on this simulator proving/verification run in-process and do not
change with lane count — the lanes buy *block space*, not CPU.

Acceptance (ISSUE 4): at fleet 256, 4 lanes deliver >= 2x the settlement
throughput of 1 lane with bit-identical accept/reject sets.

BENCH_QUICK=1 (the CI smoke job) shrinks the fleet and the lane sweep so
the bench stays exercisable in minutes.
"""

from __future__ import annotations

import os
import random
import time

from repro.chain import (
    ContractTerms,
    ShardedChainFabric,
    deploy_audit_contract,
    run_contracts_to_completion,
)
from repro.core import ProtocolParams, StorageProvider
from repro.randomness import HashChainBeacon
from repro.scenarios import build_fleet
from repro.sim.throughput import ShardedChainCapacityModel

QUICK = os.environ.get("BENCH_QUICK", "") == "1"

#: Acceptance floor: fleet 256 swept over 1/2/4/8 lanes.
FLEET = 24 if QUICK else 256
LANES = (1, 2) if QUICK else (1, 2, 4, 8)
#: One audit round per contract: one epoch's settlement wave.
TERMS = ContractTerms(num_audits=1, audit_interval=15.0, response_window=15.0)
MISBEHAVING = max(1, FLEET // 8)  # silent providers -> a real reject set
PARAMS = ProtocolParams(s=6, k=4)
FILE_BYTES = 700


def _prepare_fleet():
    """Packages + providers, shared by every lane configuration."""
    rng = random.Random(0x5AFE)
    fleet = []
    for package in build_fleet(
        PARAMS, rng, size=FILE_BYTES, files=FLEET, tag="shard-bench-{file}"
    ):
        provider = StorageProvider(rng=rng)
        provider.accept(package)
        fleet.append((package, provider))
    return fleet


def _settle(chain, fleet):
    """Deploy the whole fleet and run every contract to completion."""
    beacon = HashChainBeacon(b"bench-shard")
    deployments = []
    for index, (package, provider) in enumerate(fleet):
        deployment = deploy_audit_contract(
            chain, package, provider, TERMS, beacon, PARAMS
        )
        if index < MISBEHAVING:
            deployment.provider_agent.misbehave_after_round = 0
        deployments.append(deployment)
    contracts = run_contracts_to_completion(chain, deployments)
    return [(c.passes, c.fails) for c in contracts]


def test_sharded_fabric_settlement_throughput(benchmark, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # report-only entry
    fleet = _prepare_fleet()
    lines = [
        f"Sharded chain fabric: {FLEET} audit contracts, one settlement "
        f"round each (s={PARAMS.s}, k={PARAMS.k}, "
        f"{MISBEHAVING} silent providers), 10M-gas blocks at 15 s.",
        "Settlement chain-time = slowest lane's occupied block slots x 15 s.",
        "",
        f"{'lanes':>5} {'wall s':>8} {'total gas':>13} {'chain-time s':>13} "
        f"{'audits/chain-s':>15} {'speedup':>8}",
    ]
    verdicts_by_lanes = {}
    throughput = {}
    for lanes in LANES:
        chain = ShardedChainFabric(num_lanes=lanes)
        t0 = time.perf_counter()
        verdicts = _settle(chain, fleet)
        wall = time.perf_counter() - t0
        verdicts_by_lanes[lanes] = verdicts
        settlement_seconds = chain.settlement_chain_seconds()
        total_gas = chain.total_gas_used()
        throughput[lanes] = FLEET / settlement_seconds
        lines.append(
            f"{lanes:>5} {wall:>8.1f} {total_gas:>13,} "
            f"{settlement_seconds:>13.0f} {throughput[lanes]:>15.2f} "
            f"{throughput[lanes] / throughput[LANES[0]]:>7.1f}x"
        )

    # Accept/reject sets must be bit-identical across every lane count.
    for lanes in LANES[1:]:
        assert verdicts_by_lanes[lanes] == verdicts_by_lanes[1], (
            f"verdicts diverged at {lanes} lanes"
        )
    fails = sum(f for _, f in verdicts_by_lanes[1])
    assert fails == MISBEHAVING, "the reject set must match the silent fleet"

    if 4 in throughput:
        speedup_at_4 = throughput[4] / throughput[1]
        assert speedup_at_4 >= 2.0, (
            f"acceptance: expected >= 2x settlement throughput at 4 lanes, "
            f"got {speedup_at_4:.2f}x"
        )
    else:  # BENCH_QUICK: assert the 2-lane trend instead
        assert throughput[2] / throughput[1] >= 1.2

    lines += [
        "",
        f"accept/reject sets identical across all lane counts "
        f"({FLEET - fails} accepted / {fails} rejected).",
        "",
        "Modeled fabric capacity (ShardedChainCapacityModel, daily audits,",
        "256-audit checkpoints per lane):",
        f"{'lanes':>5} {'max users':>12} {'chain growth @1M users':>24}",
    ]
    for lanes in LANES:
        model = ShardedChainCapacityModel(lanes=lanes)
        growth_gb = model.annual_chain_growth_bytes(1_000_000) / 2**30
        lines.append(
            f"{lanes:>5} {model.max_concurrent_users():>12,} "
            f"{growth_gb:>21.3f} GB/yr"
        )
    lines += [
        "(wall-clock is flat across lane counts on a single-core host:",
        " lanes multiply block space, not CPU; prove/verify cost is fixed)",
    ]
    report("sharded_fabric", "\n".join(lines))
