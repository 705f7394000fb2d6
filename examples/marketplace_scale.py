#!/usr/bin/env python3
"""Marketplace scale-out: the Section VII-D systems analysis, executable.

Simulates a small live slice of the decentralized storage marketplace
(real contracts on a real simulated chain) and extrapolates to paper scale
with the measured quantities:

* chain throughput and the maximum sustainable user base,
* annual blockchain growth (Fig. 10 left),
* per-provider proving load with batch auditing (Fig. 10 right),
* the economics: per-audit, per-year, vs the cloud comparator.

Run:  python examples/marketplace_scale.py
"""

from __future__ import annotations

import random
import time

from repro.chain import Blockchain, ContractTerms, deploy_audit_contract
from repro.chain.agents import run_contracts_to_completion
from repro.core import (
    BatchItem,
    DataOwner,
    ProtocolParams,
    StorageProvider,
    random_challenge,
    verify_batch_grouped,
    verify_sequential,
)
from repro.randomness import HashChainBeacon
from repro.sim.economics import AnnualCostReport, usd_per_audit
from repro.sim.throughput import ChainCapacityModel, ProviderLoadModel


def main() -> None:
    rng = random.Random(5000)
    params = ProtocolParams(s=8, k=5)
    beacon = HashChainBeacon(b"marketplace")

    # ---- a live slice: 4 users, one shared chain ---------------------------
    print("=== live slice: 4 users, 2 audit rounds each, one chain ===")
    chain = Blockchain(block_time=15.0)
    terms = ContractTerms(num_audits=2, audit_interval=80.0, response_window=25.0)
    deployments = []
    for user in range(4):
        owner = DataOwner(params, rng=rng)
        package = owner.prepare(bytes([user + 1]) * 2000)
        provider = StorageProvider(rng=rng)
        deployments.append(
            deploy_audit_contract(chain, package, provider, terms, beacon, params)
        )
    contracts = run_contracts_to_completion(chain, deployments)
    rounds = sum(len(c.rounds) for c in contracts)
    trail = sum(c.total_trail_bytes() for c in contracts)
    print(f"{len(contracts)} contracts closed, {rounds} audit rounds, "
          f"all passed: {all(c.fails == 0 for c in contracts)}")
    print(f"chain: {len(chain.blocks)} blocks, {chain.chain_bytes():,} bytes "
          f"({trail:,} bytes of audit trails)\n")

    # ---- provider-side batching (one provider serving many owners) ---------
    print("=== batch auditing: one provider, 4 owners ===")
    items = []
    shared_provider = StorageProvider(rng=rng)
    for user in range(4):
        owner = DataOwner(params, rng=rng)
        package = owner.prepare(bytes([user + 10]) * 1500)
        assert shared_provider.accept(package)
        challenge = random_challenge(params, rng=rng)
        items.append(
            BatchItem(
                public=package.public,
                name=package.name,
                num_chunks=package.num_chunks,
                challenge=challenge,
                proof=shared_provider.respond(package.name, challenge),
            )
        )
    start = time.perf_counter()
    assert verify_sequential(items)
    sequential_s = time.perf_counter() - start
    start = time.perf_counter()
    assert verify_batch_grouped(items, rng=rng)
    batch_s = time.perf_counter() - start
    print(f"sequential verification: {sequential_s*1000:.0f} ms; "
          f"batched: {batch_s*1000:.0f} ms "
          f"({sequential_s/batch_s:.2f}x)\n")

    # ---- extrapolation to paper scale --------------------------------------
    print("=== paper-scale extrapolation (Section VII-D) ===")
    capacity = ChainCapacityModel()
    load = ProviderLoadModel()
    print(f"throughput: {capacity.tx_per_second:.2f} tx/s "
          f"(18 KB blocks / 15 s)")
    print(f"max users at daily audits, 10x redundancy: "
          f"{capacity.max_concurrent_users():,}")
    for users in (1_000, 5_000, 10_000):
        growth = capacity.annual_chain_growth_bytes(users) / 2**30
        per_provider = load.users_per_provider(users)
        prove_all = load.proving_time_for_all(per_provider)
        print(f"  {users:>6,} users: chain +{growth:.2f} GB/yr, "
              f"{per_provider} users/provider, "
              f"{prove_all:.1f} s to prove all "
              f"({'tolerable' if load.tolerable(per_provider) else 'too slow'})")

    print("\n=== economics ===")
    print(f"per audit: ${usd_per_audit():.3f} at 5 Gwei "
          f"(${usd_per_audit(gas_price_gwei=1.2):.3f} at 1.2 Gwei - the "
          f"abstract's $0.1 reading)")
    for label, report in (
        ("single provider, daily", AnnualCostReport().compute()),
        (
            "10x redundancy, batched",
            AnnualCostReport(
                redundancy_providers=10, batch_redundant_audits=True
            ).compute(),
        ),
    ):
        print(f"  {label}: ${report['yearly_auditing_usd']:.0f}/yr auditing "
              f"+ ${report['one_time_setup_usd']:.2f} setup "
              f"(Dropbox Business: ${report['dropbox_business_usd']:.0f}/yr)")


if __name__ == "__main__":
    main()
