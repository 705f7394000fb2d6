"""Fig. 10 — system-wide scalability.

Left panel: annual blockchain growth vs user base (1k..10k users).
Right panel: per-provider total proving time vs users stored (10..300).

Both panels feed *measured* quantities (simulated contract trail bytes and
a measured per-proof time) into the analytic models of
:mod:`repro.sim.throughput`, the way the paper feeds its measurements into
its linear-regression model.
"""

from __future__ import annotations

import time

from repro.chain import Blockchain, ContractTerms, deploy_audit_contract, run_contract_to_completion
from repro.core import DataOwner, ProtocolParams, StorageProvider
from repro.core.authenticator import generate_authenticators
from repro.core.challenge import random_challenge
from repro.core.chunking import chunk_file
from repro.core.keys import generate_keypair
from repro.core.prover import Prover
from repro.randomness import HashChainBeacon
from repro.sim.throughput import ChainCapacityModel, ProviderLoadModel

USERS_AXIS = (1_000, 2_000, 5_000, 8_000, 10_000)
USERS_PER_PROVIDER_AXIS = (10, 20, 50, 100, 150, 300)


def _measure_per_proof_seconds(rng) -> float:
    """One k=300 private proof at s=20 (the Fig. 10 right-panel unit)."""
    s, k, chunks = 20, 300, 310
    keypair = generate_keypair(s, rng=rng)
    chunked = chunk_file(b"\x44" * (chunks * s * 31), ProtocolParams(s=s, k=k), name=5)
    prover = Prover(
        chunked,
        keypair.public,
        generate_authenticators(chunked, keypair),
        rng=rng,
    )
    challenge = random_challenge(ProtocolParams(s=s, k=k), rng=rng)
    prover.respond_private(challenge)  # warm-up
    start = time.perf_counter()
    prover.respond_private(challenge)
    return time.perf_counter() - start


def test_fig10_proof_kernel(benchmark, rng):
    seconds = benchmark.pedantic(
        _measure_per_proof_seconds, args=(rng,), rounds=1, iterations=1
    )
    assert seconds > 0


def test_fig10_report(benchmark, report, rng):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # report-only entry
    # --- measured trail bytes from a real simulated contract ---
    params = ProtocolParams(s=6, k=3)
    owner = DataOwner(params, rng=rng)
    package = owner.prepare(b"\x2a" * 500)
    provider = StorageProvider(rng=rng)
    chain = Blockchain()
    terms = ContractTerms(num_audits=2, audit_interval=50.0, response_window=20.0)
    deployment = deploy_audit_contract(
        chain, package, provider, terms, HashChainBeacon(b"fig10"), params
    )
    contract = run_contract_to_completion(chain, deployment)
    measured_trail = contract.total_trail_bytes() / len(contract.rounds)

    capacity = ChainCapacityModel()
    per_proof = _measure_per_proof_seconds(rng)
    load_paper = ProviderLoadModel()                      # paper-scale unit
    load_measured = ProviderLoadModel(per_proof_seconds=per_proof)

    lines = [
        "Fig. 10 reproduction.",
        "",
        f"Measured audit-trail bytes per round: {measured_trail:.0f} "
        "(challenge 48 + proof 288; model uses the same numbers).",
        f"Chain throughput model: {capacity.tx_per_second:.2f} tx/s "
        "(paper: 2 tx/s at 18 KB blocks);",
        f"max concurrent users at daily audits x10 redundancy: "
        f"{capacity.max_concurrent_users():,} (paper: 5,000 'with ease').",
        "",
        "Left panel - annual blockchain growth (GB/year):",
        f"{'users':>8} {'GB/year':>9}",
    ]
    for users in USERS_AXIS:
        growth = capacity.annual_chain_growth_bytes(users) / 2**30
        lines.append(f"{users:>8,} {growth:>9.2f}")
    growth_10k = capacity.annual_chain_growth_bytes(10_000) / 2**30
    lines += [
        "  (paper anchor: ~1.1 GB/year at 10,000 users; Ethereum mainnet",
        "   grows ~128 MB/day for comparison)",
        "",
        "Right panel - provider proving time for all stored users (s):",
        f"measured per-proof time (pure Python, k=300): {per_proof*1000:.0f} ms;",
        "paper-scale unit (Go prototype): 65 ms.",
        f"{'users/provider':>15} {'paper-scale (s)':>16} {'measured-scale (s)':>19}",
    ]
    for users in USERS_PER_PROVIDER_AXIS:
        lines.append(
            f"{users:>15} {load_paper.proving_time_for_all(users):>16.1f} "
            f"{load_measured.proving_time_for_all(users):>19.1f}"
        )
    lines += [
        "  (paper anchor: ~20 s at 300 users/provider, called 'tolerable'",
        "   because chain confirmation latency is of the same order)",
    ]
    report("fig10_scalability", "\n".join(lines))

    assert measured_trail == 48 + 288
    assert 1.0 < growth_10k < 1.3
    assert 15 < load_paper.proving_time_for_all(300) < 25
    assert capacity.max_concurrent_users() >= 5_000
