"""Epoch checkpoint rollup, narrated: 64 files, 1 commitment, 1 fraud proof.

The story this demo tells (docs/PROTOCOL.md section 9):

1. A provider stores 64 files for 8 owners.  One beacon epoch fires and
   every file is audited off chain through the parallel engine.
2. Instead of 64 (challenge, proof, verdict) postings, the aggregator
   commits a single 85-byte Merkle verdict-tree root on chain, bonded for
   a fraud-proof window.
3. A light client verifies any single file's audit from the commitment
   plus one inclusion proof — no trust in the aggregator.
4. A *lying* aggregator flips one verdict in the next epoch's tree.  A
   challenger opens that one leaf on chain; the contract re-verifies the
   round from the leaf's own bytes and slashes the poster's bond.

It is ``repro.scenarios.run_settlement`` on a one-lane fabric — what
``repro checkpoint --fraud`` runs — told step by step.

Run me:  PYTHONPATH=src python examples/checkpoint_rollup.py
"""

from __future__ import annotations

import random

from repro.core import ProtocolParams
from repro.scenarios import build_fleet, run_settlement

OWNERS = 8
FILES_PER_OWNER = 8
PARAMS = ProtocolParams(s=6, k=4)  # demo-scale; the paper uses s=50, k=300


def _heading(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> int:
    rng = random.Random(0xCDE0)
    _heading("1) Fleet setup: 8 owners x 8 files on one storage provider")
    instances = build_fleet(
        PARAMS, rng, size=1_000, files=FILES_PER_OWNER, owners=OWNERS
    )
    print(f"   {len(instances)} audit instances prepared (s={PARAMS.s}, "
          f"k={PARAMS.k})")
    report = run_settlement(
        instances, PARAMS, rng, lanes=1, epochs=1, workers=1, fraud=True
    )

    _heading("2) One epoch, one commitment: 64 audits -> 85 on-chain bytes")
    settled = report.settlements[0].lanes[0]
    commitment = settled.bundle.checkpoint
    print(f"   epoch 0: {commitment.num_leaves} audits "
          f"({commitment.accepted} accepted, {commitment.rejected} rejected)")
    print(f"   commitment: root {commitment.root.hex()[:16]}..., "
          f"{commitment.byte_size()} bytes, gas {settled.receipt.gas_used:,}")
    amortized = report.amortization
    print(f"   vs per-round postings: {amortized.per_round_trail_bytes:,} "
          f"trail bytes and {amortized.per_round_gas:,} gas "
          f"({amortized.bytes_reduction:,.0f}x bytes, "
          f"{amortized.gas_reduction:,.0f}x gas saved)")

    _heading("3) Light client: per-file inclusion proof against the root")
    print(f"   file {report.sample_name:#x}: leaf -> lane root -> fabric root "
          f"-> {'VERIFIED' if report.inclusion.ok else report.inclusion.reason}")
    print(f"   full replay of every settled checkpoint: "
          f"{report.replay.rounds_checked} rounds, "
          f"{'consistent' if report.replay.consistent else 'INCONSISTENT'}")

    _heading("4) Fraud proof: a verdict-flipped checkpoint gets slashed")
    fraud = report.fraud
    print("   lying aggregator commits epoch 1 with one verdict flipped;")
    print("   a watchtower opens that single leaf on chain...")
    print(f"   contract re-verifies the round: {fraud.reason or 'NOT slashed'}")
    print(f"   watchtower bounty: {fraud.slashed_wei:,} wei")

    _heading("5) Explorer: the on-chain checkpoint log")
    for event in report.checkpoint_log:
        print(f"   {event['name']}: {event['payload']}")

    ok = report.ok and report.inclusion.ok
    print()
    print("rollup demo:", "OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
