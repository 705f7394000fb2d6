"""A decade of a photo archive's life, narrated: churn, repair, eviction.

The question a DSN depositor actually has — *will my archive still be
there in ten years?* — answered by simulation rather than hand-waving:

1. Two archives are erasure-coded RS(4,2) across 8 staked providers and
   placed under audit (each shard registered on its lane's checkpoint
   contract, which the epoch rollup over a 2-lane sharded chain fabric
   settles).
2. Year after year, providers crash, leave politely or silently go flaky.
   Every epoch the whole fleet is challenged through the parallel audit
   engine; failures become ``no-proof`` rejections in that epoch's
   on-chain checkpoint.
3. Every failed shard is regenerated from survivors and re-placed on the
   best-reputation provider (the on-chain registry feeds placement),
   re-keyed, and registered on its lane's checkpoint contract.
4. Providers whose audit record rots below threshold are *evicted*: their
   registry stake is slashed on chain and their shards migrate away.
5. The run ends with the archives decrypting byte-for-byte — and a second
   run from the same seed reproduces the identical event trail and chain
   state hash.

QUICK=1 compresses the decade to two years for the CI smoke job.

Run me:  PYTHONPATH=src python examples/decade_archive.py
"""

from __future__ import annotations

import os

from repro.lifecycle import LifecycleConfig, LifecycleEngine
from repro.sim.throughput import LifecycleCapacityModel

QUICK = os.environ.get("QUICK", "") == "1"

CONFIG = LifecycleConfig(
    years=2.0 if QUICK else 10.0,
    epochs_per_year=4 if QUICK else 6,
    files=2,
    file_bytes=700,
    erasure_n=4,
    erasure_k=2,
    providers=8,
    churn=0.3,
    flake_rate=0.2,
    lanes=2,
    seed=2026,
    s=4,
    k=3,
)


def main() -> int:
    print(__doc__.split("\n\n")[0])
    print(f"\n[1] storing {CONFIG.files} archives x RS({CONFIG.erasure_n},"
          f"{CONFIG.erasure_k}) on {CONFIG.providers} staked providers, "
          f"{CONFIG.lanes}-lane fabric…")
    engine = LifecycleEngine(CONFIG)
    horizon = CONFIG.total_epochs
    print(f"[2] living {CONFIG.years:g} years = {horizon} epochs "
          f"(churn {CONFIG.churn:.0%}/yr, flake {CONFIG.flake_rate:.0%}/yr)")
    while engine.next_epoch <= horizon:
        summary = engine.run_epoch()
        beats = []
        if summary.departed:
            beats.append(f"{summary.departed} departed")
        if summary.joined:
            beats.append(f"{summary.joined} joined")
        if summary.rejected:
            beats.append(f"{summary.rejected} audits failed")
        if summary.repaired:
            beats.append(f"{summary.repaired} shards repaired")
        if summary.evicted:
            beats.append(f"{summary.evicted} providers evicted")
        story = f" — {', '.join(beats)}" if beats else ""
        print(f"    epoch {summary.epoch:3d}: {summary.audits} audits, "
              f"1 checkpoint/lane settled{story}")
    outcome = engine.outcome()

    print(f"\n[3] the ledger of a {CONFIG.years:g}-year life:")
    print(f"    {len(outcome.trail)} trail events: "
          f"{len(outcome.trail.of_kind('crashed'))} crashes, "
          f"{len(outcome.trail.of_kind('left'))} polite departures, "
          f"{len(outcome.trail.of_kind('flaky'))} flaky turns, "
          f"{outcome.total_repairs} shard repairs, "
          f"{outcome.total_evictions} evictions")
    slashes = outcome.trail.of_kind("slashed")
    evicted_names = {e.subject for e in outcome.trail.of_kind("evicted")}
    slashed_names = {e.subject for e in slashes}
    print(f"    every eviction slashed on chain: "
          f"{evicted_names <= slashed_names} "
          f"({len(slashes)} stake_slashed events)")
    print(f"    settlement: {outcome.total_commitment_gas:,} gas across "
          f"{outcome.epochs_run} epochs on {CONFIG.lanes} lanes")

    print("\n[4] did the archives survive?")
    floor = min(s.min_healthy_shards for s in outcome.summaries)
    print(f"    healthy-shard floor: {floor} (reconstruction needs "
          f"{CONFIG.erasure_k})")
    print(f"    byte-for-byte retrieval after {CONFIG.years:g} years: "
          f"{outcome.files_intact}")
    model = LifecycleCapacityModel(
        lanes=CONFIG.lanes,
        epochs_per_year=CONFIG.epochs_per_year,
        churn=CONFIG.churn,
        erasure_n=CONFIG.erasure_n,
        erasure_k=CONFIG.erasure_k,
    )
    print(f"    closed-form projection agrees: P[survive "
          f"{CONFIG.years:g} yr] = "
          f"{model.projected_durability(CONFIG.years):.6f}")

    print("\n[5] and the whole decade is replayable:")
    print(f"    trail digest  {outcome.trail_digest}")
    print(f"    state hash    {outcome.state_hash}")
    print("    (same seed => same digests; run me twice and diff)")
    engine.close()
    ok = outcome.files_intact and floor >= CONFIG.erasure_k
    print(f"\n{'OK' if ok else 'FAILED'}: the archive outlived its providers.")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
