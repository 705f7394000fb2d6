"""Parallel audit engine vs. the sequential seed path (acceptance bench).

64 concurrent audit instances (8 owners x 8 files, bench-scale s=10, k=8),
one beacon epoch:

* **sequential seed path** — what the pre-engine code does for 64 audits:
  one fresh prover per file (each rebuilding its own GT fixed-base table),
  one ``respond_private`` + one Eq.-(2) ``verify_private`` per audit, 64
  final exponentiations.
* **engine path** — the :class:`~repro.engine.EpochScheduler`: one
  challenge per instance from the shared beacon round, proving through the
  :class:`~repro.engine.AuditExecutor` (precompute caches shared per
  worker; on this host's core count the executor may resolve to inline
  mode), all proofs fed into the grouped one-final-exponentiation batch
  verifier.

Asserted acceptance criteria:

* engine throughput >= 2x the sequential path for the 64-audit epoch,
* the engine's proofs equal the sequential proofs **bit-for-bit** (same
  deterministic per-task nonces), and the batch verdict agrees with the 64
  individual verdicts.

Two further epochs are timed: epoch 1 while per-point wNAF tables are
still being built for newly challenged chunks, and epoch 2 as the warm
steady state every later epoch matches (the amortization argument of
docs/BENCHMARKS.md).
"""

from __future__ import annotations

import os
import random
import time

from repro.core import ProtocolParams, Verifier
from repro.core.prover import ProveReport
from repro.core.verifier import VerifyReport
from repro.engine import AuditExecutor, EpochScheduler
from repro.engine.tasks import ProveTask
from repro.randomness import HashChainBeacon
from repro.scenarios import build_fleet

#: BENCH_QUICK=1 (the CI smoke job) shrinks the fleet so the bench
#: exercises every code path under a tight timeout; the >= 2x speedup
#: assertion only applies at full scale, where amortization can show.
QUICK = os.environ.get("BENCH_QUICK", "") == "1"
OWNERS = 2 if QUICK else 8
FILES_PER_OWNER = 4 if QUICK else 8
FILE_BYTES = 2_000 if QUICK else 4_000
PARAMS = ProtocolParams(s=10, k=8)
SALT = b"engine-epoch"  # EpochScheduler's default task salt
BEACON = HashChainBeacon(b"bench-parallel-engine")


def _build_fleet(rng):
    return build_fleet(
        PARAMS, rng, size=FILE_BYTES, files=FILES_PER_OWNER, owners=OWNERS,
        tag="engine-o{owner}f{file}",
    )


def _sequential_epoch(instances, epoch: int):
    """The seed path: fresh per-file provers, per-proof verification."""
    from repro.core.challenge import epoch_challenge
    from repro.core.prover import Prover

    proofs: dict[int, bytes] = {}
    verdicts: dict[int, bool] = {}
    prove_report = ProveReport()
    verify_report = VerifyReport()
    start = time.perf_counter()
    for instance in instances:
        challenge = epoch_challenge(BEACON.output(epoch), PARAMS, instance.name)
        task = ProveTask.for_round(instance, challenge, epoch=epoch, salt=SALT)
        prover = Prover(
            instance.chunked,
            instance.public,
            list(instance.authenticators),
            rng=task.rng(),
        )
        proof = prover.respond_private(challenge, prove_report)
        proofs[instance.name] = proof.to_bytes()
        verifier = Verifier(instance.public, instance.name, instance.num_chunks)
        verdicts[instance.name] = verifier.verify_private(
            challenge, proof, verify_report
        )
    elapsed = time.perf_counter() - start
    return elapsed, proofs, verdicts


def test_parallel_engine_speedup(report):
    rng = random.Random(0xE17E)
    instances = _build_fleet(rng)
    num_audits = len(instances)
    assert num_audits == OWNERS * FILES_PER_OWNER

    sequential_seconds, sequential_proofs, sequential_verdicts = _sequential_epoch(
        instances, epoch=0
    )

    with AuditExecutor(instances) as executor:
        scheduler = EpochScheduler(
            executor,
            PARAMS,
            BEACON,
            salt=SALT,
            deterministic=True,  # bench-only: enables the bit-for-bit assert
            rng=random.Random(1),
        )
        cold = scheduler.run_epoch(0)
        # Epoch 1 still builds wNAF tables for authenticators/digests the
        # epoch-0 challenge subset never touched; epoch 2 is the steady
        # state every later epoch matches (the amortization argument).
        warming = scheduler.run_epoch(1)
        warm = scheduler.run_epoch(2)

    # -- acceptance: correctness ------------------------------------------
    assert cold.batch_ok == all(sequential_verdicts.values()) == True  # noqa: E712
    assert cold.proof_bytes() == sequential_proofs, (
        "engine proofs must match the sequential seed path bit-for-bit"
    )

    # -- acceptance: >= 2x throughput -------------------------------------
    speedup = sequential_seconds / cold.total_seconds
    warm_speedup = sequential_seconds / warm.total_seconds
    lines = [
        f"{num_audits} concurrent audits ({OWNERS} owners x {FILES_PER_OWNER} "
        f"files, s={PARAMS.s}, k={PARAMS.k}), workers={executor.workers}",
        f"sequential seed path : {sequential_seconds:7.2f} s "
        f"({num_audits / sequential_seconds:5.1f} audits/s)",
        f"engine (cold caches) : {cold.total_seconds:7.2f} s "
        f"({cold.audits_per_second:5.1f} audits/s)  -> {speedup:.2f}x",
        f"  prove {cold.prove_seconds:.2f} s + batch-verify "
        f"{cold.verify_seconds:.2f} s",
        f"engine (cache warmup): {warming.total_seconds:7.2f} s "
        f"({warming.audits_per_second:5.1f} audits/s)  -> "
        f"{sequential_seconds / warming.total_seconds:.2f}x",
        f"engine (warm caches) : {warm.total_seconds:7.2f} s "
        f"({warm.audits_per_second:5.1f} audits/s)  -> {warm_speedup:.2f}x",
        f"  prove {warm.prove_seconds:.2f} s + batch-verify "
        f"{warm.verify_seconds:.2f} s",
        "engine == sequential bit-for-bit: True",
    ]
    report("bench_parallel_engine", "\n".join(lines))
    if not QUICK:
        assert speedup >= 2.0, (
            f"engine must be >= 2x the sequential seed path, got {speedup:.2f}x"
        )


def test_persisted_cache_cold_start(report, tmp_path):
    """Acceptance: a process restart over a populated ``--crypto-cache``
    directory starts within 1.5x of warm-path throughput.

    The first run populates the store (wNAF tables, prepared G2 lines, GT
    windows) while warming its in-memory caches; the second run simulates
    a restarted auditor — fresh executor, fresh caches, same directory —
    and its *first* epoch is timed against the steady-state warm epoch.
    Proofs must match the storeless path bit-for-bit.
    """
    cache_dir = tmp_path / "crypto-cache"
    instances = _build_fleet(random.Random(0xE17E))

    with AuditExecutor(instances, cache_dir=str(cache_dir)) as executor:
        scheduler = EpochScheduler(
            executor,
            PARAMS,
            BEACON,
            salt=SALT,
            deterministic=True,
            rng=random.Random(1),
        )
        first_cold = scheduler.run_epoch(0)
        scheduler.run_epoch(1)
        warm = scheduler.run_epoch(2)

    # Restart: identical fleet, fresh process state, same store directory.
    restarted = _build_fleet(random.Random(0xE17E))
    with AuditExecutor(restarted, cache_dir=str(cache_dir)) as executor:
        scheduler = EpochScheduler(
            executor,
            PARAMS,
            BEACON,
            salt=SALT,
            deterministic=True,
            rng=random.Random(1),
        )
        persisted_cold = scheduler.run_epoch(0)
        persisted_warm = scheduler.run_epoch(2)

    assert persisted_cold.proof_bytes() == first_cold.proof_bytes(), (
        "persisted-store proofs must match the fresh-build path bit-for-bit"
    )
    assert persisted_cold.batch_ok and persisted_warm.batch_ok

    # Warm reference: best steady-state epoch either process produced
    # (single measurements on a shared host are noisy; the minimum is the
    # noise-robust estimator).
    warm_reference = min(warm.total_seconds, persisted_warm.total_seconds)
    ratio = persisted_cold.total_seconds / warm_reference
    store_files = len(list(cache_dir.glob("*.bin")))
    lines = [
        f"store: {store_files} table files under --crypto-cache",
        f"fresh-build cold epoch : {first_cold.total_seconds:7.2f} s "
        f"({first_cold.audits_per_second:5.1f} audits/s)",
        f"warm steady state      : {warm_reference:7.2f} s "
        f"({len(instances) / warm_reference:5.1f} audits/s)",
        f"persisted cold start   : {persisted_cold.total_seconds:7.2f} s "
        f"({persisted_cold.audits_per_second:5.1f} audits/s)  "
        f"-> {ratio:.2f}x warm",
        "persisted == fresh-build bit-for-bit: True",
    ]
    report("bench_persisted_cache", "\n".join(lines))
    if not QUICK:
        assert ratio <= 1.5, (
            f"persisted-cache cold start must be within 1.5x of warm-path "
            f"throughput, got {ratio:.2f}x"
        )
