"""DA sampling: detection-confidence curves and the light-client download.

Claims under reproduction (the availability analogue of the paper's
confidence figure): against an aggregator withholding a fraction ``f`` of
the erasure-extended chunks, ``s`` random samples detect the hole with
probability at least ``1 - (1 - f)**s`` — at the default budget (18) and
the minimum useful withholding fraction under the 4x extension (25%),
measured detection clears 99%.  Meanwhile the happy-path light client
downloads O(samples) chunks, a small fraction of the full leaf set, and
a full k-of-n reconstruction still slashes forged counts on chain.

BENCH_QUICK=1 (the CI smoke job) shrinks the trial counts so the whole
module runs in seconds.
"""

from __future__ import annotations

import os
import random

from repro.chain import Blockchain, CheckpointContract, CheckpointStatus
from repro.core import ProtocolParams
from repro.da import (
    DEFAULT_SAMPLE_BUDGET,
    DaParams,
    DaSampler,
    build_da_bundle,
    bundle_fetch,
    detection_probability,
)
from repro.obs import MetricsRegistry
from repro.randomness import HashChainBeacon
from repro.rollup import (
    Checkpoint,
    CheckpointClient,
    RoundRecord,
    build_checkpoint,
)

QUICK = os.environ.get("BENCH_QUICK", "") == "1"

#: The deployed extension under test: 64 chunks, any 16 reconstruct.
PARAMS = DaParams(n=64, k=16)

TRIALS = 80 if QUICK else 400
FRACTIONS = (0.25, 0.30, 0.50)
BUDGETS = (6, 12, DEFAULT_SAMPLE_BUDGET)


def _records(epoch: int, count: int) -> tuple[RoundRecord, ...]:
    """Paper-shaped records: 48-byte challenges, 288-byte proofs."""
    return tuple(
        RoundRecord(
            name=2_000 + i,
            epoch=epoch,
            challenge_bytes=bytes([(i + 1) % 251]) * 48,
            proof_bytes=bytes([(i + 7) % 251]) * 288,
            verdict=True,
        )
        for i in range(count)
    )


def _bundle(epoch: int = 0, leaves: int = 96):
    return build_da_bundle(
        0, epoch, build_checkpoint(epoch, _records(epoch, leaves)), PARAMS
    )


def _trial_seed(trial: int) -> bytes:
    return b"da-bench" + trial.to_bytes(8, "big")


def _measure_detection(bundle, fraction: float, budget: int) -> float:
    """Fraction of seeded trials whose sampling run flags withholding."""
    sampler = DaSampler(
        bundle_fetch({(0, bundle.commitment.epoch): bundle}),
        registry=MetricsRegistry(),
    )
    withheld_count = round(fraction * PARAMS.n)
    detected = 0
    for trial in range(TRIALS):
        rng = random.Random((trial << 8) | budget)
        bundle.withheld = set(rng.sample(range(PARAMS.n), withheld_count))
        report = sampler.sample(
            bundle.commitment, _trial_seed(trial), budget=budget
        )
        detected += 0 if report.available else 1
    bundle.withheld = set()
    return detected / TRIALS


def test_da_detection_confidence_grid(report):
    bundle = _bundle()
    lines = [
        "DA sampling reproduction: withholding-detection confidence.",
        f"extension (n, k) = ({PARAMS.n}, {PARAMS.k}); {TRIALS} seeded "
        "trials per cell; analytic = 1 - (1 - f)^s.",
        "",
        f"{'withheld f':>11} {'samples s':>10} {'measured':>9} {'analytic':>9}",
    ]
    measured_default = None
    for fraction in FRACTIONS:
        for budget in BUDGETS:
            measured = _measure_detection(bundle, fraction, budget)
            analytic = detection_probability(fraction, budget)
            lines.append(
                f"{fraction:>11.2f} {budget:>10} {measured:>9.4f} "
                f"{analytic:>9.4f}"
            )
            if fraction == 0.25 and budget == DEFAULT_SAMPLE_BUDGET:
                measured_default = measured
            # Without-replacement sampling can only beat the analytic
            # with-replacement bound (small deterministic slack for the
            # finite trial count).
            assert measured >= analytic - 0.05, (fraction, budget)
    # The acceptance bar: >= 99% detection at the default budget against
    # the minimum useful withholding fraction.
    assert measured_default is not None
    assert measured_default >= 0.99
    assert detection_probability(0.25, DEFAULT_SAMPLE_BUDGET) >= 0.99
    lines += [
        "",
        f"default budget s = {DEFAULT_SAMPLE_BUDGET}: measured "
        f"{measured_default:.4f}, analytic "
        f"{detection_probability(0.25, DEFAULT_SAMPLE_BUDGET):.4f} "
        "(>= 0.99 required)",
    ]
    report("da_sampling", "\n".join(lines))


def test_da_happy_path_downloads_o_samples(report):
    """A clean sampling run downloads a fraction of the full leaf set.

    At the wider paper-scale extension (n=240, k=80: same 3x-ish blow-up
    class, finer chunks) the per-chunk size is blob/80, so the default
    18-sample budget moves well under the leaf set a trusting light
    client would download whole — even counting every NMT opening.
    """
    wide = DaParams(n=240, k=80)
    leaves = 200
    records = _records(1, leaves)
    bundle = build_da_bundle(0, 1, build_checkpoint(1, records), wide)
    sampler = DaSampler(
        bundle_fetch({(0, 1): bundle}), registry=MetricsRegistry()
    )
    full_leaf_bytes = sum(len(r.to_bytes()) for r in records)
    full_chunk_bytes = bundle.chunk_payload_bytes()
    reports = [
        sampler.sample(bundle.commitment, _trial_seed(t)) for t in range(5)
    ]
    assert all(r.available for r in reports)
    downloaded = max(r.downloaded_bytes for r in reports)
    # O(samples): s of n chunks plus their NMT openings, under the full
    # leaf set and far under the full chunk set.
    assert downloaded < full_leaf_bytes
    assert downloaded < full_chunk_bytes / 3
    report(
        "da_sampling_download",
        "\n".join([
            "DA happy-path download (light client, per epoch):",
            f"extension (n, k) = ({wide.n}, {wide.k})",
            f"leaf set: {leaves} records, {full_leaf_bytes} B "
            f"(chunk set {full_chunk_bytes} B after extension)",
            f"sampled: {DEFAULT_SAMPLE_BUDGET} chunks + proofs = "
            f"{downloaded} B "
            f"({downloaded / full_leaf_bytes:.1%} of the leaf set, "
            f"{downloaded / full_chunk_bytes:.1%} of the chunk set)",
        ]),
    )


def test_da_reconstruction_slashes_forged_counts():
    """End to end at bench scale: reconstruction evidence slashes on chain."""
    epoch = 2
    checkpoint_bundle = build_checkpoint(epoch, _records(epoch, 96))
    da_bundle = build_da_bundle(0, epoch, checkpoint_bundle, PARAMS)
    honest = checkpoint_bundle.checkpoint
    forged = Checkpoint(
        epoch=epoch,
        root=honest.root,
        accepted=honest.accepted - 3,
        rejected=honest.rejected + 3,
        num_leaves=honest.num_leaves,
        proof_digest=honest.proof_digest,
    )
    chain = Blockchain(block_time=15.0)
    aggregator = chain.create_account(10.0, label="aggregator")
    challenger = chain.create_account(10.0, label="challenger")
    contract = CheckpointContract(
        HashChainBeacon(b"da-bench"), ProtocolParams(s=6, k=4),
        fraud_window=500.0,
    )
    address = chain.deploy(contract, deployer=aggregator)
    client = CheckpointClient(chain.transact, address, contract)
    receipt = client.post_checkpoint(aggregator, forged)
    assert receipt.success, receipt.error
    checkpoint_id = receipt.return_value
    receipt = client.post_da_root(aggregator, checkpoint_id, da_bundle.commitment)
    assert receipt.success, receipt.error
    # The challenger never sees the aggregator's leaf set: only chunks.
    bundle_served = bundle_fetch({(0, epoch): da_bundle})
    sampler = DaSampler(bundle_served, registry=MetricsRegistry())
    reconstruction = sampler.reconstruct(da_bundle.commitment, b"\x09" * 8)
    challenge = client.challenge_counts(
        challenger, checkpoint_id, reconstruction.counts_challenge_leaves()
    )
    assert challenge.success, challenge.error
    entry = contract.checkpoints[checkpoint_id]
    assert entry.status is CheckpointStatus.SLASHED
    assert "count-mismatch" in entry.fraud_reason


def test_da_sample_kernel(benchmark):
    """Wall-clock of one default-budget sampling run at deployed scale."""
    bundle = _bundle(epoch=3)
    sampler = DaSampler(
        bundle_fetch({(0, 3): bundle}), registry=MetricsRegistry()
    )
    run = lambda: sampler.sample(bundle.commitment, b"\x05" * 8)
    assert run().available
    benchmark.pedantic(run, rounds=3 if QUICK else 10, iterations=1)


def test_da_light_client_path(benchmark):
    """Wall-clock of one light-client epoch at the e2e benchmark's shape:
    commit 4,000 paper-shaped records, extend and NMT-commit them at
    (n, k) = (240, 80), run one default-budget sampling pass and rebuild
    the leaf set from k verified chunks."""
    wide = DaParams(n=240, k=80)
    records = _records(4, 4_000)
    served = {}
    sampler = DaSampler(bundle_fetch(served), registry=MetricsRegistry())

    def epoch():
        checkpoint = build_checkpoint(4, records)
        bundle = build_da_bundle(0, 4, checkpoint, wide)
        served[(0, 4)] = bundle
        report = sampler.sample(bundle.commitment, b"\x06" * 8)
        return checkpoint, report, sampler.reconstruct(bundle.commitment, b"\x06" * 8)

    checkpoint, report, rebuilt = epoch()
    assert report.available
    assert rebuilt.verified and rebuilt.records == checkpoint.records
    benchmark.pedantic(epoch, rounds=3 if QUICK else 10, iterations=1)
