"""Fig. 9 — prover time vs storage-confidence level, +/- on-chain privacy.

x-axis: confidence 91%..99% at 1% corruption, mapped to k via the
Section VI-A model (240..459 challenged chunks).  Claims under
reproduction: proving time grows with k; the privacy (solid) line sits a
roughly constant GT-exponentiation above the non-private (dotted) line.
"""

from __future__ import annotations

from repro.core.authenticator import generate_authenticators
from repro.core.challenge import random_challenge
from repro.core.chunking import chunk_file
from repro.core.confidence import figure9_k_schedule
from repro.core.keys import generate_keypair
from repro.core.params import ProtocolParams
from repro.core.prover import ProveReport, Prover

S = 20  # smaller than the paper's 50 to keep the pure-Python run short
NUM_CHUNKS = 470


def _build(rng):
    keypair = generate_keypair(S, rng=rng)
    chunked = chunk_file(b"\x3e" * (NUM_CHUNKS * S * 31),
                         ProtocolParams(s=S, k=1), name=13)
    authenticators = generate_authenticators(chunked, keypair)
    return Prover(chunked, keypair.public, authenticators, rng=rng)


def test_fig9_prove_kernel_95pct(benchmark, rng):
    prover = _build(rng)
    schedule = figure9_k_schedule()
    challenge = random_challenge(ProtocolParams(s=S, k=schedule[0.95]), rng=rng)
    prover.respond_private(challenge)  # warm GT table
    proof = benchmark.pedantic(
        prover.respond_private, args=(challenge,), rounds=2, iterations=1
    )
    assert proof.byte_size() == 288


def test_fig9_report(benchmark, report, rng):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # report-only entry
    prover = _build(rng)
    schedule = figure9_k_schedule()
    lines = [
        "Fig. 9 reproduction: prover time vs confidence (1% corruption).",
        f"s = {S}; k from the Section VI-A model. Times in ms (pure Python).",
        "",
        f"{'confidence':>11} {'k':>5} {'w/ privacy':>12} {'w/o privacy':>12} "
        f"{'overhead':>10}",
    ]
    private_series, plain_series = {}, {}
    warmed = False
    for confidence, k in schedule.items():
        challenge = random_challenge(ProtocolParams(s=S, k=k), rng=rng)
        if not warmed:
            prover.respond_private(challenge)
            warmed = True
        # Best-of-3 minima: scheduler noise easily exceeds the privacy gap.
        private_ms = min(
            _timed(prover.respond_private, challenge) for _ in range(3)
        )
        plain_ms = min(_timed(prover.respond_plain, challenge) for _ in range(3))
        private_series[confidence] = private_ms
        plain_series[confidence] = plain_ms
        lines.append(
            f"{confidence:>10.0%} {k:>5} {private_ms:>12.1f} {plain_ms:>12.1f} "
            f"{private_ms - plain_ms:>10.1f}"
        )
    lines += [
        "",
        "Paper anchors: both lines rise with the confidence level (k);",
        "the gap between them is the near-constant Sigma-protocol cost",
        "(one GT exponentiation + hash).",
    ]
    report("fig9_confidence", "\n".join(lines))

    confidences = sorted(schedule)
    assert plain_series[confidences[-1]] > plain_series[confidences[0]]
    assert private_series[confidences[-1]] > private_series[confidences[0]]
    # The privacy overhead must be positive on average (per-point comparisons
    # can still be crossed by noise on a loaded machine).
    overheads = [
        private_series[c] - plain_series[c] for c in confidences
    ]
    assert sum(overheads) > 0


def _timed(func, challenge) -> float:
    report = ProveReport()
    func(challenge, report)
    return report.total_seconds * 1000
