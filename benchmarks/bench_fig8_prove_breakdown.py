"""Fig. 8 — prover time split into ECC vs Zp work, +/- privacy, k = 300.

The paper fixes k = 300 (95% confidence) and sweeps s over {10, 20, 50,
100}.  Files are sized to hold ~310 chunks for every s so the challenge is
always full-width.  The claims under reproduction:

* ECC operations dominate total proving time at every s,
* Zp time grows with s (k*s coefficient aggregation),
* the privacy add-on ("+ security") is a roughly constant GT exponentiation.
"""

from __future__ import annotations

from repro.core.authenticator import generate_authenticators
from repro.core.challenge import random_challenge
from repro.core.chunking import chunk_file
from repro.core.keys import generate_keypair
from repro.core.params import ProtocolParams
from repro.core.prover import ProveReport, Prover

K = 300
NUM_CHUNKS = 310
S_SWEEP = (10, 20, 50, 100)


def _build_prover(s: int, rng) -> tuple[Prover, ProtocolParams]:
    params = ProtocolParams(s=s, k=K)
    keypair = generate_keypair(s, rng=rng)
    data = b"\x2d" * (NUM_CHUNKS * s * 31)
    chunked = chunk_file(data, params, name=11)
    assert chunked.num_chunks >= K
    authenticators = generate_authenticators(chunked, keypair)
    return Prover(chunked, keypair.public, authenticators, rng=rng), params


def test_fig8_prove_kernel_s50(benchmark, rng):
    prover, params = _build_prover(50, rng)
    challenge = random_challenge(params, rng=rng)
    prover.respond_private(challenge)  # warm the GT table
    proof = benchmark.pedantic(
        prover.respond_private, args=(challenge,), rounds=2, iterations=1
    )
    assert proof.byte_size() == 288


def test_fig8_report(benchmark, report, rng):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # report-only entry
    lines = [
        f"Fig. 8 reproduction: prover time at k = {K} (95% confidence),",
        "split into ECC ops, Zp ops, and the '+ security' GT exponentiation.",
        "All times in ms (pure Python; the paper's Go prototype is ~20-50x",
        "faster in absolute terms - the split and trends are the claim).",
        "",
        f"{'s':>5} {'Zp ops':>9} {'ECC ops':>9} {'privacy':>9} {'total':>9} "
        f"{'ECC share':>10}",
    ]
    zp_series, ecc_series, privacy_series = {}, {}, {}
    for s in S_SWEEP:
        prover, params = _build_prover(s, rng)
        challenge = random_challenge(params, rng=rng)
        prover.respond_private(challenge)  # warm-up: builds the GT table
        prove_report = ProveReport()
        prover.respond_private(challenge, prove_report)
        zp_ms = prove_report.zp_seconds * 1000
        ecc_ms = prove_report.ecc_seconds * 1000
        privacy_ms = prove_report.privacy_seconds * 1000
        total_ms = prove_report.total_seconds * 1000
        zp_series[s], ecc_series[s], privacy_series[s] = zp_ms, ecc_ms, privacy_ms
        lines.append(
            f"{s:>5} {zp_ms:>9.1f} {ecc_ms:>9.1f} {privacy_ms:>9.1f} "
            f"{total_ms:>9.1f} {ecc_ms/total_ms:>9.0%}"
        )
    lines += [
        "",
        "Paper anchors: 'ECC operations dominate the running time'; Zp time",
        "grows with s but stays minor; privacy overhead roughly constant.",
    ]
    report("fig8_prove_breakdown", "\n".join(lines))

    # Shape assertions.
    for s in S_SWEEP:
        assert ecc_series[s] > zp_series[s], "ECC must dominate Zp"
    assert zp_series[100] > zp_series[10], "Zp work grows with s"
    spread = max(privacy_series.values()) / max(1e-9, min(privacy_series.values()))
    assert spread < 5, "privacy overhead should be roughly constant in s"
