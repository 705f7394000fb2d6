"""One audit at the paper's operating point: s = 50, k = 300, a 1 MiB file.

The paper makes its "lightweight" claim at k = 300 (95 % confidence at
1 % corruption) with s = 50 blocks per chunk; a 1 MiB file is then 677
chunks.  Each row is the median over fresh challenges of one step of
one audit:

* **expansion** — ``Challenge.expand``: the Feistel PRP walk (677 chunks
  in a 4,096-wide domain) and 300 PRF coefficients, cache cleared first;
* **encode / decode** — ``PrivateProof.to_bytes`` / ``from_bytes``, the
  288-byte proof and its torus-compressed GT commitment;
* **prove / verify** — ``Prover.respond_private`` and
  ``Verifier.verify_private``, each with the expansion cache cleared
  first, so each pays its own expansion as a contract would.

Expansion, encode and decode run twice, on the chosen backend and on the
pure-Python references of every BN254 loop, and must give identical
outputs.  For expansion and encode the reference column is the code the
kernel replaced; for decode it also holds the two G1 square roots, which
ran in the kernel before the GT codec did.  The claim: expansion is at least 3x faster in the
kernel.  ``BENCH_QUICK=1`` (the CI smoke job) takes 3 challenges instead
of 5; the operating point itself never shrinks.
"""

from __future__ import annotations

import dataclasses
import os
import random
import statistics
import time

from repro.core.authenticator import generate_authenticators
from repro.core.challenge import _expand_challenge, random_challenge
from repro.core.chunking import chunk_file
from repro.core.keys import generate_keypair
from repro.core.params import ProtocolParams
from repro.core.proof import PrivateProof
from repro.core.prover import Prover
from repro.core.verifier import Verifier
from repro.crypto.bn254 import G1Point, kernel
from repro.sim.workloads import archive_file

QUICK = os.environ.get("BENCH_QUICK", "") == "1"
S = 50
K = 300
FILE_BYTES = 1 << 20
CHALLENGES = 3 if QUICK else 5
PYTHON = kernel.Backend("python")


def _median_ms(step, inputs) -> tuple[float, list]:
    """Median wall time of ``step`` over ``inputs``, and its outputs."""
    times, outputs = [], []
    for item in inputs:
        start = time.perf_counter()
        outputs.append(step(item))
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000, outputs


def _on_both(step, inputs) -> tuple[float, float | None, list]:
    """(kernel ms, reference ms, outputs), the outputs required equal; the
    reference column is ``None`` where no kernel is in use.  Each input
    runs on both backends back to back, so both columns see the host in
    the same state."""
    chosen = kernel.backend()
    if chosen.kernel is None:
        native_ms, outputs = _median_ms(step, inputs)
        return native_ms, None, outputs
    native, reference, outputs = [], [], []
    for item in inputs:
        native_ms, (output,) = _median_ms(step, [item])
        kernel._backend = PYTHON
        try:
            reference_ms, expected = _median_ms(step, [item])
        finally:
            kernel._backend = chosen
        assert [output] == expected
        native.append(native_ms)
        reference.append(reference_ms)
        outputs.append(output)
    return statistics.median(native), statistics.median(reference), outputs


def _encode(proof: PrivateProof) -> bytes:
    """Encode a copy whose sigma and psi have not memoised their affine
    form, so that each backend's encode pays the normalisation."""
    fresh = dataclasses.replace(
        proof,
        sigma=G1Point(proof.sigma.x, proof.sigma.y, proof.sigma.z),
        psi=G1Point(proof.psi.x, proof.psi.y, proof.psi.z),
    )
    return fresh.to_bytes()


def _expand(num_chunks):
    def step(challenge):
        _expand_challenge.cache_clear()
        return challenge.expand(num_chunks)

    return step


def test_paper_point_report(report):
    rng = random.Random(0x50300)
    params = ProtocolParams(s=S, k=K)
    keypair = generate_keypair(S, rng=rng)
    chunked = chunk_file(archive_file(FILE_BYTES, tag="paper-point").data, params, name=52)
    assert chunked.num_chunks == 677
    prover = Prover(chunked, keypair.public, generate_authenticators(chunked, keypair), rng=rng)
    verifier = Verifier(keypair.public, chunked.name, chunked.num_chunks)
    challenges = [random_challenge(params, rng=rng) for _ in range(CHALLENGES)]
    prover.respond_private(random_challenge(params, rng=rng))  # warm the tables

    expand = _on_both(_expand(chunked.num_chunks), challenges)

    def prove(challenge):
        _expand_challenge.cache_clear()
        return prover.respond_private(challenge)

    prove_ms, proofs = _median_ms(prove, challenges)
    encode = _on_both(_encode, proofs)
    decode = _on_both(PrivateProof.from_bytes, encode[2])
    assert decode[2] == proofs

    def verify(pair):
        _expand_challenge.cache_clear()
        return verifier.verify_private(*pair)

    verify_ms, verdicts = _median_ms(verify, list(zip(challenges, decode[2])))
    assert all(verdicts)

    lines = [
        f"One audit at the paper's point: s = {S}, k = {K}, a 1 MiB file of "
        f"{chunked.num_chunks} chunks.",
        f"Median of {CHALLENGES} fresh challenges, ms. Backend: "
        f"{kernel.backend().describe()}.",
        "",
        f"{'step':<10} {'chosen':>9} {'reference':>10} {'speedup':>8}",
    ]
    for name, (native_ms, reference_ms, _) in (
        ("expansion", expand), ("encode", encode), ("decode", decode)
    ):
        if reference_ms is None:
            lines.append(f"{name:<10} {native_ms:>9.3f} {'-':>10} {'-':>8}")
        else:
            lines.append(
                f"{name:<10} {native_ms:>9.3f} {reference_ms:>10.3f} "
                f"{reference_ms / native_ms:>7.1f}x"
            )
    lines += [
        f"{'prove':<10} {prove_ms:>9.3f}",
        f"{'verify':<10} {verify_ms:>9.3f}",
        "",
        "prove and verify each include their own expansion (cache cleared).",
        "reference: every BN254 loop in pure Python (for decode that includes",
        "the two G1 square roots, kernel calls before the GT codec was one).",
        "Paper anchor: verify 7.2 ms on the Go prototype.",
    ]
    report("paper_point", "\n".join(lines))

    if expand[1] is not None:
        assert expand[1] / expand[0] >= 3.0
