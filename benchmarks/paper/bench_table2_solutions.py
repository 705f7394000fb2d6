"""Table II — SNARK-based strawman vs the main HLA solution.

Columns per the paper: preprocessing time, parameter size, #constraints,
proof-generation time + memory, proof size, verification time.

Scale substitution (documented in docs/BENCHMARKS.md): the strawman runs on a
64-byte file (depth-2 MiMC circuit) and the main solution on a 40 KB file;
per-byte rates are extrapolated to the paper's 1 KB / 1 GB scales.  The
qualitative claims under reproduction:

* strawman setup time >> main preprocessing (per byte of file),
* strawman proof generation is seconds, main is milliseconds,
* strawman parameters are MB-class, main is KB-class,
* both proofs are constant-size; main verification is pairing-bound.
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro.core.prover import ProveReport, Prover
from repro.core.verifier import VerifyReport
from repro.core.challenge import random_challenge
from snark.strawman import StrawmanOwner, StrawmanProver, StrawmanVerifier

STRAWMAN_FILE_BYTES = 64


@pytest.fixture(scope="module")
def strawman_system(rng):
    data = bytes(range(STRAWMAN_FILE_BYTES))
    owner = StrawmanOwner(data, rng=rng)
    start = time.perf_counter()
    setup_result = owner.trusted_setup()
    setup_seconds = time.perf_counter() - start
    prover = StrawmanProver(owner.blocks, setup_result, rng=rng)
    verifier = StrawmanVerifier(setup_result)
    return owner, setup_result, setup_seconds, prover, verifier


def test_table2_strawman_prove(benchmark, strawman_system):
    _, _, _, prover, verifier = strawman_system
    seed = b"bench-round"

    def run():
        prover._proof_cache.clear()
        return prover.respond(seed)

    proof, publics, _ = benchmark.pedantic(run, rounds=2, iterations=1)
    assert verifier.verify(seed, proof, publics)


def test_table2_strawman_verify(benchmark, strawman_system):
    _, _, _, prover, verifier = strawman_system
    seed = b"bench-verify"
    proof, publics, _ = prover.respond(seed)
    ok = benchmark.pedantic(
        verifier.verify, args=(seed, proof, publics), rounds=3, iterations=1
    )
    assert ok


def test_table2_main_prove(benchmark, audit_system, params, rng):
    _, provider, package, verifier = audit_system
    challenge = random_challenge(params, rng=rng)
    prover = provider.prover_for(package.name)
    proof = benchmark.pedantic(
        prover.respond_private, args=(challenge,), rounds=3, iterations=1
    )
    assert verifier.verify_private(challenge, proof)


def test_table2_main_verify(benchmark, audit_system, params, rng):
    _, provider, package, verifier = audit_system
    challenge = random_challenge(params, rng=rng)
    proof = provider.respond(package.name, challenge)
    ok = benchmark.pedantic(
        verifier.verify_private, args=(challenge, proof), rounds=3, iterations=1
    )
    assert ok


def test_table2_report(benchmark, report, strawman_system, audit_system, params, rng):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # report-only entry
    owner_sm, setup_result, setup_seconds, prover_sm, verifier_sm = strawman_system
    _, provider, package, verifier = audit_system

    # --- strawman measurements (timing first, memory in a separate pass:
    # tracemalloc inflates allocation-heavy code several-fold) ---
    seed = b"report-round"
    prover_sm._proof_cache.clear()
    start = time.perf_counter()
    proof_sm, publics, _ = prover_sm.respond(seed)
    sm_prove_s = time.perf_counter() - start
    start = time.perf_counter()
    assert verifier_sm.verify(seed, proof_sm, publics)
    sm_verify_s = time.perf_counter() - start
    prover_sm._proof_cache.clear()
    tracemalloc.start()
    prover_sm.respond(seed)
    _, sm_prove_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # --- main solution measurements ---
    challenge = random_challenge(params, rng=rng)
    prover = provider.prover_for(package.name)
    prove_report = ProveReport()
    proof_main = prover.respond_private(challenge, prove_report)
    verify_report = VerifyReport()
    assert verifier.verify_private(challenge, proof_main, verify_report)
    tracemalloc.start()
    prover.respond_private(challenge)
    _, main_prove_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # Main preprocessing rate, measured fresh on a small file.
    from repro.core.authenticator import PreprocessReport, generate_authenticators
    from repro.core.chunking import chunk_file
    from repro.core.keys import generate_keypair

    kp = generate_keypair(params.s, rng=rng)
    sample = chunk_file(b"\x17" * 10_000, params, name=1)
    pre_report = PreprocessReport()
    generate_authenticators(sample, kp, report=pre_report)
    mb_per_s = (10_000 / 2**20) / pre_report.total_seconds
    one_gb_estimate_s = 1024 / mb_per_s

    pk_bytes = package.public.byte_size()
    rows = [
        "Table II reproduction (measured on this Python implementation;",
        "paper values in brackets are the authors' Rust/Go prototype).",
        "",
        f"{'':28}{'Strawman (Groth16+Merkle)':>28}{'Main (HLA+PolyCommit)':>26}",
        f"{'File in experiment':28}{f'{STRAWMAN_FILE_BYTES} B':>28}{'40 KB':>26}",
        f"{'Pre-process / setup':28}{f'{setup_seconds:.1f} s  [260 s]':>28}"
        f"{f'{pre_report.total_seconds:.2f} s':>26}",
        f"{'  1 GB extrapolation':28}{'n/a (16 KB max [43])':>28}"
        f"{f'{one_gb_estimate_s/60:.0f} min  [~2 min]':>26}",
        f"{'Param size':28}{f'{setup_result.param_bytes/1024:.0f} KB  [150 MB]':>28}"
        f"{f'{pk_bytes/1024:.1f} KB  [~5 KB]':>26}",
        f"{'# Constraints':28}"
        f"{f'{setup_result.constraint_count} (MiMC)':>28}{'-':>26}",
        f"{'  SHA-256 equivalent':28}"
        f"{f'{setup_result.sha256_equivalent:.0e}  [3e5]':>28}{'-':>26}",
        f"{'Proof generation':28}{f'{sm_prove_s:.1f} s  [30 s]':>28}"
        f"{f'{prove_report.total_seconds*1000:.0f} ms  [46 ms]':>26}",
        f"{'Proof gen peak memory':28}{f'{sm_prove_peak/2**20:.0f} MB  [~300 MB]':>28}"
        f"{f'{main_prove_peak/2**20:.1f} MB  [3 MB]':>26}",
        f"{'Proof size':28}{f'{len(proof_sm.to_bytes())} B  [384 B]':>28}"
        f"{f'{len(proof_main.to_bytes())} B  [288 B]':>26}",
        f"{'Verification':28}{f'{sm_verify_s*1000:.0f} ms  [30 ms]':>28}"
        f"{f'{verify_report.total_seconds*1000:.0f} ms  [7 ms]':>26}",
        "",
        "Shape check: setup>>prove>>verify for the strawman; KB-class params,",
        "ms-class proving and a 288-byte constant proof for the main scheme.",
    ]
    report("table2_solutions", "\n".join(rows))

    assert setup_seconds > sm_prove_s > sm_verify_s
    assert setup_result.param_bytes > 10 * pk_bytes
    assert prove_report.total_seconds < sm_prove_s
    assert len(proof_main.to_bytes()) == 288
