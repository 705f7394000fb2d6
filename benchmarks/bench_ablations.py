"""Ablation benches for the design choices DESIGN.md calls out.

1. the interleaved wNAF MSM vs naive double-and-add (proving is MSM-bound),
2. multi-pairing (shared final exponentiation) vs separate pairings
   (verification is pairing-bound),
3. fixed-base GT comb vs generic exponentiation (the privacy overhead),
   and what a fresh key's comb costs to build,
4. batch auditing vs sequential verification (Fig. 10's provider story),
5. torus GT compression (288-byte vs 480-byte private proofs).
"""

from __future__ import annotations

import dataclasses
import math
import os
import statistics
import time
from unittest import mock

from repro.core import (
    BatchItem,
    random_challenge,
    verify_batch_grouped,
    verify_sequential,
)
from repro.crypto.bn254 import (
    CURVE_ORDER,
    G1Point,
    G2Point,
    GTFixedBase,
    final_exponentiation,
    gt_pow,
    gt_to_bytes,
    gt_to_bytes_uncompressed,
    kernel,
    miller_loop_product,
    multi_scalar_mul,
    multi_scalar_mul_naive,
    pairing,
)
from repro.obs.hotpath import HOTPATH

G1 = G1Point.generator()
G2 = G2Point.generator()
QUICK = os.environ.get("BENCH_QUICK", "") == "1"


def _msm_inputs(count: int, rng):
    points = [G1 * rng.randrange(1, CURVE_ORDER) for _ in range(count)]
    scalars = [rng.randrange(CURVE_ORDER) for _ in range(count)]
    return points, scalars


def test_ablation_msm_pippenger(benchmark, rng, report):
    """The one MSM algorithm, the wNAF chain, against naive (the id predates
    it)."""
    points, scalars = _msm_inputs(128, rng)
    result = benchmark.pedantic(
        multi_scalar_mul, args=(points, scalars), rounds=2, iterations=1
    )
    start = time.perf_counter()
    naive = multi_scalar_mul_naive(points, scalars)
    naive_seconds = time.perf_counter() - start
    start = time.perf_counter()
    multi_scalar_mul(points, scalars)
    wnaf_seconds = time.perf_counter() - start
    assert result == naive
    report(
        "ablation_msm",
        "128-term G1 MSM (the sigma-aggregation kernel at half paper-k):\n"
        f"  wnaf:      {wnaf_seconds*1000:.0f} ms\n"
        f"  naive:     {naive_seconds*1000:.0f} ms\n"
        f"  speedup:   {naive_seconds/wnaf_seconds:.1f}x",
    )
    assert naive_seconds > wnaf_seconds


def test_ablation_multi_pairing(benchmark, report):
    pairs = [
        (G1 * 3, G2 * 7),
        (G1 * 11, G2 * 5),
        (-(G1 * 2), G2 * 9),
    ]

    def shared():
        return final_exponentiation(miller_loop_product(pairs))

    combined = benchmark.pedantic(shared, rounds=3, iterations=1)
    start = time.perf_counter()
    separate = pairing(*pairs[0]) * pairing(*pairs[1]) * pairing(*pairs[2])
    separate_seconds = time.perf_counter() - start
    start = time.perf_counter()
    shared()
    shared_seconds = time.perf_counter() - start
    assert combined == separate
    report(
        "ablation_multi_pairing",
        "3-pairing product (one Eq. (2) verification's pairing load):\n"
        f"  shared final exponentiation: {shared_seconds*1000:.0f} ms\n"
        f"  three separate pairings:     {separate_seconds*1000:.0f} ms\n"
        f"  speedup: {separate_seconds/shared_seconds:.2f}x",
    )
    assert separate_seconds > shared_seconds


def test_ablation_gt_fixed_base(benchmark, rng, report):
    """The fixed-base comb against the variable-base powers it replaces,
    and what a fresh key's comb costs to build, on each backend.  The build
    is gated in units of one variable-base ``gt_pow`` on the same backend,
    a ratio no host's clock sets."""
    base = pairing(G1, G2)
    exponent = rng.randrange(CURVE_ORDER)
    table = GTFixedBase(base)
    result = benchmark.pedantic(table.pow, args=(exponent,), rounds=3, iterations=1)
    start = time.perf_counter()
    generic = base**exponent
    generic_seconds = time.perf_counter() - start
    start = time.perf_counter()
    cyclotomic = gt_pow(base, exponent)
    cyclotomic_seconds = time.perf_counter() - start
    start = time.perf_counter()
    table.pow(exponent)
    table_seconds = time.perf_counter() - start
    assert result == generic == cyclotomic
    backends = {"python": kernel.Backend("python")}
    if kernel.backend().kernel is not None:
        backends["native"] = kernel.backend()
    lines = [
        "GT exponentiation (the per-proof privacy cost, R = e(g1,eps)^z):",
        f"  generic square-and-multiply: {generic_seconds*1000:.1f} ms",
        f"  cyclotomic squaring:         {cyclotomic_seconds*1000:.1f} ms",
        f"  fixed-base comb:             {table_seconds*1000:.1f} ms",
        "Building the 8-tooth x 32-column comb, against one variable-base gt_pow:",
    ]
    builds = {}
    for name, backend in backends.items():
        with mock.patch.object(kernel, "_backend", backend):
            comb = GTFixedBase(base)
            build_ms, variable_ms, pow_ms = _interleaved_ms(
                [
                    lambda: GTFixedBase(base),
                    lambda: gt_pow(base, exponent),
                    lambda: comb.pow(exponent),
                ],
                rounds=3 if QUICK else 9,
            )
            assert comb.pow(exponent) == result
        builds[name] = build_ms / variable_ms
        saved_ms = max(variable_ms - pow_ms, 1e-9)
        lines.append(
            f"  {name:<6} build {build_ms:6.2f} ms = {builds[name]:.1f}x gt_pow "
            f"({variable_ms:.2f} ms); comb pow {pow_ms:.2f} ms; pays for itself "
            f"from audit {math.ceil(build_ms / saved_ms)} under one key"
        )
    lines.append(
        "A comb is per key: every fresh key (each repair makes one) builds "
        "one, and every audit under that key reuses it."
    )
    report("ablation_gt_exponentiation", "\n".join(lines))
    assert table_seconds < generic_seconds
    for name, ratio in builds.items():
        assert ratio < 4, f"{name}: a comb build costs {ratio:.1f} variable-base powers"


def _interleaved_ms(runs, rounds: int) -> list[float]:
    """Median milliseconds of each of ``runs``, timed in alternation so a
    noisy host slows them alike."""
    times = [[] for _ in runs]
    for _ in range(rounds):
        for run, samples in zip(runs, times):
            start = time.perf_counter()
            run()
            samples.append(time.perf_counter() - start)
    return [statistics.median(samples) * 1000 for samples in times]


def _final_exponentiations(run) -> int:
    HOTPATH.reset()
    HOTPATH.enable()
    try:
        run()
        return HOTPATH.snapshot()["bn254.final_exp"]["calls"]
    finally:
        HOTPATH.disable()
        HOTPATH.reset()


#: Failed 16-statement batches under one key: which statements are forged.
FAILED_BATCHES = {
    "1 bad": {5},
    "2 adjacent bad": {0, 1},
    "2 far-apart bad": {3, 12},
    "all bad": set(range(16)),
}


def test_ablation_batch_auditing(benchmark, audit_system, params, rng, report):
    _, provider, package, _ = audit_system

    def answered(count):
        items = []
        for _ in range(count):
            challenge = random_challenge(params, rng=rng)
            items.append(
                BatchItem(
                    public=package.public,
                    name=package.name,
                    num_chunks=package.num_chunks,
                    challenge=challenge,
                    proof=provider.respond(package.name, challenge),
                )
            )
        return items

    items = answered(4)
    ok = benchmark.pedantic(
        verify_batch_grouped,
        args=(items,),
        kwargs={"rng": rng},
        rounds=2,
        iterations=1,
    )
    assert ok
    start = time.perf_counter()
    assert verify_sequential(items)
    sequential_seconds = time.perf_counter() - start
    start = time.perf_counter()
    assert verify_batch_grouped(items, rng=rng)
    batch_seconds = time.perf_counter() - start
    lines = [
        "Verifying 4 users' proofs (the provider-side batching of VII-D):",
        f"  sequential: {sequential_seconds*1000:.0f} ms (4 final exps)",
        f"  batched:    {batch_seconds*1000:.0f} ms (1 final exp, Miller loops "
        "merged per G2 point)",
        f"  speedup:    {sequential_seconds/batch_seconds:.2f}x",
        "",
        "A failed batch of 16 under one key, localized: the walk (every",
        "statement's lone check) against the bisection after the failed",
        "product (ms, median; final exponentiations in brackets, the",
        "product's own one excluded):",
    ]
    rounds = 3 if QUICK else 15
    honest = answered(16)
    for label, bad in FAILED_BATCHES.items():
        batch = [
            dataclasses.replace(
                item,
                proof=dataclasses.replace(item.proof, y_masked=item.proof.y_masked ^ 1),
            )
            if index in bad else item
            for index, item in enumerate(honest)
        ]
        walk = verify_sequential(batch)
        localized = verify_batch_grouped(batch, rng=rng)
        assert localized.failures == walk.failures
        assert localized.rejected_names()
        product_ms, walk_ms, grouped_ms = _interleaved_ms(
            (
                lambda: verify_batch_grouped(honest, rng=rng),
                lambda: verify_sequential(batch),
                lambda: verify_batch_grouped(batch, rng=rng),
            ),
            rounds,
        )
        localize_ms = grouped_ms - product_ms
        walk_fe = _final_exponentiations(lambda: verify_sequential(batch))
        localize_fe = _final_exponentiations(
            lambda: verify_batch_grouped(batch, rng=rng)
        ) - 1
        lines.append(
            f"  {label:16s} walk {walk_ms:6.1f} [{walk_fe:2d}]  "
            f"localizer {localize_ms:6.1f} [{localize_fe:2d}]  "
            f"({walk_ms / localize_ms:.2f}x)"
        )
    lines.append(f"  (the failed product itself: {product_ms:.1f} ms)")
    report("ablation_batch_auditing", "\n".join(lines))


def test_ablation_torus_compression(benchmark, report):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # report-only entry
    element = pairing(G1 * 99, G2 * 31)
    compressed = gt_to_bytes(element)
    uncompressed = gt_to_bytes_uncompressed(element)
    private_proof_with = 32 + 32 + 32 + len(compressed)
    private_proof_without = 32 + 32 + 32 + len(uncompressed)
    report(
        "ablation_torus_compression",
        "T2 torus compression of the Sigma commitment R:\n"
        f"  GT element: {len(uncompressed)} B -> {len(compressed)} B\n"
        f"  private proof: {private_proof_without} B -> "
        f"{private_proof_with} B (the paper's 288-byte figure)",
    )
    assert private_proof_with == 288
    assert private_proof_without == 480
