"""Raw-speed microbenchmarks for the BN254 / GF(256) crypto hot path.

Four sweeps, one per rebuilt kernel family:

* **MSM** — signed-window Pippenger with batch-affine bucket accumulation
  (`multi_scalar_mul`) across input sizes, with the naive double-and-add
  reference timed at the smallest size for a grounded speedup figure (and
  checked for exact equality at every size).
* **Batch verify** — `pairing_check` over growing pair counts with
  prepared-G2 lines, against the same product computed as individual
  pairings; the shared squaring chain plus cached lines is the win the
  grouped batch verifier rides on.
* **BN254 inner loops** — a 3-pair Miller loop, a final exponentiation,
  an 11-term G1 wNAF MSM, a GT fixed-base pow, a generic G1 and G2 scalar
  multiplication and a whole ``generate_keypair(s=10)``, each on the
  pure-Python references and on the native kernel, outputs required equal
  (raw Jacobian triples for the points, the state digest for the key).
* **GF(256)** — `gf_matmul` on the native kernel and on the numpy
  table-gather fallback over block sizes of a 4x8 coding matrix and the
  240x80 DA encode, both required equal to each other and to the
  per-element scalar reference on a column prefix.

``BENCH_QUICK=1`` (the CI bench-smoke job) shrinks every sweep so all
code paths run under a tight timeout; full-scale numbers are committed
under ``benchmarks/results/bench_crypto_speed.txt``.
"""

from __future__ import annotations

import os
import random
import time
from unittest import mock

import numpy as np

from repro.chain.state import canonical_state_digest
from repro.core import keys
from repro.crypto.bn254 import (
    CURVE_ORDER,
    G1Point,
    G2Point,
    GTFixedBase,
    PrecomputeCache,
    final_exponentiation,
    kernel,
    miller_loop_product,
    multi_scalar_mul,
    multi_scalar_mul_naive,
    pairing,
    pairing_product,
    prepare_g2,
)
from repro.crypto.bn254.fields import Fp12
from repro.crypto.bn254.precompute import GT_WINDOW
from repro.storage import ReedSolomonCode, gf256
from repro.storage.gf256 import gf_matmul, gf_matmul_ref

QUICK = os.environ.get("BENCH_QUICK", "") == "1"

MSM_SIZES = (16, 64) if QUICK else (16, 64, 256, 1024)
NAIVE_REFERENCE_SIZE = 16
PAIR_COUNTS = (1, 2) if QUICK else (1, 2, 4, 8)
GF_BLOCK_SIZES = (4_096, 65_536) if QUICK else (4_096, 65_536, 1_048_576)

G1 = G1Point.generator()
G2 = G2Point.generator()


def _best_of(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_crypto_speed_sweep(report):
    rng = random.Random(0x5EED)
    lines = []

    # -- MSM sweep ---------------------------------------------------------
    lines.append("MSM: signed-window + batch-affine buckets (G1)")
    big_points = [G1 * rng.randrange(1, CURVE_ORDER) for _ in range(max(MSM_SIZES))]
    big_scalars = [rng.randrange(CURVE_ORDER) for _ in range(max(MSM_SIZES))]
    for size in MSM_SIZES:
        points, scalars = big_points[:size], big_scalars[:size]
        fast_s, fast = _best_of(lambda: multi_scalar_mul(points, scalars))
        line = f"  n={size:5d}: {fast_s * 1e3:8.1f} ms"
        if size <= NAIVE_REFERENCE_SIZE:
            naive_s, naive = _best_of(
                lambda: multi_scalar_mul_naive(points, scalars), repeats=1
            )
            assert fast == naive, f"MSM mismatch at n={size}"
            line += f"   (naive {naive_s * 1e3:8.1f} ms -> {naive_s / fast_s:.1f}x)"
        else:
            assert fast == multi_scalar_mul_naive(points, scalars)
        lines.append(line)

    # -- batch pairing sweep -----------------------------------------------
    lines.append("")
    lines.append(
        "Batch verify: shared-squaring-chain pairing product, prepared G2 lines"
    )
    cache = PrecomputeCache()
    fixed_g2 = [G2 * (i + 2) for i in range(max(PAIR_COUNTS))]
    for prepared_point in fixed_g2:
        cache.prepared_g2(prepared_point)  # owner keys: prepared once
    for count in PAIR_COUNTS:
        pairs_g1 = [G1 * rng.randrange(1, CURVE_ORDER) for _ in range(count)]
        prepared_pairs = [
            (p, cache.prepared_g2(q)) for p, q in zip(pairs_g1, fixed_g2)
        ]
        shared_s, shared = _best_of(lambda: pairing_product(prepared_pairs))

        def individual():
            out = Fp12.one()
            for p, q in zip(pairs_g1, fixed_g2):
                out = out * pairing(p, q)
            return out

        individual_s, separate = _best_of(individual, repeats=1)
        assert shared == separate, f"pairing product mismatch at {count} pairs"
        lines.append(
            f"  pairs={count}: shared {shared_s * 1e3:7.1f} ms vs "
            f"individual {individual_s * 1e3:7.1f} ms "
            f"-> {individual_s / shared_s:.2f}x"
        )

    # -- BN254 inner loops on both backends ---------------------------------
    lines.append("")
    lines.append(
        f"BN254 inner loops on both backends (this host: "
        f"{kernel.backend().describe()}), outputs required equal"
    )
    lines.extend(_bn254_lines(rng))

    # -- GF(256) sweep -----------------------------------------------------
    lines.append("")
    lines.append(
        f"GF(256): gf_matmul on both backends (this host: "
        f"{gf256.backend().describe()}), checked against gf_matmul_ref"
    )
    np_rng = np.random.default_rng(7)
    coding = [[int(np_rng.integers(1, 256)) for _ in range(8)] for _ in range(4)]
    shapes = [("4x8 coding", coding, block, 256) for block in GF_BLOCK_SIZES]
    # The da_light_client encode: RS(240, 80) over an ~18 KiB chunk.  The
    # reference costs 19,200 gf_mul calls per column, so it sees 16.
    shapes.append(("240x80 DA encode", ReedSolomonCode(240, 80).matrix, 18_432, 16))
    for label, matrix, block, columns in shapes:
        shards = np_rng.integers(0, 256, size=(len(matrix[0]), block), dtype=np.uint8)
        lines.append(_gf_line(label, matrix, shards, columns))

    report("bench_crypto_speed", "\n".join(lines))


def _bn254_lines(rng):
    """The loops behind a settle_checkpoint epoch's three HOTPATH legs and
    the Sigma commitment, at that workload's sizes (k = 8 digests plus the
    proof's terms per MSM, three owner-key Miller loops per group), and the
    owner's Initialize step every onboarding and repair pays."""
    backends = {"python": kernel.Backend("python")}
    if kernel.backend().kernel is not None:
        backends["native"] = kernel.backend()
    pairs = [
        (G1 * rng.randrange(1, CURVE_ORDER), prepare_g2(G2 * rng.randrange(1, 2**64)))
        for _ in range(3)
    ]
    miller = miller_loop_product(pairs)
    points = [G1 * rng.randrange(1, CURVE_ORDER) for _ in range(11)]
    scalars = [rng.randrange(CURVE_ORDER) for _ in range(11)]
    base = pairing(G1, G2)
    exponent = rng.randrange(CURVE_ORDER)
    twist = G2 * rng.randrange(1, 2**64)
    windows = {}
    for name, backend in backends.items():
        with mock.patch.object(kernel, "_backend", backend):
            windows[name] = GTFixedBase(base, GT_WINDOW)
    cases = [
        ("3-pair Miller loop", lambda name: miller_loop_product(pairs)),
        ("final exponentiation", lambda name: final_exponentiation(miller)),
        ("11-term G1 wNAF MSM", lambda name: _raw(multi_scalar_mul(points, scalars))),
        (f"GT fixed-base pow (window {GT_WINDOW})", lambda name: windows[name].pow(exponent)),
        ("generic G1 mul", lambda name: _raw(points[0] * exponent)),
        ("generic G2 mul", lambda name: _raw(twist * exponent)),
        ("generate_keypair(s=10)", lambda name: canonical_state_digest(
            keys.generate_keypair(10, rng=random.Random(0x5EED))
        )),
    ]
    lines = []
    for label, run in cases:
        timings, outputs = {}, {}
        for name, backend in backends.items():
            with mock.patch.object(kernel, "_backend", backend):
                # The e(g1, g2) window table is per process: built on the
                # backend in use, by the first (untimed-best) repeat.
                keys.pairing_generator_table.cache_clear()
                timings[name], outputs[name] = _best_of(lambda: run(name))
                keys.pairing_generator_table.cache_clear()
        for name, out in outputs.items():
            assert out == outputs["python"], f"{name} != python ({label})"
        line = f"  {label + ':':<32}" + "".join(
            f" {name} {seconds * 1e3:8.3f} ms" for name, seconds in timings.items()
        )
        if "native" in timings:
            line += f" -> {timings['python'] / timings['native']:.1f}x"
        lines.append(line)
    return lines


def _raw(point):
    return point.x, point.y, point.z


def _gf_line(label, matrix, shards, columns):
    """Time both backends on the same shards and require equal outputs;
    the per-element reference checks (and is timed on) the first
    ``columns`` columns, each column being an independent product."""
    backends = {"numpy": gf256.Backend("numpy", gf256._matmul_numpy)}
    if gf256.backend().name != "numpy":
        backends["native"] = gf256.backend()
    timings, outputs = {}, {}
    for name, backend in backends.items():
        with mock.patch.object(gf256, "_backend", backend):
            timings[name], outputs[name] = _best_of(lambda: gf_matmul(matrix, shards))
    ref_s, reference = _best_of(
        lambda: gf_matmul_ref(matrix, shards[:, :columns]), repeats=1
    )
    for name, out in outputs.items():
        assert np.array_equal(out, outputs["numpy"]), f"{name} != numpy ({label})"
        assert np.array_equal(out[:, :columns], reference), f"{name} != ref ({label})"
    line = f"  {label} block={shards.shape[1]:>9,d} B:" + "".join(
        f" {name} {seconds * 1e3:8.2f} ms ({shards.size / seconds / 1e6:7.1f} MB/s in)"
        for name, seconds in timings.items()
    )
    if "native" in timings:
        line += f" -> {timings['numpy'] / timings['native']:.1f}x"
    return line + f"; ref {ref_s * 1e3:.1f} ms on {columns} columns"
