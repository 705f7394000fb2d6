"""Fig. 7 — data-owner preprocessing time for 1 GB vs the s parameter.

Three series, per the paper:

* **w/ s param, evaluation-form blocks** — reproduces the paper's U-shaped
  curve: per-chunk EC work falls as 1/s while the O(s^2)-per-chunk
  "polynomial coefficient transformation" (Lagrange interpolation of
  evaluation-form chunks) grows, giving an optimum in the tens of s (the
  paper lands on 50; docs/BENCHMARKS.md has the analysis and where this
  sweep's optimum sits),
* **w/ s param, Horner evaluation** — our ablation: with an O(s) transform
  the curve monotonically improves and plateaus,
* **w/o s param (s=1)** — the paper's right-axis baseline, ~10x worse.

Measured on a fixed 25 KB input and extrapolated linearly to 1 GB
(preprocessing is embarrassingly linear in file size; asserted by test).
"""

from __future__ import annotations

import time

from repro.core.authenticator import generate_authenticators
from repro.core.chunking import chunk_file
from repro.core.keys import generate_keypair
from repro.core.params import ProtocolParams
from repro.crypto.bn254.msm import generator_table

FILE_BYTES = 25_000
S_SWEEP = (5, 10, 20, 50, 100, 200)
GB = 1024**3

generator_table()  # built here, outside every timed region


def _preprocess_seconds(s: int, mode: str, rng) -> float:
    """Best of 3 (robust to scheduler noise), as the linearity test."""
    params = ProtocolParams(s=s, k=1)
    keypair = generate_keypair(s, rng=rng)
    chunked = chunk_file(b"\x5c" * FILE_BYTES, params, name=7)
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        generate_authenticators(chunked, keypair, mode=mode)
        samples.append(time.perf_counter() - start)
    return min(samples)


def test_fig7_preprocess_kernel(benchmark, rng):
    """Timing kernel at the paper's preferred s=50 (Horner mode)."""
    keypair = generate_keypair(50, rng=rng)
    params = ProtocolParams(s=50, k=1)
    chunked = chunk_file(b"\x5c" * FILE_BYTES, params, name=7)
    result = benchmark.pedantic(
        generate_authenticators,
        args=(chunked, keypair),
        rounds=2,
        iterations=1,
    )
    assert len(result) == chunked.num_chunks


def test_fig7_linearity_in_file_size(benchmark, rng):
    """The extrapolation's premise: time scales linearly with bytes.

    Uses best-of-3 minima (robust to scheduler noise) after a warm-up.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # report-only entry
    keypair = generate_keypair(20, rng=rng)
    params = ProtocolParams(s=20, k=1)

    def best_time(size: int) -> float:
        chunked = chunk_file(b"\x11" * size, params, name=3)
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            generate_authenticators(chunked, keypair)
            samples.append(time.perf_counter() - start)
        return min(samples)

    best_time(4_000)  # warm-up (hash caches, allocator)
    small = best_time(10_000)
    large = best_time(30_000)
    ratio = large / small
    assert 2.0 < ratio < 4.5  # ~3x work for 3x bytes


def test_fig7_report(benchmark, report, rng):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # report-only entry
    scale = GB / FILE_BYTES
    lines = [
        f"Fig. 7 reproduction: owner preprocessing time, measured on "
        f"{FILE_BYTES/1000:.0f} KB and extrapolated to 1 GB (x{scale:,.0f}).",
        "transform = evaluation-form blocks with the O(s^2) coefficient",
        "transformation (reproduces the U-shape); horner = O(s) ablation.",
        "",
        f"{'s':>5} {'transform (s)':>14} {'transf 1GB (s)':>15} {'horner (s)':>12} "
        f"{'horner 1GB (s)':>15} {'MB/s horner':>12}",
    ]
    transform_series = {}
    horner_series = {}
    for s in S_SWEEP:
        transform = _preprocess_seconds(s, "interpolate", rng)
        horner = _preprocess_seconds(s, "horner", rng)
        transform_series[s] = transform * scale
        horner_series[s] = horner * scale
        mb_per_s = (FILE_BYTES / 2**20) / horner
        lines.append(
            f"{s:>5} {transform:>14.3f} {transform*scale:>15.0f} {horner:>12.3f} "
            f"{horner*scale:>15.0f} {mb_per_s:>12.3f}"
        )
    baseline = _preprocess_seconds(1, "horner", rng)
    best_ratio = baseline * scale / min(horner_series.values())
    lines += [
        "",
        f"w/o s param (s=1) baseline: {baseline:.2f} s measured, "
        f"{baseline*scale:,.0f} s per GB "
        f"({best_ratio:.1f}x the best w/-s configuration).",
        "",
        "Paper anchors: optimum near s=50, w/o-s baseline ~10x slower,",
        "1 GB in ~120 s on quad-core Go (ours is pure Python; compare shapes",
        "and ratios, not absolute seconds - see docs/BENCHMARKS.md).",
    ]
    report("fig7_preprocessing", "\n".join(lines))

    # Shape assertions: the w/o-s baseline must lose badly, and the
    # transform series must be U-shaped (falls from s=5, rises by s=200).
    assert baseline > 3 * min(_t / scale for _t in horner_series.values())
    best_s = min(transform_series, key=transform_series.get)
    assert best_s not in (S_SWEEP[0], S_SWEEP[-1]), transform_series
    assert transform_series[200] > transform_series[best_s]
