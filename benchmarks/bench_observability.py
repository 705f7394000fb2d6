"""Observability layer — instrumentation overhead and span throughput.

Three sections, one committed result file:

1. **Hot-path gate, disabled** — the production default.  Times the gated
   public crypto entry points (``multi_scalar_mul``) against the ungated
   implementations they wrap; the delta is the cost of the
   ``if HOTPATH.enabled`` check.  Budget: <= 3%.
2. **Fully instrumented epoch pipeline** — registry instruments live,
   deterministic tracer attached, hot-path profiler on — against the same
   pipeline bare (NULL tracer, profiler off).  Budget: <= 3% throughput
   delta, plus the fig8-style leg breakdown the profiler collected from
   the live run.
3. **Raw registry/tracer throughput** — counter incs, histogram observes
   and spans per second, report-only context for the budgets above.

Timings take the minimum over alternating repeats (noise-robust, drift
shared between both sides).  BENCH_QUICK=1 shrinks the repeat counts for
the CI smoke job.
"""

from __future__ import annotations

import gc
import os
import random
import time

from repro.core import ProtocolParams
from repro.crypto.bn254 import G1Point
from repro.crypto.bn254.msm import _multi_scalar_mul, multi_scalar_mul
from repro.engine import AuditExecutor
from repro.engine.scheduler import EpochScheduler
from repro.obs import MetricsRegistry, Tracer
from repro.obs.hotpath import HOTPATH
from repro.randomness import HashChainBeacon
from repro.scenarios import build_fleet

QUICK = os.environ.get("BENCH_QUICK", "") == "1"

REPEATS = 3 if QUICK else 5
MSM_CALLS = 10 if QUICK else 40
FLEET = 2 if QUICK else 4
EPOCHS = 2 if QUICK else 4
SPIN = 20_000 if QUICK else 200_000


def _paired_min(fn_a, fn_b, calls=1, repeats=REPEATS):
    """Best-of-N totals with a/b interleaved per *call* and the GC parked,
    so scheduler/frequency drift hits both sides equally."""
    best_a = best_b = float("inf")
    gc.disable()
    try:
        for _ in range(repeats):
            total_a = total_b = 0.0
            for _ in range(calls):
                t0 = time.perf_counter()
                fn_a()
                total_a += time.perf_counter() - t0
                t0 = time.perf_counter()
                fn_b()
                total_b += time.perf_counter() - t0
            best_a, best_b = min(best_a, total_a), min(best_b, total_b)
    finally:
        gc.enable()
    return best_a, best_b


def test_observability_overhead(report):
    lines = []

    # -- 1. disabled hot-path gate ---------------------------------------
    HOTPATH.disable()
    rng = random.Random(23)
    points = [G1Point.generator() * rng.randrange(1, 2**64) for _ in range(8)]
    scalars = [rng.randrange(1, 2**128) for _ in range(8)]

    gated_s, bare_s = _paired_min(
        lambda: multi_scalar_mul(points, scalars),
        lambda: _multi_scalar_mul(points, scalars),
        calls=MSM_CALLS,
    )
    gate_overhead = gated_s / bare_s - 1.0
    lines.append("hot-path gate, disabled (production default)")
    lines.append(
        f"  {MSM_CALLS} x 8-term G1 MSM: gated {gated_s * 1e3:8.2f} ms, "
        f"bare {bare_s * 1e3:8.2f} ms -> overhead {gate_overhead:+.2%} "
        f"(budget 3.00%)"
    )

    # -- 2. instrumented epoch pipeline ----------------------------------
    params = ProtocolParams(s=3, k=2)
    instances = build_fleet(
        params, random.Random(9), size=400, files=FLEET,
        tag="obs-bench-{file}", owner_id="obs-bench",
    )
    breakdown = {}
    with AuditExecutor(instances, workers=1) as executor:
        beacon = HashChainBeacon(b"obs-bench")

        def run_pipeline(tracer, profiled):
            if profiled:
                HOTPATH.enable()
            try:
                scheduler = EpochScheduler(
                    executor,
                    params,
                    beacon,
                    deterministic=True,
                    tracer=tracer,
                )
                scheduler.run(EPOCHS)
            finally:
                HOTPATH.disable()

        HOTPATH.reset()
        bare_pipeline_s, instrumented_s = _paired_min(
            lambda: run_pipeline(None, profiled=False),
            lambda: run_pipeline(Tracer(deterministic=True), profiled=True),
        )
        breakdown = HOTPATH.breakdown()
    pipeline_overhead = instrumented_s / bare_pipeline_s - 1.0
    audits = FLEET * EPOCHS
    lines.append("")
    lines.append(
        f"epoch pipeline, {FLEET} audits x {EPOCHS} epochs "
        "(registry + tracer + profiler vs bare)"
    )
    lines.append(
        f"  bare         {bare_pipeline_s:8.3f} s  "
        f"({audits / bare_pipeline_s:6.1f} audits/s)"
    )
    lines.append(
        f"  instrumented {instrumented_s:8.3f} s  "
        f"({audits / instrumented_s:6.1f} audits/s)"
    )
    lines.append(
        f"  overhead {pipeline_overhead:+.2%} (budget 3.00%)"
    )
    lines.append("  fig8-style leg breakdown from the profiled run:")
    for leg, fraction in sorted(
        breakdown.items(), key=lambda kv: -kv[1]
    ):
        lines.append(f"    {leg:<18} {fraction:7.1%}")

    # -- 3. raw instrument throughput (report-only) ----------------------
    registry = MetricsRegistry()
    counter = registry.counter("bench_total", "spin")
    histogram = registry.histogram("bench_seconds", "spin")
    tracer = Tracer(deterministic=True, max_roots=16)

    t0 = time.perf_counter()
    for _ in range(SPIN):
        counter.inc()
    counter_rate = SPIN / (time.perf_counter() - t0)
    t0 = time.perf_counter()
    for _ in range(SPIN):
        histogram.observe(0.01)
    observe_rate = SPIN / (time.perf_counter() - t0)
    t0 = time.perf_counter()
    for _ in range(SPIN):
        with tracer.span("spin"):
            pass
    span_rate = SPIN / (time.perf_counter() - t0)
    lines.append("")
    lines.append("raw instrument throughput (single thread, report-only)")
    lines.append(f"  counter.inc        {counter_rate:12,.0f} /s")
    lines.append(f"  histogram.observe  {observe_rate:12,.0f} /s")
    lines.append(f"  tracer span        {span_rate:12,.0f} /s")

    report("observability", "\n".join(lines))

    assert gate_overhead <= 0.03, (
        f"disabled hot-path gate overhead {gate_overhead:.2%} > 3%"
    )
    assert pipeline_overhead <= 0.03, (
        f"instrumented pipeline overhead {pipeline_overhead:.2%} > 3%"
    )
    assert sum(breakdown.values()) > 0.0, "profiler saw no hot-path work"
