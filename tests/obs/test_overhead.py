"""The observability layer must be (nearly) free when idle.

Two guards, both against a 3% budget:

* the crypto hot-path gate, disabled (the production default), must cost
  no more than one attribute check per call — measured by timing each
  decorated entry point ``f`` against the body it wraps, ``f.__wrapped__``;
* a fully instrumented epoch pipeline (registry instruments live, tracer
  attached, hot-path profiling on) must stay within budget of the same
  pipeline run bare (NULL tracer, profiler off).

The gate timings interleave the two sides per call, park the GC, and
compare the minimum total over repeats: the minimum is the noise-robust
estimator for "how fast can this go", and per-call interleaving makes
frequency and scheduler drift hit both sides equally.  A miss is measured
again, up to three times in all: noise passes one of them, a real
regression fails every one.

The pipeline is too short for that: one run is ~20 ms of thread CPU time
that swings by half from run to run on a shared VM, so a paired reading
of a 6% regression still lands under 3% in some attempts.  Its guard
instead counts what the instrumentation adds to one run (spans opened,
profiled calls timed), times each of those operations over many
iterations, and charges their exact counts against the bare run.  The
registry instruments are live on both sides and so not charged.  All
times are CPU time of the calling thread (``time.thread_time``):
everything timed runs on it (the pipeline proves inline, ``workers=1``),
so time the thread waits while other processes hold the host's cores
counts against nothing.
"""

from __future__ import annotations

import gc
import random
import time

import pytest

from repro.core import DataOwner, ProtocolParams
from repro.crypto.bn254 import G1Point, G2Point
from repro.crypto.bn254.msm import multi_scalar_mul, wnaf_table_g1
from repro.crypto.bn254.pairing import miller_loop, miller_loop_product, prepare_g2
from repro.engine import AuditExecutor, AuditInstance
from repro.engine.scheduler import EpochScheduler
from repro.obs import Tracer
from repro.obs.hotpath import HOTPATH, profiled
from repro.randomness import HashChainBeacon
from repro.sim.workloads import archive_file

OVERHEAD_BUDGET = 0.03
REPEATS = 15
ATTEMPTS = 3


def _paired_min(fn_a, fn_b, calls=1, repeats=REPEATS):
    """Best-of-N totals, a/b interleaved per call with the GC parked."""
    best_a = best_b = float("inf")
    gc.disable()
    try:
        for _ in range(repeats):
            total_a = total_b = 0.0
            for _ in range(calls):
                t0 = time.thread_time()
                fn_a()
                total_a += time.thread_time() - t0
                t0 = time.thread_time()
                fn_b()
                total_b += time.thread_time() - t0
            best_a, best_b = min(best_a, total_a), min(best_b, total_b)
    finally:
        gc.enable()
    return best_a, best_b


def _overhead(fn_bare, fn_gated, calls=1, repeats=REPEATS):
    """``gated / bare - 1``: the first measurement inside the budget, else
    the last of :data:`ATTEMPTS`."""
    for _ in range(ATTEMPTS):
        bare_s, gated_s = _paired_min(fn_bare, fn_gated, calls, repeats)
        overhead = gated_s / bare_s - 1.0
        if overhead <= OVERHEAD_BUDGET:
            break
    return overhead


def test_disabled_hotpath_gate_is_within_budget():
    """The one MSM dispatcher, without and with cached wNAF tables."""
    HOTPATH.disable()
    rng = random.Random(11)
    points = [G1Point.generator() * rng.randrange(1, 2**64) for _ in range(8)]
    scalars = [rng.randrange(1, 2**128) for _ in range(8)]
    mixed = [wnaf_table_g1(p, 6) if i % 2 else None for i, p in enumerate(points)]

    for tables in (None, mixed):
        overhead = _overhead(
            lambda: multi_scalar_mul.__wrapped__(points, scalars, tables=tables),
            lambda: multi_scalar_mul(points, scalars, tables=tables),
            calls=10,
        )
        assert overhead <= OVERHEAD_BUDGET, (
            f"disabled hot-path gate costs {overhead:.1%} "
            f"with tables={'mixed' if tables else None} "
            f"(budget {OVERHEAD_BUDGET:.0%})"
        )


def test_disabled_gate_on_prepared_pairing_is_within_budget():
    """The prepared-line Miller loop is the new warm verify path; its
    HOTPATH gate must stay one attribute check when profiling is off."""
    HOTPATH.disable()
    p = G1Point.generator() * 123456789
    pairs = [(p, prepare_g2(G2Point.generator() * 987654321))]

    overhead = _overhead(
        lambda: miller_loop_product.__wrapped__(pairs),
        lambda: miller_loop_product(pairs),
        calls=3,
    )
    assert overhead <= OVERHEAD_BUDGET, (
        f"disabled prepared-pairing gate costs {overhead:.1%} "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )


def test_hotpath_reports_prepared_miller_loop_leg():
    """Profiling on: the prepared path must attribute time to the
    bn254.miller_loop leg so `repro top` / fig8 stay truthful."""
    HOTPATH.enable()
    try:
        HOTPATH.reset()
        p = G1Point.generator() * 31337
        prepared = prepare_g2(G2Point.generator() * 271828)
        miller_loop(p, prepared)
        snapshot = HOTPATH.snapshot()
    finally:
        HOTPATH.disable()
    leg = snapshot["bn254.miller_loop"]
    assert leg["calls"] == 1 and leg["seconds"] > 0.0


def _best_per_call(fn, calls, repeats=REPEATS):
    """Least thread CPU seconds one ``fn()`` took, over ``calls`` in a row."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.thread_time()
            for _ in range(calls):
                fn()
            best = min(best, time.thread_time() - t0)
    finally:
        gc.enable()
    return best / calls


def test_instrumented_epoch_pipeline_is_within_budget():
    params = ProtocolParams(s=3, k=2)
    owner = DataOwner(params, rng=random.Random(5))
    instances = [
        AuditInstance.from_package(
            owner.prepare(
                archive_file(400, tag=f"ovh-{i}").data, fresh_keypair=i == 0
            ),
            owner_id="ovh",
        )
        for i in range(2)
    ]
    with AuditExecutor(instances, workers=1) as executor:
        beacon = HashChainBeacon(b"overhead")

        def run(tracer=None):
            scheduler = EpochScheduler(
                executor, params, beacon, deterministic=True, tracer=tracer
            )
            for epoch in range(2):
                scheduler.run_epoch(epoch)

        # What the instrumented run adds, counted on one such run.
        tracer = Tracer(deterministic=True)
        HOTPATH.reset()
        HOTPATH.enable()
        try:
            run(tracer)
            timed = sum(leg["calls"] for leg in HOTPATH.snapshot().values())
        finally:
            HOTPATH.disable()
        spans = tracer.span_count
        assert spans and timed, "the pipeline must open spans and time hot-path calls"
        bare_s = _best_per_call(run, calls=1, repeats=9)

    span = Tracer(deterministic=True).span

    def one_span():
        with span("prove", epoch=1):
            pass

    gate = profiled("bn254.msm")(lambda: None)
    span_s = _best_per_call(one_span, calls=1000)
    HOTPATH.enable()
    try:
        gate_s = _best_per_call(gate, calls=1000)
    finally:
        HOTPATH.disable()
        HOTPATH.reset()
    overhead = (spans * span_s + timed * gate_s) / bare_s
    assert overhead <= OVERHEAD_BUDGET, (
        f"instrumented pipeline costs {overhead:.1%} over bare: {spans} spans "
        f"x {span_s * 1e6:.1f} us + {timed} profiled calls x {gate_s * 1e6:.1f} us "
        f"against {bare_s * 1e3:.1f} ms (budget {OVERHEAD_BUDGET:.0%})"
    )


def test_null_tracer_span_is_allocation_free():
    tracer_span = Tracer(enabled=False).span
    contexts = {id(tracer_span("a")), id(tracer_span("b", epoch=1))}
    assert len(contexts) == 1
