"""Crypto hot-path profiling: gated once, per-leg.

The profiler must be invisible when disabled (the production default: one
attribute check per call) and, when enabled, attribute wall time to the
paper's fig. 8 legs — BN254 MSM, Miller loop, final exponentiation, and
GF(256) erasure coding — from live traffic, without perturbing results.
"""

from __future__ import annotations

import random

import pytest

from repro.core import DataOwner, ProtocolParams
from repro.crypto.bn254 import PROCESS_CACHE, G1Point, G2Point
from repro.crypto.bn254.msm import multi_scalar_mul
from repro.crypto.bn254.pairing import final_exponentiation, miller_loop
from repro.engine import AuditExecutor, AuditInstance, EpochScheduler
from repro.obs.hotpath import HOTPATH, LEGS, HotPathProfiler
from repro.randomness import HashChainBeacon
from repro.storage.erasure import ReedSolomonCode


@pytest.fixture(autouse=True)
def clean_profiler():
    HOTPATH.disable()
    HOTPATH.reset()
    yield
    HOTPATH.disable()
    HOTPATH.reset()


def test_disabled_records_nothing():
    multi_scalar_mul([G1Point.generator(), G1Point.generator()], [3, 5])
    assert HOTPATH.snapshot() == {}


def test_msm_leg_recorded():
    HOTPATH.enable()
    multi_scalar_mul([G1Point.generator(), G1Point.generator()], [3, 5])
    snap = HOTPATH.snapshot()
    assert snap["bn254.msm"]["calls"] == 1
    assert snap["bn254.msm"]["seconds"] > 0.0


def test_pairing_legs_recorded():
    HOTPATH.enable()
    f = miller_loop(G1Point.generator(), G2Point.generator())
    final_exponentiation(f)
    snap = HOTPATH.snapshot()
    assert snap["bn254.miller_loop"]["calls"] == 1
    assert snap["bn254.final_exp"]["calls"] == 1


def test_erasure_legs_recorded():
    HOTPATH.enable()
    code = ReedSolomonCode(n=5, k=3)
    payload = b"hot path profiling payload!"
    shards = code.encode(payload)
    code.decode([shards[i] for i in (0, 2, 4)], len(payload))
    snap = HOTPATH.snapshot()
    assert snap["gf256.encode"]["calls"] == 1
    assert snap["gf256.decode"]["calls"] == 1


def test_profiling_does_not_change_results():
    code = ReedSolomonCode(n=5, k=3)
    plain = code.encode(b"same bytes either way")
    HOTPATH.enable()
    profiled = code.encode(b"same bytes either way")
    assert plain == profiled


def test_unknown_leg_refused():
    profiler = HotPathProfiler()
    profiler.enable()
    with pytest.raises(KeyError):
        profiler.add("sha3.absorb", 0.1)


def test_legs_cover_the_fig8_decomposition():
    assert set(LEGS) == {
        "bn254.msm",
        "bn254.miller_loop",
        "bn254.final_exp",
        "gf256.encode",
        "gf256.decode",
    }


def test_prover_threads_report_to_the_one_profiler():
    """The engine's prover threads share the process's profiler, so one
    deterministic epoch records the same legs whatever the worker count."""
    params = ProtocolParams(s=5, k=3)
    rng = random.Random(9)
    fleet = []
    for owner_index in range(2):
        owner = DataOwner(params, rng=rng)
        for file_index in range(2):
            package = owner.prepare(
                bytes([17 + owner_index * 2 + file_index]) * 700,
                fresh_keypair=file_index == 0,
            )
            fleet.append(AuditInstance.from_package(package))
    calls = {}
    for workers in (1, 2):
        PROCESS_CACHE.clear()  # both epochs start cold
        HOTPATH.reset()
        HOTPATH.enable()
        with AuditExecutor(fleet, workers=workers) as executor:
            result = EpochScheduler(
                executor,
                params,
                HashChainBeacon(b"engine-test"),
                deterministic=True,
                rng=random.Random(2),
            ).run_epoch(0)
        HOTPATH.disable()
        assert result.batch_ok
        calls[workers] = {leg: s["calls"] for leg, s in HOTPATH.snapshot().items()}
    assert calls[1] == calls[2]
    assert calls[1]["bn254.msm"] >= 2 * len(fleet)  # sigma and psi per proof
