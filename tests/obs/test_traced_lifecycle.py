"""Tracing the deterministic lifecycle: identical results, decomposed time.

The acceptance contract for the observability layer: switching the epoch
tracer on must not move a single byte of the determinism domain (trail
digest, fabric state hash), deterministic span export must itself be
byte-identical across identical-seed runs, and the span tree must account
for ≥95% of each epoch's wall clock in named phases.
"""

from __future__ import annotations

import pytest

from repro.lifecycle import LifecycleConfig, LifecycleEngine
from repro.obs import Tracer, get_registry

CONFIG = dict(
    years=0.25,
    epochs_per_year=8,
    files=1,
    file_bytes=400,
    erasure_n=3,
    erasure_k=2,
    providers=5,
    lanes=2,
    s=3,
    k=2,
    seed=7,
)


def _run(tracer=None):
    engine = LifecycleEngine(LifecycleConfig(**CONFIG), tracer=tracer)
    try:
        outcome = engine.run()
    finally:
        engine.close()
    return outcome


@pytest.fixture(scope="module")
def untraced():
    return _run()


@pytest.fixture(scope="module")
def traced():
    tracer = Tracer(deterministic=True)
    return _run(tracer), tracer


class TestDeterminismPreserved:
    def test_trail_digest_identical(self, untraced, traced):
        outcome, _ = traced
        assert outcome.trail_digest == untraced.trail_digest

    def test_state_hash_identical(self, untraced, traced):
        outcome, _ = traced
        assert outcome.state_hash == untraced.state_hash

    def test_deterministic_export_byte_identical_across_runs(self, traced):
        _, tracer = traced
        repeat = Tracer(deterministic=True)
        _run(repeat)
        assert repeat.export_jsonl() == tracer.export_jsonl()
        assert repeat.digest() == tracer.digest()


class TestSpanTree:
    def test_one_root_per_epoch(self, traced):
        _, tracer = traced
        assert [root.name for root in tracer.roots] == ["epoch", "epoch"]
        assert [root.attrs["epoch"] for root in tracer.roots] == [1, 2]

    def test_pipeline_phases_present(self, traced):
        _, tracer = traced
        root = tracer.roots[0]
        phases = [child.name for child in root.children]
        for phase in ("churn", "settle", "mine"):
            assert phase in phases, f"missing epoch phase {phase!r}"
        settle = next(c for c in root.children if c.name == "settle")
        nested = [c.name for c in settle.children]
        for phase in ("challenge", "prove", "verify", "checkpoint_build", "post"):
            assert phase in nested, f"missing settle sub-phase {phase!r}"

    def test_at_least_95_percent_of_epoch_decomposed(self, traced):
        _, tracer = traced
        for root in tracer.roots:
            coverage = root.child_wall_seconds() / root.wall_seconds
            assert coverage >= 0.95, (
                f"epoch {root.attrs['epoch']}: only {coverage:.1%} of wall "
                f"clock attributed to named phases"
            )


class TestLifecycleMetrics:
    def test_epoch_counters_advance(self):
        registry = get_registry()
        epochs = registry.counter("lifecycle_epochs_total", "lifecycle epochs")
        events = registry.counter(
            "lifecycle_events_total", "trail events by kind", ("kind",)
        )
        before = epochs.value
        events_before = sum(
            child.value for _k, child in
            registry.get("lifecycle_events_total").children()
        )
        _run()
        assert epochs.value == before + 2
        events_after = sum(
            child.value for _k, child in
            registry.get("lifecycle_events_total").children()
        )
        assert events_after > events_before
