"""Crash/reopen durability: a persisted lifecycle run continues bit-identically.

The engine checkpoints itself at every epoch boundary and records each
lane's WAL size; reopening truncates the logs back to that boundary and
replays.  These tests kill the run at three different points — between
epochs, mid-epoch after chain writes, and immediately after setup — and
require the continuation to reach the exact trail digest and fabric
``state_hash`` of an uninterrupted run.
"""

from __future__ import annotations

import pickle

import pytest

from repro import durable
from repro.lifecycle import LifecycleConfig, LifecycleEngine
from repro.lifecycle.persist import (
    ENGINE_SNAPSHOT,
    SNAPSHOT_VERSION,
    LifecycleResumeError,
    load_engine,
)

BASE = dict(
    years=0.75,
    epochs_per_year=4,
    files=1,
    file_bytes=400,
    erasure_n=3,
    erasure_k=2,
    providers=6,
    lanes=2,
    seed=11,
    s=3,
    k=2,
    churn=0.5,
    flake_rate=0.4,
)


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted run every resumed run must reproduce."""
    engine = LifecycleEngine(LifecycleConfig(**BASE))
    outcome = engine.run()
    engine.close()
    return outcome


def _persisted_config(tmp_path) -> LifecycleConfig:
    return LifecycleConfig(persist_dir=str(tmp_path / "state"), **BASE)


def test_kill_between_epochs_continues_to_same_hashes(tmp_path, reference):
    config = _persisted_config(tmp_path)
    engine = LifecycleEngine(config)
    engine.run_epoch()
    engine.fabric.close()  # the process dies; no orderly shutdown

    reopened = LifecycleEngine.open(config.persist_dir)
    assert reopened.next_epoch == 2
    outcome = reopened.run()
    reopened.close()
    assert outcome.trail_digest == reference.trail_digest
    assert outcome.state_hash == reference.state_hash
    assert outcome.files_intact


def test_kill_mid_epoch_discards_the_torn_tail(tmp_path, reference):
    """Chain writes landed for a half-finished epoch; resume must rewind."""
    config = _persisted_config(tmp_path)
    engine = LifecycleEngine(config)
    engine.run_epoch()
    # Start epoch 2 by hand and die after settlement hit the WAL.
    epoch = engine.next_epoch
    engine._churn_step(epoch)
    engine._settle_step(epoch)
    engine.fabric.close()

    reopened = LifecycleEngine.open(config.persist_dir)
    assert reopened.next_epoch == 2  # rewound to the boundary
    outcome = reopened.run()
    reopened.close()
    assert outcome.trail_digest == reference.trail_digest
    assert outcome.state_hash == reference.state_hash


def test_reopen_builds_the_aggregator_without_moving_state(tmp_path):
    """The reopened engine's aggregator settles on the lane contracts the
    run deployed: building it sends no transaction."""
    config = _persisted_config(tmp_path)
    engine = LifecycleEngine(config)
    engine.run_epoch()
    boundary = engine.fabric.state_hash()
    engine.fabric.close()

    reopened = LifecycleEngine.open(config.persist_dir)
    assert reopened.fabric.state_hash() == boundary
    assert {
        lane_id: (pipeline.aggregator, pipeline.contract_address)
        for lane_id, pipeline in reopened.aggregator.pipelines.items()
    } == reopened.lane_settlement
    reopened.close()


def test_resume_on_lane_threads_after_a_mid_epoch_kill(tmp_path, reference):
    """A ``workers=2`` resume settles its lanes on threads and still lands
    on the uninterrupted ``workers=1`` run's trail and state."""
    config = _persisted_config(tmp_path)
    engine = LifecycleEngine(config)
    engine.run_epoch()
    epoch = engine.next_epoch
    engine._churn_step(epoch)
    engine._settle_step(epoch)
    engine.fabric.close()

    reopened = LifecycleEngine.open(config.persist_dir, workers=2)
    assert reopened.aggregator.concurrent
    outcome = reopened.run()
    reopened.close()
    assert outcome.trail_digest == reference.trail_digest
    assert outcome.state_hash == reference.state_hash


def test_kill_right_after_setup(tmp_path, reference):
    config = _persisted_config(tmp_path)
    engine = LifecycleEngine(config)
    engine.fabric.close()  # died before the first epoch

    reopened = LifecycleEngine.open(config.persist_dir)
    assert reopened.next_epoch == 1
    outcome = reopened.run()
    reopened.close()
    assert outcome.trail_digest == reference.trail_digest
    assert outcome.state_hash == reference.state_hash


def test_resume_after_completion_is_a_noop_run(tmp_path, reference):
    config = _persisted_config(tmp_path)
    engine = LifecycleEngine(config)
    outcome = engine.run()
    engine.close()

    reopened = LifecycleEngine.open(config.persist_dir)
    assert reopened.next_epoch == reopened.config.total_epochs + 1
    resumed = reopened.run()
    reopened.close()
    assert resumed.trail_digest == outcome.trail_digest == reference.trail_digest
    assert resumed.state_hash == outcome.state_hash == reference.state_hash


def test_resume_restores_engine_bookkeeping(tmp_path):
    config = _persisted_config(tmp_path)
    engine = LifecycleEngine(config)
    engine.run_epoch()
    live_shards = sorted(engine._shards)
    live_providers = {
        name: (s.alive, s.flaky, s.dead) for name, s in engine.providers.items()
    }
    trail_len = len(engine.trail)
    engine.fabric.close()

    reopened = LifecycleEngine.open(config.persist_dir)
    assert reopened.aggregator.executor is reopened.executor  # before any epoch
    assert sorted(reopened._shards) == live_shards
    assert {
        name: (s.alive, s.flaky, s.dead)
        for name, s in reopened.providers.items()
    } == live_providers
    assert len(reopened.trail) == trail_len
    assert sorted(reopened.executor.instances) == live_shards
    reopened.close()


def test_fresh_run_refuses_a_dirty_persist_dir(tmp_path):
    """Building a new run on old WALs would silently break determinism."""
    config = _persisted_config(tmp_path)
    engine = LifecycleEngine(config)
    engine.run_epoch()
    engine.close()
    with pytest.raises(ValueError, match="already holds"):
        LifecycleEngine(config)
    # A bad worker count is refused before anything is written ...
    fresh = tmp_path / "fresh"
    with pytest.raises(ValueError, match="workers"):
        LifecycleConfig(persist_dir=str(fresh), workers=-1, **BASE)
    assert not fresh.exists()
    # ... and lane state with no engine snapshot (a first build that
    # failed before its first boundary) is refused like a finished run.
    (tmp_path / "state" / ENGINE_SNAPSHOT).unlink()
    with pytest.raises(ValueError, match="already holds"):
        LifecycleEngine(config)


def test_lane_state_without_an_engine_snapshot_names_what_is_missing(tmp_path):
    """A first build that failed before its first boundary leaves lane logs
    and no engine snapshot: a resume names the missing file, and a fresh
    run refuses the directory without advising a resume that cannot work."""
    config = _persisted_config(tmp_path)
    LifecycleEngine(config).close()
    (tmp_path / "state" / ENGINE_SNAPSHOT).unlink()
    with pytest.raises(LifecycleResumeError, match=f"no {ENGINE_SNAPSHOT} to resume from"):
        LifecycleEngine.open(config.persist_dir)
    with pytest.raises(ValueError, match="already holds") as refused:
        LifecycleEngine(config)
    assert "--resume" not in str(refused.value)


def test_determinism_override_refused_on_resume(tmp_path):
    config = _persisted_config(tmp_path)
    engine = LifecycleEngine(config)
    engine.run_epoch()
    engine.fabric.close()
    with pytest.raises(ValueError, match="determinism"):
        load_engine(config.persist_dir, seed=99)


def test_corrupted_chain_state_is_refused(tmp_path):
    config = _persisted_config(tmp_path)
    engine = LifecycleEngine(config)
    engine.run_epoch()
    engine.fabric.close()
    # Vandalize one lane's WAL *behind* the recorded boundary.
    lane_dir = tmp_path / "state" / "lanes" / "lane-000"
    wal = lane_dir / "wal.log"
    data = bytearray(wal.read_bytes())
    assert data, "fixture needs a non-empty WAL"
    data[len(data) // 2] ^= 0xFF
    wal.write_bytes(bytes(data))
    with pytest.raises(LifecycleResumeError, match="lane state: corrupt at byte"):
        LifecycleEngine.open(config.persist_dir)


def test_snapshot_of_an_older_version_is_refused_not_half_loaded(tmp_path):
    """The pickled ``LifecycleConfig`` changes shape between versions."""
    config = _persisted_config(tmp_path)
    LifecycleEngine(config).close()      # setup publishes the first snapshot
    path = tmp_path / "state" / ENGINE_SNAPSHOT
    boundary, payload = durable.read_published(path)
    state = pickle.loads(payload)
    state["version"] = SNAPSHOT_VERSION - 1
    durable.publish_log(path, boundary, pickle.dumps(state))
    with pytest.raises(
        LifecycleResumeError, match=f"snapshot version {SNAPSHOT_VERSION - 1}"
    ):
        LifecycleEngine.open(config.persist_dir)


def _recounted(outcome) -> tuple:
    """What ``outcome()`` counts over the summaries instead of storing."""
    return (
        outcome.epochs_run,
        outcome.total_commitment_gas,
        outcome.total_repairs,
        outcome.total_evictions,
    )


def _settled(bundle) -> tuple:
    return bundle.checkpoint, [
        (lane_id, lane.checkpoint, [record.to_bytes() for record in lane.records])
        for lane_id, lane in bundle.lanes
    ]


def _reopen_recounts_like_the_uninterrupted_run(tmp_path, mid_epoch: bool) -> None:
    config = _persisted_config(tmp_path)
    live = LifecycleEngine(LifecycleConfig(**BASE))
    engine = LifecycleEngine(config)
    for _ in range(2):
        live.run_epoch()
        engine.run_epoch()
    measured = engine.outcome().wall_seconds
    if mid_epoch:
        engine._churn_step(engine.next_epoch)
        engine._settle_step(engine.next_epoch)
    engine.fabric.close()

    reopened = LifecycleEngine.open(config.persist_dir)
    try:
        assert reopened.next_epoch == live.next_epoch == 3
        assert _recounted(reopened.outcome()) == _recounted(live.outcome())
        # Measured, not simulated: the reopened run reports the seconds the
        # killed process measured, epoch by epoch.
        assert reopened.outcome().wall_seconds == measured
        assert reopened.last_fabric_bundle is None  # nothing settled since the reopen
        live.run_epoch()
        reopened.run_epoch()
        assert reopened.next_epoch == live.next_epoch == 4
        assert _recounted(reopened.outcome()) == _recounted(live.outcome())
        assert _settled(reopened.last_fabric_bundle) == _settled(live.last_fabric_bundle)
    finally:
        reopened.close()
        live.close()


def test_reopen_at_a_boundary_recounts_the_uninterrupted_totals(tmp_path):
    _reopen_recounts_like_the_uninterrupted_run(tmp_path, mid_epoch=False)


def test_reopen_after_a_mid_epoch_kill_recounts_the_uninterrupted_totals(tmp_path):
    _reopen_recounts_like_the_uninterrupted_run(tmp_path, mid_epoch=True)
