"""Engine-level durability: checkpoint the lifecycle engine every epoch.

The chain side of a lifecycle run is already durable (each fabric lane
writes a :class:`~repro.chain.state.WalStateStore`); this module makes the
*engine* side — cluster contents, manifests, audit packages, RNG streams,
the event trail — equally durable, and knits the two together so a crash
at **any** point resumes bit-identically:

* After every epoch the engine publishes one atomic snapshot
  (``<dir>/engine.pkl``: one :mod:`repro.durable` published frame,
  numbered by the next epoch) that records, along with its own state,
  each lane's WAL size at that boundary and the fabric's canonical
  ``state_hash``.  What the engine can count (the next epoch, the
  provider sequence, the outcome's totals) is counted, not stored.
* :func:`load_engine` truncates every lane WAL back to the recorded size —
  every commit is one whole frame, so the cut lands on a frame boundary
  and discards exactly the partial epoch a crash may have written — then
  reopens the fabric and refuses to continue unless its ``state_hash``
  matches the snapshot.

Because the engine is deterministic given its restored RNG streams, the
re-run of the interrupted epoch reproduces the same transactions the lost
process would have committed, so the final trail digest and fabric hash
are identical to an uninterrupted run (asserted by
``tests/lifecycle/test_lifecycle_resume.py``).
"""

from __future__ import annotations

import dataclasses
import pickle
import random
from pathlib import Path

from .. import durable

ENGINE_SNAPSHOT = "engine.pkl"
#: 6: ``fabric_state_hash`` is a ``chain-state-v2`` digest.  7: the file is
#: one published frame numbered by the next epoch, and the next epoch, the
#: provider sequence and the outcome's totals are recounted, not stored.
SNAPSHOT_VERSION = 7

#: Engine attributes that are plain picklable values, saved and restored
#: as-is.  One pickle holds them all, so the restored storage clients share
#: the restored cluster.
_PLAIN_FIELDS = (
    "summaries", "providers", "payloads", "registry_address", "oracle", "lane_settlement",
    "cluster", "clients", "manifests", "_shards",
)


def save_engine(engine) -> Path:
    """Atomically persist the engine at the current epoch boundary."""
    config = engine.config
    assert config.persist_dir, "save_engine requires a persist_dir"
    directory = Path(config.persist_dir)
    directory.mkdir(parents=True, exist_ok=True)
    state = {
        "version": SNAPSHOT_VERSION,
        "config": config,
        "plain": {name: getattr(engine, name) for name in _PLAIN_FIELDS},
        "trail_lines": engine.trail.to_lines(),
        "churn_rng": engine._churn.rng.getstate(),
        "owner_rng": engine._owner_rng.getstate(),
        "wal_sizes": [lane.store.wal_size() for lane in engine.fabric.lanes],
        "fabric_state_hash": engine.fabric.state_hash(),
    }
    final_path = directory / ENGINE_SNAPSHOT
    durable.publish_log(
        final_path, engine.next_epoch, pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    )
    return final_path


class LifecycleResumeError(RuntimeError):
    """The persisted run is missing its engine snapshot, is damaged, or its
    chain state does not match the engine snapshot."""


def load_engine(persist_dir: str, **overrides):
    """Reopen a persisted lifecycle run at its last epoch boundary.

    ``overrides`` may adjust pure *execution* knobs (currently only
    ``workers``); anything that feeds the determinism domain is refused.
    """
    from ..chain.state import WalStateStore
    from ..core import ProtocolParams
    from ..randomness import HashChainBeacon
    from .engine import LifecycleEngine
    from .events import EventTrail
    from .hazard import ChurnModel

    allowed = {"workers"}
    refused = set(overrides) - allowed
    if refused:
        raise ValueError(
            f"cannot override determinism-relevant fields on resume: {refused}"
        )
    directory = Path(persist_dir)
    try:
        boundary, payload = durable.read_published(directory / ENGINE_SNAPSHOT)
        state = pickle.loads(payload)
    except FileNotFoundError as exc:
        raise LifecycleResumeError(
            f"no {ENGINE_SNAPSHOT} to resume from: {type(exc).__name__}: {exc}"
        ) from exc
    except durable.WalCorruption as exc:
        raise LifecycleResumeError(f"{ENGINE_SNAPSHOT}: {exc}") from exc
    if state["version"] != SNAPSHOT_VERSION:
        raise LifecycleResumeError(
            f"unsupported engine snapshot version {state['version']}"
        )
    epochs = len(state["plain"]["summaries"])
    if boundary != epochs + 1:
        raise LifecycleResumeError(
            f"{ENGINE_SNAPSHOT}: frame {boundary} holds {epochs} epoch "
            f"summaries; it must be frame {epochs + 1}"
        )
    config = dataclasses.replace(
        state["config"], persist_dir=str(directory), **overrides
    )

    engine = LifecycleEngine.__new__(LifecycleEngine)
    engine.config = config
    # The tracer and registry handles are never pickled (spans are run
    # artifacts, not state); a reopened engine starts untraced.
    engine._init_observability(None)
    engine.params = ProtocolParams(s=config.s, k=config.k)
    engine.beacon = HashChainBeacon(f"lifecycle-{config.seed}".encode())
    engine.trail = EventTrail.from_lines(state["trail_lines"])
    vars(engine).update(state["plain"])

    engine._churn = ChurnModel(config.hazard_config(), rng=random.Random())
    engine._churn.rng.setstate(state["churn_rng"])
    engine._owner_rng = random.Random()
    engine._owner_rng.setstate(state["owner_rng"])

    # Rewind each lane's WAL to the recorded boundary, then reopen.
    for index, size in enumerate(state["wal_sizes"]):
        WalStateStore.truncate_wal(directory / "lanes" / f"lane-{index:03d}", size)
    try:
        engine._open_world()
    except durable.WalCorruption as exc:
        raise LifecycleResumeError(f"lane state: {exc}") from exc
    if engine.fabric.state_hash() != state["fabric_state_hash"]:
        engine.fabric.close()
        raise LifecycleResumeError(
            "reopened fabric state does not match the engine snapshot"
        )
    try:
        engine._build_aggregator()
    except BaseException:
        engine.fabric.close()
        raise
    return engine
