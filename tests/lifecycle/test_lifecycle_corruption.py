"""A damaged engine snapshot is refused by name, before anything is touched.

``engine.pkl`` is a sealed file (:mod:`repro.durable`): every bit of it is
under the magic, the version or the sha256.  The sweep flips bits across
the whole file — every bit of the header, and a rotating bit of every
seventh payload byte (one sha256 covers them all alike) — and each must
end in :class:`LifecycleResumeError` with the lane logs exactly as they
were (resume truncates them, so a snapshot that cannot be trusted must be
rejected first).
"""

from __future__ import annotations

import pytest

from repro.durable import HEADER_LEN
from repro.lifecycle import LifecycleConfig, LifecycleEngine
from repro.lifecycle.persist import ENGINE_SNAPSHOT, LifecycleResumeError

from test_lifecycle_resume import BASE


def test_every_bit_flip_of_the_engine_snapshot_is_refused(tmp_path):
    config = LifecycleConfig(persist_dir=str(tmp_path / "state"), **BASE)
    engine = LifecycleEngine(config)
    engine.run_epoch()
    # The process dies mid-epoch: the lanes run past the recorded boundary.
    engine._churn_step(engine.next_epoch)
    engine.fabric.close()
    snapshot = tmp_path / "state" / ENGINE_SNAPSHOT
    pristine = snapshot.read_bytes()
    logs = sorted((tmp_path / "state" / "lanes").glob("lane-*/wal.log"))
    sizes = [log.stat().st_size for log in logs]

    flips = [(index, bit) for index in range(HEADER_LEN) for bit in range(8)]
    flips += [(index, index % 8) for index in range(HEADER_LEN, len(pristine), 7)]
    for index, bit in flips:
        damaged = bytearray(pristine)
        damaged[index] ^= 1 << bit
        snapshot.write_bytes(damaged)
        with pytest.raises(LifecycleResumeError, match=ENGINE_SNAPSHOT):
            LifecycleEngine.open(config.persist_dir)
    assert [log.stat().st_size for log in logs] == sizes  # nothing was rewound

    snapshot.write_bytes(pristine)
    reopened = LifecycleEngine.open(config.persist_dir)
    assert reopened.next_epoch == 2
    reopened.close()
