"""A damaged engine snapshot is refused by name, before anything is touched.

``engine.pkl`` is one published frame (:mod:`repro.durable`): every bit of
it is under the header's crc32 or the payload's.  The sweep flips bits
across the whole file — every bit of the frame header, and a rotating bit
of every seventh payload byte (one crc32 covers them all alike) — and each
must end in :class:`LifecycleResumeError` with the lane logs exactly as
they were (resume truncates them, so a snapshot that cannot be trusted
must be rejected first).  So must a file that is anything but one
published frame numbered by the next epoch its summaries count.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro import durable
from repro.lifecycle import LifecycleConfig, LifecycleEngine
from repro.lifecycle.persist import ENGINE_SNAPSHOT, LifecycleResumeError

from test_lifecycle_resume import BASE


def _killed_mid_epoch(tmp_path):
    """A run persisted through epoch 1 that dies inside epoch 2, so its
    lanes run past the recorded boundary; returns its config, its snapshot
    path and a function that reads its lane logs' sizes."""
    config = LifecycleConfig(persist_dir=str(tmp_path / "state"), **BASE)
    engine = LifecycleEngine(config)
    engine.run_epoch()
    engine._churn_step(engine.next_epoch)
    engine.fabric.close()
    logs = sorted((tmp_path / "state" / "lanes").glob("lane-*/wal.log"))

    def log_sizes():
        return [log.stat().st_size for log in logs]

    return config, tmp_path / "state" / ENGINE_SNAPSHOT, log_sizes


def test_every_bit_flip_of_the_engine_snapshot_is_refused(tmp_path):
    config, snapshot, log_sizes = _killed_mid_epoch(tmp_path)
    pristine = snapshot.read_bytes()
    sizes = log_sizes()

    header = len(durable.frame(0, b""))  # a frame with no payload is its header
    flips = [(index, bit) for index in range(header) for bit in range(8)]
    flips += [(index, index % 8) for index in range(header, len(pristine), 7)]
    for index, bit in flips:
        damaged = bytearray(pristine)
        damaged[index] ^= 1 << bit
        snapshot.write_bytes(damaged)
        with pytest.raises(LifecycleResumeError, match=ENGINE_SNAPSHOT):
            LifecycleEngine.open(config.persist_dir)
    assert log_sizes() == sizes  # nothing was rewound

    snapshot.write_bytes(pristine)
    reopened = LifecycleEngine.open(config.persist_dir)
    assert reopened.next_epoch == 2
    reopened.close()


def test_anything_but_one_published_frame_numbered_by_its_summaries_is_refused(tmp_path):
    """The snapshot is exactly one published frame, numbered by the next
    epoch: an appended frame, a second frame, trailing bytes, a cut frame,
    an empty file, the sealed file of ``SNAPSHOT_VERSION`` 6 (magic,
    version, sha256, payload) and a frame number its summaries disagree
    with are each refused by name, before any lane log is rewound."""
    config, snapshot, log_sizes = _killed_mid_epoch(tmp_path)
    pristine = snapshot.read_bytes()
    sequence, payload = durable.read_published(snapshot)
    assert sequence == 2
    state = pickle.loads(payload)
    state["version"] = 6
    sealed = pickle.dumps(state)
    sealed = b"LIFECYCL" + (6).to_bytes(2, "big") + hashlib.sha256(sealed).digest() + sealed
    sizes = log_sizes()
    for damaged, reason in (
        (durable.frame(1, payload), "appended, not published"),
        (pristine + durable.frame(sequence + 1, payload), "bytes follow"),
        (pristine + b"\0", "bytes follow"),
        (pristine[:-1], "cut short"),
        (b"", "no whole published frame"),
        (sealed, "corrupt at byte 0: frame header checksum"),
        (durable.frame(1, payload, published=True), "frame 1 holds 1 epoch summaries"),
        (durable.frame(3, payload, published=True), "frame 3 holds 1 epoch summaries"),
    ):
        snapshot.write_bytes(damaged)
        with pytest.raises(LifecycleResumeError, match=f"^{ENGINE_SNAPSHOT}: .*{reason}"):
            LifecycleEngine.open(config.persist_dir)
    assert log_sizes() == sizes
    snapshot.write_bytes(pristine)
    reopened = LifecycleEngine.open(config.persist_dir)
    assert reopened.next_epoch == 2
    reopened.close()
