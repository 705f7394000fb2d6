"""Exhaustive bit-flip sweep over the WAL state store: corruption is named.

The twin of ``test_wal_truncation_fuzz``: the same reference chain, but
instead of cutting the log short (a torn tail, which recovery drops), every
single bit of it is flipped in turn.  A flipped bit is damage *inside* what
the store was told is durable, so recovery may refuse
(:class:`~repro.durable.WalCorruption`) or, where the bit carries no
meaning, come up identical — it may never come up with a different state.
The same holds for a log that a snapshot started, and the sequence numbers
are checked at the edges a bit-flip cannot reach (a whole frame missing, a
log that lost the snapshot frame it started with).
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro import durable
from repro.chain import Blockchain, Transaction
from repro.chain.state import WalCorruption, WalStateStore
from repro.durable import frames

from test_wal_truncation_fuzz import _build_reference


def _reopen_hash(directory) -> str:
    store = WalStateStore(directory)
    try:
        return store.state_hash()
    finally:
        store.close()


def _sweep(path, expected_hash) -> tuple[int, int]:
    """Flip every bit of ``path`` in turn; returns (refused, identical)."""
    pristine = path.read_bytes()
    refused = identical = 0
    for index in range(len(pristine)):
        for bit in range(8):
            damaged = bytearray(pristine)
            damaged[index] ^= 1 << bit
            path.write_bytes(damaged)
            try:
                recovered = _reopen_hash(path.parent)
            except WalCorruption as exc:
                assert 0 <= exc.offset <= len(pristine) and exc.reason
                refused += 1
            else:
                assert recovered == expected_hash, (
                    f"bit {bit} of byte {index} of {path.name} silently "
                    "changed the recovered state"
                )
                identical += 1
    path.write_bytes(pristine)
    return refused, identical


def test_every_single_bit_flip_of_the_log_is_refused_or_harmless(tmp_path):
    chain = _build_reference(tmp_path)
    expected = chain.state_hash()
    chain.close()
    wal = tmp_path / "wal.log"
    refused, identical = _sweep(wal, expected)
    assert refused + identical == 8 * wal.stat().st_size
    assert refused > identical  # checksums, not luck, carry the guarantee
    assert _reopen_hash(tmp_path) == expected  # and the pristine log still opens


def test_every_single_bit_flip_of_the_snapshot_is_refused_or_harmless(tmp_path):
    """The log a snapshot started: its snapshot frame, then one more."""
    chain = Blockchain.open(tmp_path)
    alice = chain.create_account(2.0, label="alice")
    bob = chain.create_account(1.0, label="bob")
    chain.transact(Transaction(sender=alice, to=bob, value=10**16))
    chain.mine_block()
    chain.snapshot()
    chain.create_account(1.0, label="after-the-snapshot")
    expected = chain.state_hash()
    chain.close()
    assert len(list(frames((tmp_path / "wal.log").read_bytes()))) == 2
    refused, identical = _sweep(tmp_path / "wal.log", expected)
    assert refused > 0 and identical == 0  # crc32 catches every single-bit error


def test_files_framed_by_the_previous_format_are_refused_by_name(tmp_path, monkeypatch):
    """Each ``FORMAT_VERSION`` changed what a record holds; a log the
    previous build wrote is refused whole, never half-applied.  Format 5
    kept a snapshot beside the log in a sealed ``snapshot.pkl``: a lane
    directory still holding one is refused by that name, even when its log
    is empty (which would otherwise reopen as a fresh chain)."""
    previous_version = durable.FORMAT_VERSION - 1
    with monkeypatch.context() as previous:
        previous.setattr(durable, "FORMAT_VERSION", previous_version)
        chain = _build_reference(tmp_path)
        chain.close()
        started = Blockchain.open(tmp_path / "started")
        started.create_account(1.0, label="alice")
        started.snapshot()
        started.close()
        folded = tmp_path / "folded"
        folded.mkdir()
        # Format 5's sealed file: magic, version (2 bytes), sha256, payload.
        payload = pickle.dumps({})
        sealed = hashlib.sha256(payload).digest() + payload
        (folded / "snapshot.pkl").write_bytes(
            b"CHAINSNP" + previous_version.to_bytes(2, "big") + sealed
        )
        (folded / "wal.log").write_bytes(b"")
    for directory in (tmp_path, tmp_path / "started"):
        with pytest.raises(WalCorruption, match=f"unsupported frame version {previous_version}$"):
            WalStateStore(directory)
    with pytest.raises(WalCorruption, match="snapshot.pkl"):
        WalStateStore(folded)


def test_a_missing_frame_is_corruption_not_a_shorter_history(tmp_path):
    chain = _build_reference(tmp_path)
    chain.close()
    wal = tmp_path / "wal.log"
    data = wal.read_bytes()
    ends = [end for _sequence, _payload, end in frames(data)]
    wal.write_bytes(data[: ends[2]] + data[ends[3] :])  # drop the 4th frame whole
    with pytest.raises(WalCorruption, match="frame 5 where 4 should follow"):
        WalStateStore(tmp_path)


def test_a_log_that_starts_after_a_lost_snapshot_is_corruption(tmp_path):
    chain = _build_reference(tmp_path)
    chain.snapshot()
    chain.create_account(1.0, label="after-the-snapshot")
    snapshot_seq = chain.store._seq - 1
    chain.close()
    wal = tmp_path / "wal.log"
    data = wal.read_bytes()
    [snapshot_end, _] = [end for _sequence, _payload, end in frames(data)]
    wal.write_bytes(data[snapshot_end:])  # the snapshot frame is gone
    with pytest.raises(WalCorruption, match=f"frame {snapshot_seq + 1} where 1 should follow"):
        WalStateStore(tmp_path)


def test_a_snapshot_frame_spliced_behind_the_log_it_replaced_is_corruption(tmp_path):
    """The snapshot frame is numbered right after the log it replaces, so
    only its published flag tells the two apart from one longer log."""
    chain = _build_reference(tmp_path)
    replaced = (tmp_path / "wal.log").read_bytes()
    chain.snapshot()
    chain.close()
    (tmp_path / "wal.log").write_bytes(replaced + (tmp_path / "wal.log").read_bytes())
    with pytest.raises(WalCorruption, match="is not the log's first"):
        WalStateStore(tmp_path)
