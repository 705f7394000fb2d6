"""Exhaustive bit-flip sweep over the WAL state store: corruption is named.

The twin of ``test_wal_truncation_fuzz``: the same reference chain, but
instead of cutting the log short (a torn tail, which recovery drops), every
single bit of it is flipped in turn.  A flipped bit is damage *inside* what
the store was told is durable, so recovery may refuse
(:class:`~repro.durable.WalCorruption`) or, where the bit carries no
meaning, come up identical — it may never come up with a different state.
The same holds for the folded snapshot, and the sequence numbers that
close the fold's crash window are checked at the edges a bit-flip cannot
reach (a whole frame missing, a whole stale log left behind).
"""

from __future__ import annotations

import shutil

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
    chain = Blockchain.open(tmp_path)
    alice = chain.create_account(2.0, label="alice")
    bob = chain.create_account(1.0, label="bob")
    chain.transact(Transaction(sender=alice, to=bob, value=10**16))
    chain.mine_block()
    chain.snapshot()
    chain.create_account(1.0, label="after-the-fold")
    expected = chain.state_hash()
    chain.close()
    refused, identical = _sweep(tmp_path / "snapshot.pkl", expected)
    assert refused > 0 and identical == 0  # sha256 covers every payload bit


def test_files_framed_by_the_previous_format_are_refused_by_name(tmp_path, monkeypatch):
    """Each ``FORMAT_VERSION`` changed what a record holds; a log or snapshot
    the previous build wrote is refused whole, never half-applied."""
    previous_version = durable.FORMAT_VERSION - 1
    with monkeypatch.context() as previous:
        previous.setattr(durable, "FORMAT_VERSION", previous_version)
        chain = _build_reference(tmp_path)
        chain.close()
        folded = Blockchain.open(tmp_path / "folded")
        folded.create_account(1.0, label="alice")
        folded.snapshot()
        folded.close()
    with pytest.raises(WalCorruption, match=f"unsupported frame version {previous_version}$"):
        WalStateStore(tmp_path)
    with pytest.raises(WalCorruption, match=f"unsupported format version {previous_version}$"):
        WalStateStore(tmp_path / "folded")


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
    chain.create_account(1.0, label="after-the-fold")
    chain.close()
    (tmp_path / "snapshot.pkl").unlink()
    with pytest.raises(WalCorruption, match="are missing"):
        WalStateStore(tmp_path)


def test_crash_between_snapshot_publish_and_log_cut_replays_nothing_twice(tmp_path):
    """Fold, 3 transfers + blocks, fold again but keep the pre-fold log.

    ``snapshot()`` publishes the snapshot and then cuts the log; a crash in
    between leaves both.  Receipts, events and blocks are appended, not
    overwritten, so replaying the stale frames on top of the snapshot that
    already holds them used to grow the chain (10 blocks instead of 7).
    """
    live = tmp_path / "live"
    chain = Blockchain.open(live)
    alice = chain.create_account(5.0, label="alice")
    bob = chain.create_account(1.0, label="bob")
    chain.mine_block()
    chain.snapshot()
    for _ in range(3):
        chain.transact(Transaction(sender=alice, to=bob, value=10**15))
        chain.mine_block()
    stale_log = (live / "wal.log").read_bytes()
    assert stale_log
    chain.snapshot()
    expected_hash, expected_blocks = chain.state_hash(), len(chain.blocks)
    chain.close()
    assert (live / "wal.log").stat().st_size == 0

    crashed = tmp_path / "crashed"
    shutil.copytree(live, crashed)
    (crashed / "wal.log").write_bytes(stale_log)  # the cut never happened
    recovered = Blockchain.open(crashed)
    assert recovered.store.replayed_records == 0
    assert len(recovered.blocks) == expected_blocks
    assert recovered.state_hash() == expected_hash
    # The survivor appends after the stale frames and still re-recovers.
    recovered.transact(Transaction(sender=alice, to=bob, value=10**15))
    recovered.mine_block()
    after = recovered.state_hash()
    recovered.close()
    assert _reopen_hash(crashed) == after
