"""Exhaustive torn-write sweep over the WAL state store.

Builds a small but representative WAL (accounts, a contract deploy, value
transfers, contract calls, sealed blocks), then reopens the store from a
copy truncated at *every* byte offset of the log.  Recovery must always
equal the state after the largest whole-frame prefix that survived — and
the reopened store must keep working (torn tail cleanly cut, appends
land where recovery can see them).  The same sweep runs over a log that a
snapshot started: its snapshot frame is published whole, never appended,
so a cut inside it is :class:`WalCorruption`, not a shorter history.
"""

from __future__ import annotations

import shutil

import pytest

from repro.chain import Blockchain, Transaction
from repro.chain.contracts.reputation import ReputationRegistry
from repro.chain.state import WalCorruption, WalStateStore
from repro.durable import frames


def _build_reference(directory) -> Blockchain:
    """A small chain touching every record kind the WAL knows."""
    chain = Blockchain.open(directory)
    alice = chain.create_account(2.0, label="alice")
    bob = chain.create_account(1.0, label="bob")
    registry = ReputationRegistry(min_stake_wei=10**17)
    address = chain.deploy(registry, deployer=alice)
    chain.transact(
        Transaction(sender=alice, to=address, method="register",
                    args=("alice-node",), value=10**17)
    )
    chain.mine_block()
    chain.transact(Transaction(sender=alice, to=bob, value=10**16))
    chain.transact(
        Transaction(sender=bob, to=address, method="authorize_reporter",
                    args=(bob,))
    )
    chain.mine_block()
    return chain


def _frame_boundaries(wal_bytes: bytes) -> list[int]:
    """Byte offsets after each complete frame (0 = empty prefix)."""
    boundaries = [0] + [end for _sequence, _payload, end in frames(wal_bytes)]
    assert boundaries[-1] == len(wal_bytes), "reference WAL must be untorn"
    return boundaries


def _build_snapshotted(directory) -> Blockchain:
    """The reference chain, snapshotted, then an account and a block more."""
    chain = _build_reference(directory)
    chain.snapshot()
    chain.create_account(1.0, label="after-the-snapshot")
    chain.mine_block()
    return chain


def _prefixes(base, build, name):
    """``(base, log bytes, whole-frame boundaries, state_hash per boundary)``."""
    ref_dir = base / name
    chain = build(ref_dir)
    final_hash = chain.state_hash()
    chain.close()
    wal_bytes = (ref_dir / "wal.log").read_bytes()
    boundaries = _frame_boundaries(wal_bytes)
    # State hash after each whole-frame prefix.
    prefix_hash = {}
    for index, boundary in enumerate(boundaries):
        prefix_dir = base / f"{name}-prefix-{index}"
        prefix_dir.mkdir()
        (prefix_dir / "wal.log").write_bytes(wal_bytes[:boundary])
        store = WalStateStore(prefix_dir)
        prefix_hash[boundary] = store.state_hash()
        store.close()
    assert prefix_hash[boundaries[-1]] == final_hash
    return base, wal_bytes, boundaries, prefix_hash


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    return _prefixes(tmp_path_factory.mktemp("wal-fuzz"), _build_reference, "reference")


@pytest.fixture(scope="module")
def snapshotted(tmp_path_factory):
    return _prefixes(tmp_path_factory.mktemp("wal-fuzz"), _build_snapshotted, "snapshotted")


def test_reference_wal_is_interesting(reference):
    _, wal_bytes, boundaries, prefix_hash = reference
    assert len(boundaries) >= 8  # genesis + accounts + deploy + txs + blocks
    assert len(set(prefix_hash.values())) == len(boundaries)  # each frame matters


def test_recovery_at_every_byte_truncation_offset(reference, snapshotted):
    """The exhaustive sweep: every cut point of both logs, one reopened
    store each.  In the log a snapshot started, a cut inside the snapshot
    frame (past byte 0, before its end) is refused."""
    for (base, wal_bytes, boundaries, prefix_hash), published in (
        (reference, 0), (snapshotted, snapshotted[2][1])
    ):
        work = base / "cut"
        replayed = refused = 0
        for offset in range(len(wal_bytes) + 1):
            floor = max(b for b in boundaries if b <= offset)
            if work.exists():
                shutil.rmtree(work)
            work.mkdir()
            (work / "wal.log").write_bytes(wal_bytes[:offset])
            if 0 < offset < published:
                with pytest.raises(WalCorruption, match="published first frame is cut short"):
                    WalStateStore(work)
                refused += 1
                continue
            store = WalStateStore(work)
            assert store.state_hash() == prefix_hash[floor], (
                f"truncation at byte {offset} did not recover the state of the "
                f"{floor}-byte whole-frame prefix"
            )
            # Clean torn-tail contract: the garbage tail is gone from disk.
            assert store.wal_size() == floor
            store.close()
            replayed += 1
        assert replayed + refused == len(wal_bytes) + 1
        assert refused == max(published - 1, 0)


def test_reopened_store_accepts_new_appends_after_any_tear(reference):
    """Sparse sweep: after recovery the chain keeps running and re-recovers."""
    base, wal_bytes, boundaries, _ = reference
    # Offsets straddling each frame boundary, plus a mid-frame tear.
    offsets = sorted(
        {
            cut
            for boundary in boundaries[1:]
            for cut in (boundary - 1, boundary, boundary + 17)
            if 0 <= cut <= len(wal_bytes)
        }
    )
    for index, offset in enumerate(offsets):
        work = base / f"append-{index}"
        work.mkdir()
        (work / "wal.log").write_bytes(wal_bytes[:offset])
        chain = Blockchain.open(work)
        chain.create_account(1.0, label="post-crash")
        chain.mine_block()
        expected = chain.state_hash()
        chain.close()
        again = Blockchain.open(work)
        assert again.state_hash() == expected
        again.close()


def test_snapshot_plus_torn_wal(snapshotted, tmp_path):
    """A log a snapshot started, under a torn tail, still recovers."""
    _, tail, boundaries, prefix_hash = snapshotted
    assert len(boundaries) >= 3  # the snapshot frame, then post-snapshot traffic
    # Tear the final frame in half: recovery must keep everything before it.
    cut = (boundaries[-2] + boundaries[-1]) // 2
    (tmp_path / "wal.log").write_bytes(tail[:cut])
    store = WalStateStore(tmp_path)
    recovered = store.state_hash()
    store.close()
    assert recovered != prefix_hash[boundaries[-1]]  # the torn frame is gone...
    # ...but matches the exact whole-frame prefix state.
    assert recovered == prefix_hash[boundaries[-2]]
