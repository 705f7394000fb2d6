"""Torn-write sweep over the WAL with a live mempool in the frame stream.

Same discipline as ``test_wal_truncation_fuzz`` — truncate the log,
reopen, compare against the largest whole-frame prefix — but the
reference workload now drives the fee-market pool through every record
kind it persists: submissions, replace-by-fee, watermark eviction, age
expiry and priority drains.  Recovery is checked on **two** digests per
cut: ``state_hash`` (ledger) and ``pool_hash`` (admission queue), so a
crash can neither resurrect an evicted transaction nor drop a pending
one.  Pool frames are much larger than ledger frames, so the byte sweep
samples mid-frame offsets instead of visiting every byte.
"""

from __future__ import annotations

import shutil

import pytest

from repro.chain import Blockchain, Transaction
from repro.chain.mempool import GasSinkContract, MempoolConfig, MempoolRejection
from repro.chain.state import WalStateStore
from repro.durable import frames

POOL = dict(
    high_watermark=8, low_watermark=4, max_per_sender=8, max_age_seconds=30.0
)


def _pool_tx(sink, sender, *, gas=100_000, tip=0.5, max_fee=3.0, note="fuzz",
             nonce=None):
    return Transaction(
        sender=sender, to=sink, method="consume", args=(gas - 25_000, note),
        gas_limit=gas, max_fee_gwei=max_fee, priority_fee_gwei=tip,
        nonce=nonce,
    )


def _build_reference(directory) -> Blockchain:
    """A pooled chain touching every mempool record the WAL persists."""
    chain = Blockchain.open(
        directory, block_gas_limit=400_000, mempool=MempoolConfig(**POOL)
    )
    deployer = chain.create_account(10.0, label="deployer")
    sink = chain.deploy(GasSinkContract(), deployer=deployer)
    senders = [chain.create_account(50.0, label=f"fuzz-{i}") for i in range(3)]
    a, b, c = senders

    # Plain submissions + a priority drain.
    chain.submit(_pool_tx(sink, a, tip=2.0))
    chain.submit(_pool_tx(sink, b, tip=1.0))
    chain.mine_block()

    # Replace-by-fee on a pending slot.
    entry = chain.submit(_pool_tx(sink, a, tip=0.4, note="rbf-victim"))
    chain.submit(
        _pool_tx(sink, a, tip=1.2, max_fee=6.0, note="rbf-winner",
                 nonce=entry.tx.nonce),
        replace=True,
    )

    # Flood past the high watermark: cheap tail evicted for a rich bid.
    for index in range(7):
        try:
            chain.submit(_pool_tx(sink, b, tip=0.1, note=f"cheap-{index}"))
        except MempoolRejection:
            pass
    chain.submit(_pool_tx(sink, c, tip=5.0, max_fee=9.0, note="rich"))
    chain.mine_block()

    # Age out a backlog: near-block-size transactions drain one per block
    # (15s each), so the tail outlives the 30s age budget and expires.
    for index in range(4):
        chain.submit(
            _pool_tx(sink, a, gas=380_000, tip=0.05, note=f"slow-{index}")
        )
    for _ in range(4):
        chain.mine_block()
    chain.submit(_pool_tx(sink, c, tip=0.8, note="left-pending"))
    return chain


def _frame_boundaries(wal_bytes: bytes) -> list[int]:
    """Byte offsets after each complete frame (0 = empty prefix)."""
    boundaries = [0] + [end for _sequence, _payload, end in frames(wal_bytes)]
    assert boundaries[-1] == len(wal_bytes), "reference WAL must be untorn"
    return boundaries


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    base = tmp_path_factory.mktemp("mempool-wal-fuzz")
    ref_dir = base / "reference"
    chain = _build_reference(ref_dir)
    final = (chain.state_hash(), chain.store.pool_hash())
    stats = dict(chain.pool.stats)
    chain.close()
    wal_bytes = (ref_dir / "wal.log").read_bytes()
    boundaries = _frame_boundaries(wal_bytes)
    prefix = {}
    for index, boundary in enumerate(boundaries):
        prefix_dir = base / f"prefix-{index}"
        prefix_dir.mkdir()
        (prefix_dir / "wal.log").write_bytes(wal_bytes[:boundary])
        store = WalStateStore(prefix_dir)
        prefix[boundary] = (store.state_hash(), store.pool_hash())
        store.close()
    assert prefix[boundaries[-1]] == final
    return base, wal_bytes, boundaries, prefix, stats


def test_reference_workload_hits_every_pool_path(reference):
    """The sweep only proves something if the WAL really saw the churn."""
    _, _, boundaries, prefix, stats = reference
    assert stats["drained"] > 0
    assert stats["replaced"] > 0
    assert stats["evicted"] > 0
    assert stats["expired"] > 0
    assert len(boundaries) >= 12
    # The pool digest changes across the log (pending state is in frames).
    assert len({pool for _, pool in prefix.values()}) > 3


def _cut_offsets(wal_bytes: bytes, boundaries: list[int]) -> list[int]:
    """Every boundary +/-1, plus sampled mid-frame tears."""
    offsets = {
        cut
        for boundary in boundaries
        for cut in (boundary - 1, boundary, boundary + 1)
    }
    offsets.update(range(0, len(wal_bytes) + 1, 61))
    offsets.add(len(wal_bytes))
    return sorted(cut for cut in offsets if 0 <= cut <= len(wal_bytes))


def test_recovery_matches_whole_frame_prefix_on_both_digests(reference):
    base, wal_bytes, boundaries, prefix, _ = reference
    work = base / "cut"
    for offset in _cut_offsets(wal_bytes, boundaries):
        floor = max(b for b in boundaries if b <= offset)
        if work.exists():
            shutil.rmtree(work)
        work.mkdir()
        (work / "wal.log").write_bytes(wal_bytes[:offset])
        store = WalStateStore(work)
        assert store.state_hash() == prefix[floor][0], (
            f"ledger state at cut {offset} != {floor}-byte prefix"
        )
        assert store.pool_hash() == prefix[floor][1], (
            f"pool state at cut {offset} != {floor}-byte prefix"
        )
        assert store.wal_size() == floor  # torn tail cleanly cut
        store.close()


def test_pool_keeps_working_after_any_tear(reference):
    """Reopen at a tear, submit + mine + reopen again: still deterministic."""
    base, wal_bytes, boundaries, _, _ = reference
    offsets = sorted(
        {
            cut
            for boundary in boundaries[-6:]
            for cut in (boundary - 1, boundary)
            if 0 <= cut <= len(wal_bytes)
        }
    )
    for index, offset in enumerate(offsets):
        work = base / f"resume-{index}"
        work.mkdir()
        (work / "wal.log").write_bytes(wal_bytes[:offset])
        chain = Blockchain.open(
            work, block_gas_limit=400_000, mempool=MempoolConfig(**POOL)
        )
        survivor = chain.create_account(5.0, label="post-crash")
        chain.submit(
            Transaction(sender=survivor, to=survivor, value=0,
                        gas_limit=30_000, max_fee_gwei=4.0,
                        priority_fee_gwei=1.0)
        )
        chain.mine_block()
        expected = (chain.state_hash(), chain.store.pool_hash())
        chain.close()
        again = Blockchain.open(
            work, block_gas_limit=400_000, mempool=MempoolConfig(**POOL)
        )
        assert (again.state_hash(), again.store.pool_hash()) == expected
        again.close()
