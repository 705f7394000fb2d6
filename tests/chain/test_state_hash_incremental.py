"""``state_hash`` folds history incrementally and still means the whole state.

``chain-state-v2`` enters sealed blocks and events as running hash chains
that each ``state_hash`` call advances from a cursor.  The cursor is only an
optimisation: after any sequence of ledger operations, on a memory store or
a WAL store (through snapshots, reopens and torn tails), the store's digest
must equal the same definition folded from the first item with no cursor at
all (``state_oracles.state_hash_v2``), and a reopened copy must agree with
the live store.  The last test pins the cost shape: one more block costs
the same number of encoder calls on a 50-block chain as on a 200-block one.
"""

from __future__ import annotations

import pickle
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import Blockchain, Contract, Transaction
from repro.chain import state as chain_state
from repro.chain.blockchain import Block
from repro.chain.state import StateStore, WalStateStore
from repro.chain.transaction import Event
from repro.durable import read_sealed
from state_oracles import state_hash_v1, state_hash_v2

GAS = 200_000


class Emitter(Contract):
    """Module-level (hence picklable) contract that emits on every call."""

    def __init__(self):
        super().__init__()
        self.total = 0

    def poke(self, ctx, amount):
        self.total += amount
        self.emit("poked", amount=amount, total=self.total)

    def refuse(self, ctx):
        self.emit("refusing")
        self.require(False, "refused")


OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["account", "deploy", "mine", "snapshot", "reopen", "torn"])),
        st.tuples(st.just("fail"), st.integers(0, 7)),
        st.tuples(st.just("transfer"), st.integers(0, 7), st.integers(1, 10**6)),
        st.tuples(st.just("call"), st.integers(0, 7), st.integers(1, 9)),
        st.tuples(st.just("schedule"), st.integers(0, 7), st.sampled_from([0.0, 20.0])),
    ),
    max_size=24,
)


class _Ledger:
    """One chain driven by the operations above."""

    def __init__(self, directory: Path | None):
        self.directory = directory
        self.chain = Blockchain() if directory is None else Blockchain.open(directory)
        self.accounts = [self.chain.create_account(1.0, label=f"a{i}") for i in range(2)]
        self.contracts: list[str] = []

    def apply(self, op: tuple) -> None:
        chain, kind = self.chain, op[0]
        if kind == "account":
            self.accounts.append(chain.create_account(1.0, label=f"a{len(self.accounts)}"))
        elif kind == "transfer":
            sender, to = self.accounts[0], self.accounts[op[1] % len(self.accounts)]
            chain.transact(Transaction(sender=sender, to=to, value=op[2], gas_limit=GAS))
        elif kind == "deploy":
            self.contracts.append(chain.deploy(Emitter(), self.accounts[0]))
        elif kind == "mine":
            chain.mine_block()
        elif kind == "snapshot":
            chain.snapshot()
        elif kind in ("reopen", "torn"):
            if self.directory is not None:
                chain.close()
                if kind == "torn":
                    with open(self.directory / "wal.log", "ab") as handle:
                        handle.write(b"\x00\x00\x10\x00partial-frame")
                self.chain = Blockchain.open(self.directory)
        elif self.contracts:
            target = self.contracts[op[1] % len(self.contracts)]
            if kind == "fail":
                chain.transact(Transaction(
                    sender=self.accounts[0], to=target, method="refuse", value=5, gas_limit=GAS
                ))
            elif kind == "call":
                chain.transact(Transaction(
                    sender=self.accounts[0], to=target, method="poke", args=(op[2],), gas_limit=GAS
                ))
            else:
                chain.schedule_call(target, "poke", op[2], (1,))

    def reopened_hash(self) -> str:
        """The digest of a fresh store recovered from a copy of this one's files."""
        with tempfile.TemporaryDirectory() as scratch:
            copy = Path(scratch) / "copy"
            shutil.copytree(self.directory, copy)
            store = WalStateStore(copy)
            try:
                return store.state_hash()
            finally:
                store.close()


@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_incremental_digest_equals_a_from_scratch_fold_after_every_operation(ops):
    with tempfile.TemporaryDirectory() as scratch:
        memory, wal = _Ledger(None), _Ledger(Path(scratch) / "chain")
        try:
            for op in ops:
                memory.apply(op)
                wal.apply(op)
                live = wal.chain.state_hash()
                assert live == state_hash_v2(wal.chain.store), op
                assert memory.chain.state_hash() == live == state_hash_v2(memory.chain.store)
                assert wal.reopened_hash() == live, op
        finally:
            wal.chain.close()


def _wal_chain(directory) -> Blockchain:
    """Three sealed blocks past genesis, each holding one event-emitting call."""
    chain = Blockchain.open(directory)
    alice = chain.create_account(1.0, label="alice")
    address = chain.deploy(Emitter(), alice)
    for amount in range(1, 4):
        chain.transact(Transaction(
            sender=alice, to=address, method="poke", args=(amount,), gas_limit=GAS
        ))
        chain.mine_block()
    return chain


def test_a_snapshot_apply_that_replaces_the_blocks_list_restarts_the_fold(tmp_path):
    chain = _wal_chain(tmp_path)
    chain.snapshot()
    at_snapshot = chain.state_hash()
    record = pickle.loads(read_sealed(tmp_path / "snapshot.pkl", b"CHAINSNP"))
    for _ in range(3):
        chain.mine_block()
    assert chain.state_hash() != at_snapshot   # the cursor now covers six sealed blocks
    store = chain.store
    store.events.clear()                       # ``_apply`` extends the (replayed) events
    store._apply(record)
    assert list(map(id, store.blocks)) == list(map(id, record.now["blocks"].values()))
    assert store.state_hash() == at_snapshot == state_hash_v2(store)
    chain.close()


@pytest.mark.parametrize("history", ["blocks", "events"])
@pytest.mark.parametrize("edit", ["replace-last", "shrink-and-regrow"])
def test_a_list_rewritten_under_the_cursor_restarts_the_fold(tmp_path, history, edit):
    """Equal length with a different last item, or cut below the cursor and
    appended to: either way the fold starts over rather than trusting a
    digest of items that are no longer there."""
    chain = _wal_chain(tmp_path)
    store = chain.store
    folded = store.state_hash()
    items = getattr(store, history)
    # The last item the cursor folded: for blocks, the last sealed one.
    at = len(items) - (2 if history == "blocks" else 1)
    other = (
        Block(number=99, timestamp=1.5, parent_hash="f" * 64)
        if history == "blocks"
        else Event(contract="0xother", name="elsewhere", payload={"n": 1})
    )
    if edit == "replace-last":
        items[at] = other
    else:
        tail = items[at + 1 :]
        del items[at - 1 :]
        items.append(other)
        items.extend(tail)
    assert store.state_hash() == state_hash_v2(store) != folded
    chain.close()


def _encoder_calls_for_one_more_block(monkeypatch, blocks: int, digest) -> int:
    """``_encode_canonical`` calls (recursive ones included) that one digest
    of a chain costs after one more block is mined onto ``blocks`` others."""
    chain = Blockchain()
    alice, bob = (chain.create_account(1.0, label=label) for label in ("alice", "bob"))
    address = chain.deploy(Emitter(), alice)

    def block() -> None:
        chain.transact(Transaction(sender=alice, to=bob, value=1, gas_limit=GAS))
        chain.transact(Transaction(
            sender=alice, to=address, method="poke", args=(1,), gas_limit=GAS
        ))
        chain.mine_block()

    for _ in range(blocks):
        block()
    digest(chain.store)
    block()
    calls = 0
    encode = chain_state._encode_canonical

    def counting(*args):
        nonlocal calls
        calls += 1
        return encode(*args)

    with monkeypatch.context() as patch:
        patch.setattr(chain_state, "_encode_canonical", counting)
        digest(chain.store)
    return calls


def test_one_more_block_costs_the_same_at_50_and_200_blocks(monkeypatch):
    short = _encoder_calls_for_one_more_block(monkeypatch, 50, StateStore.state_hash)
    long = _encoder_calls_for_one_more_block(monkeypatch, 200, StateStore.state_hash)
    assert short == long
    # The count discriminates: the whole-history walk it replaced grows
    # with every block.
    v1_short = _encoder_calls_for_one_more_block(monkeypatch, 50, state_hash_v1)
    v1_long = _encoder_calls_for_one_more_block(monkeypatch, 200, state_hash_v1)
    assert v1_long > 3 * v1_short > 3 * short
