"""The store's write-set journal: savepoints, rollback, deltas, cost shape.

The ledger used to find out what a scope changed by copying its keyed maps
when the scope opened and diffing them when it closed, and reverted a
failed call by restoring a copy.  That approach is exactly right and
O(accounts) per transaction; it lives on here as the *model* the journal
is checked against, over random interleavings of every dict mutator with
nested savepoints.  The second half pins the point of the exercise: what a
transfer costs, in time and in log bytes, does not depend on how many
accounts the chain holds.
"""

from __future__ import annotations

import pickle
import time

from hypothesis import given, settings, strategies as st

from repro.chain import Blockchain, Transaction
from repro.chain.state import _MISSING, MemoryStateStore
from repro.durable import frames

MAPS = ("balances", "nonces")
KEYS = st.sampled_from("abcdef")
VALUES = st.integers(-3, 3)
WRITES = st.one_of(
    st.tuples(st.sampled_from(["set", "add", "setdefault"]), st.sampled_from(MAPS), KEYS, VALUES),
    st.tuples(st.sampled_from(["pop", "del"]), st.sampled_from(MAPS), KEYS),
    st.tuples(st.just("update"), st.sampled_from(MAPS), st.dictionaries(KEYS, VALUES, max_size=3)),
)
OPS = st.one_of(
    WRITES,
    st.tuples(st.just("savepoint")),
    st.tuples(st.just("rollback"), st.integers(0, 5)),
)


def _write(target: dict, op: tuple) -> None:
    """One mutation, spelled the way call sites spell it, on either kind of dict."""
    kind, _map, *rest = op
    if kind == "set":
        target[rest[0]] = rest[1]
    elif kind == "add":
        target.setdefault(rest[0], 0)
        target[rest[0]] += rest[1]
    elif kind == "setdefault":
        target.setdefault(rest[0], rest[1])
    elif kind == "pop":
        target.pop(rest[0], None)
    elif kind == "del":
        if rest[0] in target:
            del target[rest[0]]
    elif kind == "update":
        target.update(rest[0])


@settings(max_examples=300, deadline=None)
@given(before=st.lists(WRITES, max_size=6), inside=st.lists(OPS, max_size=40))
def test_journal_matches_copy_and_restore(before, inside):
    store = MemoryStateStore()
    model = {name: {} for name in MAPS}
    for op in before:  # outside any scope: applied, never journaled
        _write(getattr(store, op[1]), op)
        _write(model[op[1]], op)
    assert not store._journal

    store.begin()
    opened = {name: dict(model[name]) for name in MAPS}  # the old pre-image
    saved: list[tuple[int, dict]] = []
    for op in inside:
        if op[0] == "savepoint":
            copies = {name: dict(model[name]) for name in MAPS}
            saved.append((store.savepoint(), copies))
        elif op[0] == "rollback":
            if saved:
                del saved[op[1] % len(saved) + 1 :]  # inner savepoints die with it
                mark, copies = saved.pop()
                store.rollback(mark)
                model = copies
        else:
            _write(getattr(store, op[1]), op)
            _write(model[op[1]], op)
        for name in MAPS:
            assert getattr(store, name) == model[name]

    now, gone = store.delta()
    for name in MAPS:  # the old whole-map diff, verbatim, is the expected delta
        assert now.get(name, {}) == {
            key: value
            for key, value in model[name].items()
            if opened[name].get(key, _MISSING) != value
        }
        assert sorted(gone.get(name, [])) == sorted(
            key for key in opened[name] if key not in model[name]
        )
    store.commit()
    assert not store._journal and store.delta() == ({}, {})


def test_journaled_maps_pickle_as_plain_dicts():
    store = MemoryStateStore()
    store.balances["a"] = 1
    clone = pickle.loads(pickle.dumps(store.balances))
    assert type(clone) is dict and clone == {"a": 1}


def _transfer_profile(directory, accounts: int) -> tuple[float, int, dict]:
    """(fastest transfer in seconds, the last one's payload length and balance patch)."""
    chain = Blockchain.open(directory)
    addresses = [chain.create_account(1.0, label=f"acct-{i}") for i in range(accounts)]
    sender, recipient = addresses[:2]
    best = float("inf")
    for _ in range(200):
        tx = Transaction(sender=sender, to=recipient, value=1, gas_limit=30_000)
        start = time.perf_counter()
        chain.transact(tx)
        best = min(best, time.perf_counter() - start)
    chain.close()
    *_, (_sequence, payload, _end) = frames((directory / "wal.log").read_bytes())
    now, _gone, _counters = pickle.loads(payload)
    return best, len(payload), now["balances"]


def test_transfer_cost_does_not_grow_with_the_account_count(tmp_path):
    small = _transfer_profile(tmp_path / "small", 64)
    large = _transfer_profile(tmp_path / "large", 16_384)
    # Parent (copy + diff): 11x at 4,096 accounts, 83x at 32,768.
    assert large[0] <= 3 * small[0], (
        f"transfer took {large[0] * 1e6:.0f} us at 16,384 accounts vs "
        f"{small[0] * 1e6:.0f} us at 64"
    )
    # The frame is the same record at both sizes: two balances and the
    # counters.  Only ``account_seq`` differs (64 vs 16,384), which pickle
    # writes one byte wider.
    assert len(small[2]) == len(large[2]) == 2
    assert 0 <= large[1] - small[1] <= 1
