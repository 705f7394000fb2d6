"""Chain state digests recomputed from nothing but the store's contents.

``StateStore.state_hash`` keeps cursors into its append-only lists; these
oracles keep none, so a test can hold the store's answer against a walk of
the whole state:

* :func:`state_hash_v1` is ``chain-state-v1``, the definition before sealed
  blocks and events were folded into running hash chains: every block,
  receipt and event fed whole through the canonical encoding on every call.
  The known-answer tests pin its literals to show the state itself did not
  move when the definition did.
* :func:`state_hash_v2` is ``chain-state-v2`` with both hash chains folded
  from the first item on every call: the differential oracle for the
  store's incremental fold.
* :func:`fabric_state_hash` combines per-lane digests the way
  ``ShardedChainFabric.state_hash`` does.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from repro.chain.state import _encode_canonical, canonical_state_digest


def _digest(tag: bytes, store, history: dict) -> str:
    hasher = hashlib.sha256(tag)
    _encode_canonical(
        {
            "time": store.time,
            "fee_sink": store.fee_sink,
            "base_fee_wei": store.base_fee_wei,
            "burned": store.burned,
            "account_seq": store.account_seq,
            "tx_seq": store.tx_seq,
            "schedule_seq": store.schedule_seq,
            "balances": store.balances,
            "nonces": store.nonces,
            "signer_keys": store.signer_keys,
            "scheduled": list(store.scheduled),
            **history,
        },
        hasher,
    )
    for address in sorted(store.contracts):
        hasher.update(address.encode())
        _encode_canonical(store.contracts[address], hasher)
    return hasher.hexdigest()


def state_hash_v1(store) -> str:
    """``chain-state-v1``: both history lists encoded whole."""
    return _digest(
        b"chain-state-v1",
        store,
        {"blocks": list(store.blocks), "events": list(store.events)},
    )


def hash_chain(items: list) -> tuple[int, bytes]:
    """``(len(items), d)`` with ``d_0`` 32 zero bytes and
    ``d_i = sha256(d_{i-1} || canonical_state_digest(item_i))``."""
    digest = bytes(32)
    for item in items:
        digest = hashlib.sha256(digest + canonical_state_digest(item)).digest()
    return len(items), digest


def state_hash_v2(store) -> str:
    """``chain-state-v2`` folded from scratch."""
    blocks = store.blocks
    return _digest(
        b"chain-state-v2",
        store,
        {
            "sealed_blocks": hash_chain(blocks[:-1]),
            "pending_block": blocks[-1] if blocks else None,
            "events": hash_chain(store.events),
        },
    )


def fabric_state_hash(fabric, lane_hash: Callable[[object], str]) -> str:
    """``fabric-state-v1`` over ``lane_hash(lane store)`` of every lane."""
    hasher = hashlib.sha256(b"fabric-state-v1")
    hasher.update(len(fabric.lanes).to_bytes(4, "big"))
    for lane in fabric.lanes:
        hasher.update(bytes.fromhex(lane_hash(lane.store)))
    return hasher.hexdigest()
