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
* :func:`encode_reference` is the canonical encoding as it was before
  objects were laid out once per class: every object builds its attribute
  dict, digests each attribute name and sorts them.  It is the
  differential oracle for ``_encode_canonical`` (same bytes on every
  value), and :func:`digest_reference` its ``canonical_state_digest``.
"""

from __future__ import annotations

import enum
import hashlib
import struct
from typing import Any, Callable

from repro.chain.state import _CONTRACT_SKIP_ATTRS, _encode_canonical, canonical_state_digest


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


def encode_reference(value: Any, hasher, depth: int = 0) -> None:
    """Feed a deterministic, type-tagged encoding of ``value`` into ``hasher``.

    Dicts are encoded sorted by their keys' encodings, objects as
    ``module.qualname`` plus their sorted attribute dict, floats via
    ``repr`` (exact round-trip), so the digest is a pure function of the
    logical state — independent of dict insertion order, pickle protocol
    or process identity.
    """
    if depth > 64:
        raise ValueError("state encoding recursion too deep (cycle?)")
    if value is None:
        hasher.update(b"N")
    elif isinstance(value, bool):
        hasher.update(b"b1" if value else b"b0")
    elif isinstance(value, int):
        encoded = str(value).encode()
        hasher.update(b"i" + struct.pack(">I", len(encoded)) + encoded)
    elif isinstance(value, float):
        encoded = repr(value).encode()
        hasher.update(b"f" + struct.pack(">I", len(encoded)) + encoded)
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        hasher.update(b"s" + struct.pack(">I", len(encoded)) + encoded)
    elif isinstance(value, (bytes, bytearray)):
        hasher.update(b"y" + struct.pack(">I", len(value)) + bytes(value))
    elif isinstance(value, enum.Enum):
        encode_reference(
            f"{type(value).__module__}.{type(value).__qualname__}", hasher, depth + 1
        )
        encode_reference(value.value, hasher, depth + 1)
    elif isinstance(value, (list, tuple)):
        hasher.update(b"l" + struct.pack(">I", len(value)))
        for item in value:
            encode_reference(item, hasher, depth + 1)
    elif isinstance(value, (set, frozenset)):
        digests = sorted(digest_reference(item) for item in value)
        hasher.update(b"e" + struct.pack(">I", len(digests)))
        for digest in digests:
            hasher.update(digest)
    elif isinstance(value, dict):
        entries = sorted(
            (digest_reference(key), key, val) for key, val in value.items()
        )
        hasher.update(b"d" + struct.pack(">I", len(entries)))
        for key_digest, _, val in entries:
            hasher.update(key_digest)
            encode_reference(val, hasher, depth + 1)
    else:
        attrs = _object_attrs(value)
        if attrs is None:
            raise TypeError(f"cannot canonically encode {type(value)!r}")
        hasher.update(b"o")
        encode_reference(
            f"{type(value).__module__}.{type(value).__qualname__}", hasher, depth + 1
        )
        encode_reference(attrs, hasher, depth + 1)


def _object_attrs(value: Any) -> dict | None:
    """An object's state dict (``__dict__`` and/or ``__slots__`` members).

    A class may publish ``_canonical_state_slots`` naming exactly the
    attributes that define its logical state; anything else (memoized
    derived values like a curve point's cached affine form) would make the
    digest depend on *usage history* instead of state.
    """
    explicit = getattr(type(value), "_canonical_state_slots", None)
    if explicit is not None:
        return {name: getattr(value, name) for name in explicit}
    attrs: dict[str, Any] = {}
    found = False
    if hasattr(value, "__dict__"):
        found = True
        attrs.update(
            (name, attr)
            for name, attr in vars(value).items()
            if name not in _CONTRACT_SKIP_ATTRS
        )
    for klass in type(value).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            found = True
            if hasattr(value, slot):
                attrs[slot] = getattr(value, slot)
    return attrs if found else None


def digest_reference(value: Any) -> bytes:
    """SHA-256 over :func:`encode_reference` of one value."""
    hasher = hashlib.sha256()
    encode_reference(value, hasher)
    return hasher.digest()
