"""The canonical encoder against the encoder it replaced, byte for byte.

``_encode_canonical`` lays each object out once per class and attribute
set and dispatches on exact types first; ``tests/state_oracles.py``'s
:func:`encode_reference` is the encoder before that, which built, digested
and sorted every object's attribute dict on every call.  Every value must
digest the same under both, or fail the same way at the depth limit.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.chain.state as chain_state
from repro.chain.state import (
    MemoryStateStore,
    _JournaledDict,
    _JournaledList,
    _JournaledSet,
    canonical_state_digest,
)
from repro.chain.transaction import Receipt
from repro.crypto.bn254 import G1Point, G2Point
from state_oracles import digest_reference


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Phase(enum.Enum):
    OPEN = "open"
    SHUT = ("shut", 2)


class Name(str):
    pass


class Count(int):
    pass


@dataclass(frozen=True)
class Pair:
    left: object
    right: object


@dataclass
class Box:
    item: object
    note: str = "box"


class Slotted:
    __slots__ = ("a", "b")


class SlottedWithDict(Slotted):
    """Slots from its base, and a ``__dict__`` of its own."""


class Bag:
    """Attributes set in whatever order and number a case asks for."""


STORE = MemoryStateStore()
POINTS = [G1Point.generator() * 5, G1Point.generator() * 7, G2Point.generator() * 3]
POINTS[1].to_affine()  # one G1 point carries its affine memo, one does not
POINTS[2].to_affine()

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf]),
)
hashables = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(list(Level) + list(Phase)),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.text(max_size=8).map(Name),
    st.integers().map(Count),
    st.tuples(st.integers(), st.text(max_size=4)),
    st.frozensets(st.integers(), max_size=3),
)
scalars = st.one_of(
    hashables, floats, st.binary(max_size=8).map(bytearray), st.sampled_from(POINTS)
)
keys = st.one_of(
    st.integers(), st.text(max_size=6), st.binary(max_size=6),
    st.tuples(st.integers(), st.text(max_size=3)), st.frozensets(st.integers(), max_size=2),
)
attr_names = st.sampled_from(["a", "b", "c", "z", "chain", "_memo"])


def _slotted(kind, a, b, extra):
    value = kind()
    if a is not None:
        value.a = a
    if b is not None:
        value.b = b
    for name, item in extra.items() if kind is SlottedWithDict else ():
        setattr(value, name, item)
    return value


def _bag(attrs):
    value = Bag()
    for name, item in attrs:  # insertion order varies from case to case
        setattr(value, name, item)
    return value


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.frozensets(hashables, max_size=4),
        st.sets(hashables, max_size=4),
        st.lists(children, max_size=3).map(lambda items: _JournaledList(STORE, ("0x1", "l"), items)),
        st.dictionaries(keys, children, max_size=3).map(
            lambda items: _JournaledDict(STORE, ("0x1", "d"), items)
        ),
        st.sets(hashables, max_size=3).map(lambda items: _JournaledSet(STORE, ("0x1", "s"), items)),
        st.builds(Pair, children, children),
        st.builds(Box, children),
        st.builds(Box, children, st.text(max_size=4)),
        st.builds(
            _slotted, st.sampled_from([Slotted, SlottedWithDict]),
            st.none() | children, st.none() | children,
            st.dictionaries(st.sampled_from(["c", "chain"]), children, max_size=2),
        ),
        st.lists(st.tuples(attr_names, children), max_size=5).map(_bag),
    )


values = st.recursive(scalars, _containers, max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(values)
def test_every_value_digests_as_the_reference_encoder_did(value):
    assert canonical_state_digest(value) == digest_reference(value)


def _outcome(digest, value):
    try:
        return digest(value).hex()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("wrap", [
    lambda inner: [inner],
    lambda inner: {"k": inner},
    lambda inner: Box(inner),
    lambda inner: Pair(inner, None),
], ids=["list", "dict", "object", "frozen"])
@pytest.mark.parametrize("levels", [31, 32, 33, 63, 64, 65])
@pytest.mark.parametrize("leaf", [1, Bag()], ids=["int", "empty-object"])
def test_the_depth_limit_falls_where_it_fell(wrap, levels, leaf):
    value = leaf
    for _ in range(levels):
        value = wrap(value)
    assert _outcome(canonical_state_digest, value) == _outcome(digest_reference, value)


def test_a_class_is_laid_out_once_not_once_per_object(monkeypatch):
    """100 receipts digest each attribute name once: the layout is per
    class and attribute set, not per object."""
    names = set(vars(Receipt(tx_hash="0x", success=True, gas_used=0)))
    counts: Counter = Counter()
    digest = chain_state.canonical_state_digest

    def counting(value):
        if isinstance(value, str) and value in names:
            counts[value] += 1
        return digest(value)

    monkeypatch.setattr(chain_state, "_LAYOUTS", {}, raising=False)
    monkeypatch.setattr(chain_state, "canonical_state_digest", counting)
    receipts = [
        Receipt(tx_hash=f"0x{n:x}", success=n % 2 == 0, gas_used=n, return_value=n)
        for n in range(100)
    ]
    hasher = chain_state.hashlib.sha256()
    chain_state._encode_canonical(receipts, hasher)
    assert counts == Counter(dict.fromkeys(names, 1))
    assert hasher.digest() == digest_reference(receipts)
