"""Pluggable chain state persistence: where a lane's world lives.

Chain *state* (accounts, nonces, contract storage, blocks, receipts,
events, scheduled calls, the clock), apart from the chain *behaviour* of
:class:`~repro.chain.blockchain.Blockchain`.  Two backends:
:class:`MemoryStateStore` keeps it in process memory;
:class:`WalStateStore` adds an append-only write-ahead log plus snapshots,
one record per committed mutation holding its write-set, and reopening
replays ``snapshot + WAL tail`` **bit-identically** (checked by
:meth:`StateStore.state_hash`).  Every mutation runs in one
:meth:`StateStore.scope`, which commits its record or, if the body or the
log append raises, rolls the whole scope back unlogged.

One journal records every write a scope makes: to the keyed maps and the
lists of the store (blocks, events), to the attributes of the owners in
them (a contract by address, a block by number) and to the entries of
their lists, dicts and sets; a savepoint copies the counters and the
clock.  A revert (:meth:`StateStore.rollback`) undoes it all, and a WAL
record is read off it (:meth:`StateStore.delta`).  Contract storage obeys
one rule, as an EVM storage slot does: an attribute holds an immutable
value, or a list, dict or set of immutable values (a round is rewritten by
``dataclasses.replace``); a write that breaks it raises where it happens.

``state_hash()`` digests a deterministic recursive encoding of the whole
logical state — *not* pickles — so live and replayed stores compare across
processes; sealed blocks and events enter as running hash chains.  The one
encoder, :func:`_encode_canonical`, lays each class out once per attribute
set (:func:`_layout`).  A reopened store folds both chains from scratch:
no digest or cursor is read off disk.
"""

from __future__ import annotations

import enum
import hashlib
import operator
import os
import pickle
import struct
from collections.abc import MutableMapping
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Any, Callable

from .. import durable
from ..durable import WalCorruption

__all__ = [
    "MemoryStateStore",
    "StateStore",
    "WalCorruption",
    "WalStateStore",
    "canonical_state_digest",
]

#: Attributes never persisted or hashed on a contract: the chain
#: back-reference would drag the whole world into every record.
_CONTRACT_SKIP_ATTRS = frozenset({"chain"})

#: ... and outside the journal, with the events of the running call
#: (empty at rest).
_TRANSIENT_ATTRS = _CONTRACT_SKIP_ATTRS | {"_pending_events"}


# --------------------------------------------------------------------------- #
# Canonical state encoding                                                    #
# --------------------------------------------------------------------------- #


_pack_len = struct.Struct(">I").pack

#: What the encoding tags by kind; an instance of none of them is an object.
_TAGGED = (int, float, str, bytes, bytearray, enum.Enum, list, tuple, set, frozenset, dict)


def _encode_canonical(value: Any, hasher, depth: int = 0) -> None:
    """Feed a deterministic, type-tagged encoding of ``value`` into ``hasher``.

    Dicts are encoded sorted by their keys' encodings, objects as
    ``module.qualname`` plus their sorted attribute dict (laid out once per
    class and attribute set: :func:`_layout`), floats via ``repr`` (exact
    round-trip), so the digest is a pure function of the logical state —
    independent of dict insertion order, pickle protocol or process
    identity.  The common exact types are dispatched first; subclasses,
    enums, sets and objects take the ``isinstance`` chain below them.
    """
    if depth > 64:
        raise ValueError("state encoding recursion too deep (cycle?)")
    kind = type(value)
    if kind is str:
        encoded = value.encode("utf-8")
        hasher.update(b"s" + _pack_len(len(encoded)) + encoded)
    elif kind is int:
        encoded = str(value).encode()
        hasher.update(b"i" + _pack_len(len(encoded)) + encoded)
    elif value is None:
        hasher.update(b"N")
    elif kind is bool:
        hasher.update(b"b1" if value else b"b0")
    elif kind is list or kind is tuple or kind is _JournaledList:
        hasher.update(b"l" + _pack_len(len(value)))
        for item in value:
            _encode_canonical(item, hasher, depth + 1)
    elif kind is dict or kind is _JournaledDict:
        entries = sorted((_digest(key, depth + 1), key, val) for key, val in value.items())
        hasher.update(b"d" + _pack_len(len(entries)))
        for key_digest, _, val in entries:
            hasher.update(key_digest)
            _encode_canonical(val, hasher, depth + 1)
    elif kind is bytes:
        hasher.update(b"y" + _pack_len(len(value)) + value)
    elif kind is float:
        encoded = repr(value).encode()
        hasher.update(b"f" + _pack_len(len(encoded)) + encoded)
    elif not isinstance(value, _TAGGED):
        # An object is ``o``, its qualname (one level down) and its
        # attribute dict (one level down), whose values sit two levels down.
        prefix, entries, state = _layout(value)
        if depth >= 64:
            raise ValueError("state encoding recursion too deep (cycle?)")
        hasher.update(prefix)
        for name_digest, name, held in entries:
            hasher.update(name_digest)
            _encode_canonical(state[name] if held else getattr(value, name), hasher, depth + 2)
    elif isinstance(value, int):
        encoded = str(value).encode()
        hasher.update(b"i" + _pack_len(len(encoded)) + encoded)
    elif isinstance(value, float):
        encoded = repr(value).encode()
        hasher.update(b"f" + _pack_len(len(encoded)) + encoded)
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        hasher.update(b"s" + _pack_len(len(encoded)) + encoded)
    elif isinstance(value, (bytes, bytearray)):
        hasher.update(b"y" + _pack_len(len(value)) + bytes(value))
    elif isinstance(value, enum.Enum):
        _encode_canonical(f"{kind.__module__}.{kind.__qualname__}", hasher, depth + 1)
        _encode_canonical(value.value, hasher, depth + 1)
    elif isinstance(value, (list, tuple)):
        hasher.update(b"l" + _pack_len(len(value)))
        for item in value:
            _encode_canonical(item, hasher, depth + 1)
    elif isinstance(value, (set, frozenset)):
        digests = sorted(_digest(item, depth + 1) for item in value)
        hasher.update(b"e" + _pack_len(len(digests)))
        for digest in digests:
            hasher.update(digest)
    else:  # a dict subclass
        entries = sorted((_digest(key, depth + 1), key, val) for key, val in value.items())
        hasher.update(b"d" + _pack_len(len(entries)))
        for key_digest, _, val in entries:
            hasher.update(key_digest)
            _encode_canonical(val, hasher, depth + 1)


#: Per class: ``(its _canonical_state_slots or None, the __slots__ of its
#: MRO, whether it may hold state)``; per ``(class, __dict__ names, slots
#: set)`` (or ``(class,)`` given ``_canonical_state_slots``): the layout its
#: objects encode with.  See :func:`_layout`.
_LAYOUTS: dict = {}


def _layout(value: Any) -> tuple[bytes, list, dict | None]:
    """How ``value`` encodes as an object, worked out once per class and
    attribute set: the bytes that open it (``o``, its tagged qualname, ``d``
    and its attribute count), and ``(name digest, name, in __dict__)`` per
    attribute in the order the encoding sorts them; then its ``__dict__``.

    The attributes are the ``__dict__`` entries (but ``chain``) and the
    ``__slots__`` that are set, unless the class publishes
    ``_canonical_state_slots`` naming exactly the attributes that define
    its logical state: anything else (memoized derived values like a curve
    point's cached affine form) would make the digest depend on *usage
    history* instead of state.
    """
    kind = type(value)
    plan = _LAYOUTS.get(kind)
    if plan is None:
        slots = tuple(slot for klass in kind.__mro__ for slot in getattr(klass, "__slots__", ()))
        explicit = getattr(kind, "_canonical_state_slots", None)
        plan = _LAYOUTS[kind] = (explicit, slots, bool(slots) or hasattr(value, "__dict__"))
    explicit, slots, found = plan
    if explicit is not None:
        state, key = None, (kind,)  # the names are the class's
    else:
        state = getattr(value, "__dict__", None)
        key = (kind, tuple(state or ()), tuple(slot for slot in slots if hasattr(value, slot)))
    layout = _LAYOUTS.get(key)
    if layout is None:
        if explicit is not None:
            held = dict.fromkeys(explicit, False)
        elif found:
            held = {name: True for name in key[1] if name not in _CONTRACT_SKIP_ATTRS}
            held.update(dict.fromkeys(key[2], False))
        else:
            raise TypeError(f"cannot canonically encode {kind!r}")
        qualname = f"{kind.__module__}.{kind.__qualname__}".encode()
        prefix = b"os" + _pack_len(len(qualname)) + qualname + b"d" + _pack_len(len(held))
        entries = sorted((canonical_state_digest(name), name, flag) for name, flag in held.items())
        layout = _LAYOUTS[key] = (prefix, entries)
    return (*layout, state)


def canonical_state_digest(value: Any) -> bytes:
    """SHA-256 over the canonical encoding of one value."""
    return _digest(value, 0)


def _digest(value: Any, depth: int) -> bytes:
    """:func:`canonical_state_digest` of a set member or dict key met at
    ``depth``: the depth carries on, so a cycle through one is caught."""
    hasher = hashlib.sha256()
    _encode_canonical(value, hasher, depth)
    return hasher.digest()


class _HashChain:
    """``(count, d)`` over an append-only list: ``d_0`` is 32 zero bytes and
    ``d_i = sha256(d_{i-1} || canonical_state_digest(item_i))``.  The cursor
    (list, count, last item folded, digest) starts over when the list is
    replaced, is shorter than the count or no longer holds that item there."""

    def __init__(self) -> None:
        self.items, self.count, self.last, self.digest = None, 0, None, bytes(32)

    def fold(self, items: list, upto: int) -> tuple[int, bytes]:
        """``(upto, d_upto)`` over ``items[:upto]``, folding only what is new."""
        count, digest = self.count, self.digest
        stale = items is not self.items or upto < count
        if stale or (count and items[count - 1] is not self.last):
            count, digest = 0, bytes(32)
        for item in items[count:upto]:
            digest = hashlib.sha256(digest + canonical_state_digest(item)).digest()
        self.items, self.count, self.digest = items, upto, digest
        self.last = items[upto - 1] if upto else None
        return upto, digest


# --------------------------------------------------------------------------- #
# The journal                                                                 #
# --------------------------------------------------------------------------- #


#: Journal marker for "nothing was there".
_MISSING = object()

#: Types whose values never change once built.
_SCALAR_TYPES = frozenset({type(None), bool, int, float, complex, str, bytes})


def _immutable(value: Any) -> bool:
    """Whether ``value`` can never change once built: a scalar, an enum
    member, a tuple or frozenset of such values, a frozen dataclass of them,
    or an instance of a class marked ``_immutable_value = True`` (curve and
    field elements: only a memo the state digest skips is written later)."""
    kind = type(value)
    if kind in _SCALAR_TYPES or getattr(kind, "_immutable_value", False):
        return True
    if kind is tuple or kind is frozenset:
        return all(map(_immutable, value))
    if isinstance(value, enum.Enum):
        return True
    params = getattr(kind, "__dataclass_params__", None)
    if params is not None and params.frozen:
        _, entries, state = _layout(value)
        return all(
            _immutable(state[name] if held else getattr(value, name)) for _, name, held in entries
        )
    return False


def _entry(value: Any) -> Any:
    """``value``, if contract storage may hold it as one entry: an immutable
    value.  Anything else could change behind the journal's back."""
    if not _immutable(value):
        raise TypeError(
            f"contract storage holds immutable values, not a {type(value).__name__}"
        )
    return value


def _storable(value: Any) -> Any:
    """``value``, if a contract attribute may hold it: an immutable value, or
    a list, dict or set of immutable values (the storage rule)."""
    if type(value) not in _CONTAINERS:
        return _entry(value)
    for item in (*value, *value.values()) if isinstance(value, dict) else value:
        _entry(item)
    return value


def _peek(target: Any, key: Any) -> Any:
    """What ``target`` holds at ``key`` (a list's index, a set's member), or
    ``_MISSING``."""
    kind = type(target)
    if kind is _JournaledList:
        return list.__getitem__(target, key) if key < len(target) else _MISSING
    if kind is _JournaledSet:
        return key if key in target else _MISSING
    return dict.get(target, key, _MISSING)


def _poke(target: Any, key: Any, value: Any) -> None:
    """Make ``target`` hold ``value`` at ``key`` (nothing, for ``_MISSING``)
    past the journal: how a rollback restores and a replay applies."""
    kind = type(target)
    if kind is _JournaledList:
        if value is _MISSING:
            list.__delitem__(target, slice(key, None))
        elif key < len(target):
            list.__setitem__(target, key, value)
        else:
            list.append(target, value)
    elif kind is _JournaledSet:
        (set.discard if value is _MISSING else set.add)(target, key)
    elif value is _MISSING:
        dict.pop(target, key, None)
    else:
        dict.__setitem__(target, key, value)


class _Journaled:
    """A container whose writes inside an open scope are journaled: every
    mutator appends ``((name, key), container, previous value)`` to the
    store's journal, at a cost proportional to what a scope wrote, not to
    how much state exists.  Reads are the builtin's.  Pickles as the plain
    builtin, with no back-reference to its store."""

    __slots__ = ()

    def __init__(self, store: "StateStore", name: Any, items=(), same=operator.is_) -> None:
        self._base.__init__(self, items)
        self._store = store
        self.name = name
        #: Whether two values count as unchanged (see ``delta``).
        self.same = same

    def __reduce__(self):
        return self._base, (self._base(self),)

    def _note(self, key) -> None:
        store = self._store
        if store._tx_depth:
            # Keyed by (name, key) up front so that ``delta`` can pick each
            # key's first entry with one C-level dict build.
            store._journal.append(((self.name, key), self, _peek(self, key)))

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"journaled {self._base.__name__}s {self._writes}")


class _JournaledDict(_Journaled, dict):
    """A keyed map of the store, or a contract's dict attribute (named
    ``(address, attribute)``: its keys and values are immutable)."""

    __slots__ = ("_store", "name", "same")
    _base = dict

    def __setitem__(self, key, value) -> None:
        if type(self.name) is tuple:  # a contract's: the storage rule
            key, value = _entry(key), _entry(value)
        store = self._store
        if store._tx_depth:  # ``_note``, inlined: the hottest write there is
            store._journal.append(((self.name, key), self, dict.get(self, key, _MISSING)))
        dict.__setitem__(self, key, value)

    def __delitem__(self, key) -> None:
        self._note(key)
        dict.__delitem__(self, key)

    def pop(self, key, *default):
        self._note(key)
        return dict.pop(self, key, *default)

    # The builtin's other mutators write without calling the three above;
    # the abstract mixins are the same operations spelled through them.
    popitem = MutableMapping.popitem
    clear = MutableMapping.clear
    update = MutableMapping.update
    setdefault = MutableMapping.setdefault

    def __ior__(self, other):
        self.update(other)
        return self


class _JournaledList(_Journaled, list):
    """A list of the store, a block's receipts or a contract's list,
    journaled as a map from index to entry."""

    __slots__ = ("_store", "name", "same")
    _base = list
    _writes = "are appended to, written in place or cut back at the tail, one entry at a time"

    def __setitem__(self, index, value) -> None:
        if isinstance(index, slice):
            self._refuse()
        if type(self.name) is tuple and type(self.name[0]) is str:  # a contract's
            value = _entry(value)
        index = range(len(self))[index]
        self._note(index)
        list.__setitem__(self, index, value)

    def append(self, value) -> None:
        if type(self.name) is tuple and type(self.name[0]) is str:  # a contract's
            value = _entry(value)
        store = self._store
        if store._tx_depth:  # ``_note``, knowing that nothing is there yet
            store._journal.append(((self.name, len(self)), self, _MISSING))
        list.append(self, value)

    def extend(self, values) -> None:
        for value in values:
            self.append(value)

    def __delitem__(self, index) -> None:  # ``del items[start:]`` alone
        if not isinstance(index, slice) or index.stop is not None or index.step is not None:
            self._refuse()
        for key in reversed(range(len(self))[index]):  # so a rollback re-appends in order
            self._note(key)
        list.__delitem__(self, index)

    def clear(self) -> None:
        del self[:]

    __iadd__ = __imul__ = insert = pop = remove = reverse = sort = _Journaled._refuse


class _JournaledSet(_Journaled, set):
    """A contract's set attribute, journaled as a map from each member to
    itself: immutable members, added one at a time."""

    __slots__ = ("_store", "name", "same")
    _base = set
    _writes = "grow one member at a time"

    def add(self, member) -> None:
        member = _entry(member)
        self._note(member)
        set.add(self, member)

    discard = pop = remove = clear = update = difference_update = _Journaled._refuse
    intersection_update = symmetric_difference_update = _Journaled._refuse
    __ior__ = __iand__ = __isub__ = __ixor__ = _Journaled._refuse


#: Journal targets read as plain dicts (an owner's attributes, a keyed map).
_DICTS = (dict, _JournaledDict)

#: The journaled container a contract attribute's list, dict or set becomes.
_CONTAINERS = {
    list: _JournaledList, _JournaledList: _JournaledList,
    dict: _JournaledDict, _JournaledDict: _JournaledDict,
    set: _JournaledSet, _JournaledSet: _JournaledSet,
}

#: The counters every record carries whole (absolute values, not deltas),
#: and a savepoint copies.
_RECORD_SCALARS = (
    "fee_sink", "account_seq", "schedule_seq", "tx_seq",
    "base_fee_wei", "burned", "pool_seq", "time",
)
_scalars = operator.attrgetter(*_RECORD_SCALARS)


# --------------------------------------------------------------------------- #
# The store interface (and its in-memory reference backend)                   #
# --------------------------------------------------------------------------- #


class StateStore:
    """All mutable chain state, behind a commit hook the backends can log.

    The base class *is* the in-memory representation; subclasses override
    ``_commit_hook`` to add durability.  Every mutating entry point of the
    owning :class:`~repro.chain.blockchain.Blockchain` and its
    :class:`~repro.chain.mempool.Mempool` runs inside one :meth:`scope`,
    which brackets it with ``begin()`` / ``commit(kind, ...)`` and applies
    the one fault rule; reads go straight at the attributes.
    """

    #: The keyed maps and lists: journaled while a scope is open, whole in a snapshot.
    _KEYED_MAPS = (
        "balances", "nonces", "signer_keys", "mined_nonces", "pool", "calls", "contracts",
    )
    _LISTS = ("blocks", "events")

    def __init__(self) -> None:
        self.time: float = 0.0
        self.blocks: list = _JournaledList(self, "blocks")  # by number (``add_block``)
        self.balances: dict[str, int] = _JournaledDict(self, "balances", same=operator.eq)
        # Contracts by address; each one's storage is journaled too (``install``).
        self.contracts: dict[str, Any] = _JournaledDict(self, "contracts")
        # The schedule: pending calls by sequence (see ``scheduled``).
        self.calls: dict[int, Any] = _JournaledDict(self, "calls")
        self.schedule_seq: int = 0
        self.events: list = _JournaledList(self, "events")
        self.fee_sink: int = 0
        self.account_seq: int = 0
        self.tx_seq: int = 0
        self.signer_keys: dict[str, bytes] = _JournaledDict(self, "signer_keys", same=operator.eq)
        self.nonces: dict[str, int] = _JournaledDict(self, "nonces", same=operator.eq)
        # Fee-market / mempool state (zero until a Mempool is attached):
        # the pool is admission-queue state, fingerprinted by ``pool_hash``.
        self.base_fee_wei: int = 0
        self.burned: int = 0
        # (sender, nonce) -> PendingEntry (frozen: identity detects a change).
        self.pool: dict = _JournaledDict(self, "pool")
        self.pool_seq: int = 0
        self.mined_nonces: dict[str, int] = _JournaledDict(self, "mined_nonces", same=operator.eq)
        self._tx_depth = 0  # the open scope's depth and journal
        self._journal: list[tuple[tuple[Any, Any], Any, Any]] = []
        self._sealed_chain, self._events_chain = _HashChain(), _HashChain()

    @property
    def scheduled(self) -> list:
        """The pending calls in firing order: by due time, then sequence."""
        return sorted(self.calls.values(), key=operator.attrgetter("due_time", "sequence"))

    # -- owners: contracts and blocks ----------------------------------------

    def install(self, contract: Any) -> None:
        """Deploy ``contract`` at its ``address``: its attributes must obey
        the storage rule (:func:`_storable`), and from here on
        :meth:`write_storage` takes their writes."""
        self._adopt(contract.address, contract, _storable)
        self.contracts[contract.address] = contract

    def add_block(self, block: Any) -> None:
        """Append ``block`` (see :meth:`write_block`); the clock moves to its timestamp."""
        self._adopt(block.number, block)
        self.blocks.append(block)
        self.time = block.timestamp

    def _adopt(self, key: Any, owner: Any, check: Callable = lambda value: value) -> None:
        state = vars(owner)
        for name, value in state.items():
            if name not in _TRANSIENT_ATTRS:
                state[name] = self._wrap(key, name, check(value))

    def _wrap(self, key: Any, name: str, value: Any) -> Any:
        """``value``, or its journaled copy if it is a list, dict or set."""
        container = _CONTAINERS.get(type(value))
        return value if container is None else container(self, (key, name), value)

    def _owner(self, key: Any) -> Any:
        """The contract at an address, or the block with a number."""
        return self.contracts[key] if type(key) is str else self.blocks[key]

    def write_storage(self, contract: Any, name: str, value: Any = _MISSING) -> None:
        """Set an installed contract's attribute, or delete it given no
        value.  The value must obey the storage rule, and inside a scope the
        write is journaled (``(address, attribute)``, by identity)."""
        state = vars(contract)
        if name not in _TRANSIENT_ATTRS:
            if value is not _MISSING:
                value = self._wrap(contract.address, name, _storable(value))
            elif name not in state:
                raise AttributeError(name)
            if self._tx_depth:
                self._journal.append(((contract.address, name), state, _peek(state, name)))
        _poke(state, name, value)

    def write_block(self, block: Any, name: str, value: Any) -> None:
        """Set an added block's field, journaled (``(number, field)``) in a scope."""
        state = vars(block)
        if self._tx_depth:
            self._journal.append(((block.number, name), state, state[name]))
        state[name] = value

    # -- commit protocol ----------------------------------------------------

    def scope(self, kind: str) -> "_Scope":
        """A mutation scope under the one fault rule (:class:`_Scope`)."""
        return _Scope(self, kind)

    def begin(self) -> None:
        """Open a mutation scope (nestable; only the outermost commits)."""
        self._tx_depth += 1
        if self._tx_depth == 1:
            self._journal.clear()

    def commit(self, kind: str, **payload: Any) -> None:
        """Close the innermost scope; the outermost logs first (a raise leaves it open)."""
        assert self._tx_depth > 0, "commit without begin"
        if self._tx_depth == 1:
            self._commit_hook(kind, payload)
            self._journal.clear()
        self._tx_depth -= 1

    def savepoint(self) -> tuple:
        """A mark in the open scope that :meth:`rollback` returns to."""
        return len(self._journal), _scalars(self)

    def rollback(self, mark: tuple) -> None:
        """Undo every write made since ``savepoint()`` gave ``mark``: keyed
        maps and lists, owners' attributes and containers, and the counters."""
        length, scalars = mark
        journal = self._journal
        while len(journal) > length:
            (_, key), target, previous = journal.pop()
            _poke(target, key, previous)
        for name, value in zip(_RECORD_SCALARS, scalars):
            setattr(self, name, value)

    def delta(self) -> tuple[dict[Any, dict], dict[Any, list]]:
        """What the open scope changed, read off its journal: ``{name: {key:
        value now}}`` for keys now holding something else than before, and
        ``{name: [keys removed]}``.  A name is a keyed map's or list's, an
        owner's (its attributes) or ``(owner, attribute)``.  Order is
        contract state too: keys a storage dict gained (back) in the scope
        sit at its end, so they come in its order, removed first if they
        were there before."""
        journal, now, gone, appended = self._journal, {}, {}, {}
        # Read backwards, so that each key keeps its *first* entry: the one
        # holding the value it had before the scope opened.
        first = dict(zip(map(operator.itemgetter(0), reversed(journal)), reversed(journal)))
        inserted = None  # keys that were missing at some point, once needed
        for (name, key), target, previous in first.values():
            kind = type(target)
            value = dict.get(target, key, _MISSING) if kind in _DICTS else _peek(target, key)
            if type(name) is tuple:
                if vars(self._owner(name[0])).get(name[1]) is not target:
                    continue  # a container no attribute holds any more
                if kind is _JournaledDict and value is not _MISSING:
                    if inserted is None:
                        inserted = {entry[0] for entry in journal if entry[2] is _MISSING}
                    if (name, key) in inserted:
                        if previous is not _MISSING:
                            gone.setdefault(name, []).append(key)
                        appended.setdefault(name, [target, 0])[1] += 1
                        continue
            if value is _MISSING:
                if previous is not _MISSING:
                    gone.setdefault(name, []).append(key)
            elif value is not previous and (kind is dict or not target.same(value, previous)):
                now.setdefault(name, {})[key] = value
        for name, (target, count) in appended.items():
            values = now.setdefault(name, {})
            for key in reversed(list(islice(reversed(target), count))):
                values[key] = dict.__getitem__(target, key)
        return now, gone

    def _commit_hook(self, kind: str, payload: dict) -> None:  # pragma: no cover - trivial
        pass

    # -- durability ----------------------------------------------------------

    def snapshot(self) -> None:
        """Persist a full-state snapshot (no-op for memory stores)."""

    def close(self) -> None:
        """Release any backing resources."""

    # -- the canonical fingerprint -------------------------------------------

    def state_hash(self) -> str:
        """Hex digest of the entire logical chain state (``chain-state-v2``).

        Two stores (live and WAL-replayed, or two fabric lanes fed the
        same traffic) agree on this iff they agree on every balance,
        nonce, signer key, scheduled call, block, receipt, event and
        contract attribute.  Sealed blocks (all but the last) and events
        never change once appended, so each enters as a :class:`_HashChain`
        and a call costs what was appended since the previous one, not the
        length of the history.  The pending block is encoded whole.
        """
        hasher = hashlib.sha256(b"chain-state-v2")
        sealed = max(len(self.blocks) - 1, 0)
        _encode_canonical(
            {
                "time": self.time,
                "fee_sink": self.fee_sink,
                "base_fee_wei": self.base_fee_wei,
                "burned": self.burned,
                "account_seq": self.account_seq,
                "tx_seq": self.tx_seq,
                "schedule_seq": self.schedule_seq,
                "balances": self.balances,
                "nonces": self.nonces,
                "signer_keys": self.signer_keys,
                "scheduled": self.scheduled,
                "sealed_blocks": self._sealed_chain.fold(self.blocks, sealed),
                "pending_block": self.blocks[sealed] if self.blocks else None,
                "events": self._events_chain.fold(self.events, len(self.events)),
            },
            hasher,
        )
        for address in sorted(self.contracts):
            hasher.update(address.encode())
            _encode_canonical(self.contracts[address], hasher)
        return hasher.hexdigest()

    def pool_hash(self) -> str:
        """Canonical fingerprint of the pending mempool (hex digest).

        Kept separate from :meth:`state_hash` on purpose: the pool is
        admission-queue state, not ledger state, so a chain fed through
        the mempool and one fed through direct ``transact`` can agree on
        ``state_hash`` once the pool drains.  Crash-recovery tests compare
        this digest to prove the pool itself replays bit-identically.
        """
        hasher = hashlib.sha256(b"chain-pool-v1")
        _encode_canonical(
            {
                "pool": {f"{s}:{n}": entry for (s, n), entry in self.pool.items()},
                "pool_seq": self.pool_seq,
                "mined_nonces": self.mined_nonces,
                "base_fee_wei": self.base_fee_wei,
                "burned": self.burned,
            },
            hasher,
        )
        return hasher.hexdigest()


class _Scope:
    """One :meth:`StateStore.scope`, the only caller of ``begin`` / ``commit``.

    A clean exit commits one ``kind`` record (a nested scope folds into the
    outermost one's).  The fault rule: a scope whose body or log append
    raises is rolled back whole (journal and savepoint) and logs nothing.
    """

    __slots__ = ("store", "kind", "mark")

    def __init__(self, store: StateStore, kind: str) -> None:
        self.store, self.kind = store, kind

    def __enter__(self) -> None:
        self.store.begin()
        self.mark = self.store.savepoint()

    def __exit__(self, exc_type, exc, traceback) -> None:
        store, committed = self.store, False
        try:
            if exc is None:
                store.commit(self.kind)
                committed = True
        finally:
            if not committed:
                store.rollback(self.mark)
                store._tx_depth -= 1


class MemoryStateStore(StateStore):
    """The original behaviour: everything in process memory, nothing on disk."""


# --------------------------------------------------------------------------- #
# WAL backend                                                                 #
# --------------------------------------------------------------------------- #


@dataclass
class _WalRecord:
    """A scope's write-set (:meth:`StateStore.delta`) and the counters, or a
    snapshot's every map and list whole; a missing field is an error."""

    kind: str                     # the scope's: "tx", "block", "account", ... | "snapshot"
    now: dict[Any, dict]          # values the scope left, by map / list / owner / container
    gone: dict[Any, list]         # ... and the keys it removed
    fee_sink: int
    account_seq: int
    schedule_seq: int
    tx_seq: int
    base_fee_wei: int
    burned: int
    pool_seq: int
    time: float
    payload: dict                 # a snapshot's ``wal_seq``


def _fill(target: Any, values: dict) -> None:
    """Write a record's entries into a map, a set or a list (in index order)."""
    kind = type(target)
    if kind is _JournaledList:
        for key in sorted(values):
            _poke(target, key, values[key])
    else:
        (set.update if kind is _JournaledSet else dict.update)(target, values)


#: Seal of ``snapshot.pkl`` (see :mod:`repro.durable`).
_SNAPSHOT_MAGIC = b"CHAINSNP"


class WalStateStore(StateStore):
    """Append-only write-ahead log + snapshots under one directory.

    Layout (both in the :mod:`repro.durable` formats)::

        <dir>/snapshot.pkl   sealed full-state snapshot (optional)
        <dir>/wal.log        frame log, one pickled _WalRecord per frame

    ``WalStateStore(path)`` recovers whatever the directory holds: the
    snapshot (if any) is loaded, then every complete WAL frame numbered
    after it is applied in order.  A torn final frame (crash mid-append) is
    ignored, exactly like a database would; a complete frame or snapshot
    that fails its checksum, version or sequence raises
    :class:`WalCorruption`.  An append that raises is cut off the log; if
    the cut fails too, every later commit raises :class:`WalCorruption`.
    ``snapshot()`` folds the log into a fresh snapshot and truncates it.
    """

    _SNAPSHOT_NAME = "snapshot.pkl"
    _WAL_NAME = "wal.log"

    def __init__(self, directory: str | os.PathLike, fsync: bool = False):
        super().__init__()
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.replayed_records = 0
        #: Sequence number of the last frame written, replayed or folded.
        self._seq = 0
        self._torn: int | None = None  # where a failed append that stuck starts
        # Drop a torn tail frame (crash mid-append) before appending:
        # otherwise new records would land *behind* the garbage and be
        # unreachable to every future recovery.
        self._size = self._recover()  # the log's whole frames, in bytes
        self.truncate_wal(self.directory, self._size)
        self._wal = open(self.wal_path, "ab", buffering=0)  # no buffer holds a torn frame

    # -- commit hook ----------------------------------------------------------

    def _commit_hook(self, kind: str, payload: dict) -> None:
        if self._torn is not None:
            raise WalCorruption(self._torn, "a failed append could not be cut off the log")
        record = _WalRecord(kind, *self.delta(), *_scalars(self), payload)
        data = durable.frame(self._seq + 1, pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
        try:
            written = self._wal.write(data)
            while written < len(data):  # a short write: the rest, or the error that stopped it
                written += self._wal.write(data[written:])
            if self.fsync:
                os.fsync(self._wal.fileno())
        except BaseException:
            try:  # opened for append, so the next write lands at the cut
                self._wal.truncate(self._size)
            except BaseException:
                self._torn = self._size
            raise
        self._seq += 1
        self._size += len(data)

    # -- recovery -------------------------------------------------------------

    def _recover(self) -> int:
        """Load snapshot + log; returns the log's length up to its last whole frame."""
        snapshot_path = self.directory / self._SNAPSHOT_NAME
        if snapshot_path.exists():
            record = pickle.loads(durable.read_sealed(snapshot_path, _SNAPSHOT_MAGIC))
            # A delta names what its scope wrote; a snapshot holds it all.
            missing = sorted({*self._KEYED_MAPS, *self._LISTS} - record.now.keys())
            if missing:
                raise WalCorruption(0, f"snapshot lacks {missing}")
            self._apply(record)
            self._seq = record.payload["wal_seq"]
        valid = 0
        if self.wal_path.exists():
            log = self.wal_path.read_bytes()
            for sequence, payload, valid in durable.frames(log, after=self._seq):
                # A frame at or below the snapshot's sequence was folded
                # into it: the crash fell between publishing the snapshot
                # and cutting the log, and replaying it would double-apply.
                if sequence > self._seq:
                    self._apply(pickle.loads(payload))
                    self._seq = sequence
                    self.replayed_records += 1
        return valid

    def _target(self, name: Any) -> Any:
        """What a record's ``name`` writes: a map, list, owner or container."""
        if type(name) is tuple:
            return vars(self._owner(name[0]))[name[1]]
        owned = type(name) is int or name.startswith("0x")
        return vars(self._owner(name)) if owned else getattr(self, name)

    def _apply(self, record: _WalRecord) -> None:
        # Unjournaled: removals, maps and lists (new owners adopted), attributes, containers.
        for name, keys in record.gone.items():
            target = self._target(name)
            for key in keys:
                _poke(target, key, _MISSING)
        now, attributes, containers = record.now, [], []
        for name, values in now.items():
            if type(name) is tuple:
                containers.append(name)
            elif type(name) is int or name.startswith("0x"):
                attributes.append(name)
            else:
                for key, owner in values.items() if name in ("contracts", "blocks") else ():
                    self._adopt(key, owner)
                _fill(getattr(self, name), values)
        for name in attributes:
            state = vars(self._owner(name))
            for attr, value in now[name].items():
                state[attr] = self._wrap(name, attr, value)
        for name in containers:
            _fill(vars(self._owner(name[0]))[name[1]], now[name])
        # Every record carries every field (its writer sets them all, and
        # ``durable`` refuses frames and snapshots from other formats), so a
        # missing one is a damaged record: fail on it, never skip it.
        vars(self).update(zip(_RECORD_SCALARS, _scalars(record)))

    # -- snapshot / lifecycle --------------------------------------------------

    def snapshot(self) -> None:
        """Fold the log into a fresh snapshot and truncate the WAL."""
        now = {name: getattr(self, name) for name in self._KEYED_MAPS}
        now.update((name, dict(enumerate(getattr(self, name)))) for name in self._LISTS)
        # Each list ends where it ends here, whatever a store it lands on holds.
        gone = {name: [len(getattr(self, name))] for name in self._LISTS}
        record = _WalRecord("snapshot", now, gone, *_scalars(self), {"wal_seq": self._seq})
        durable.publish(
            self.directory / self._SNAPSHOT_NAME,
            _SNAPSHOT_MAGIC,
            pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL),
        )
        # Cut the log only after the snapshot is durable.  A crash in
        # between leaves frames the snapshot already holds; recovery skips
        # them by the ``wal_seq`` recorded above.
        self._wal.close()
        self._wal = open(self.wal_path, "ab", buffering=0)
        self._wal.truncate(0)
        self._torn, self._size = None, 0

    def close(self) -> None:
        self._wal.close()

    # -- log introspection (lifecycle checkpointing) -------------------------

    @property
    def wal_path(self) -> Path:
        return self.directory / self._WAL_NAME

    def wal_size(self) -> int:
        """Durable size of the log: a safe cut point for this store.

        The lifecycle engine records this at each epoch boundary and, on a
        crash-reopen, truncates the log back to it (every commit is one
        whole frame).  The log is fsynced first: a recorded cut point must
        never exceed what survives an OS crash.
        """
        if not self._wal.closed:
            os.fsync(self._wal.fileno())
        return self.wal_path.stat().st_size if self.wal_path.exists() else 0

    @staticmethod
    def truncate_wal(directory: str | os.PathLike, size: int) -> None:
        """Cut a (closed) store's log back to ``size`` bytes before reopening."""
        path = Path(directory) / WalStateStore._WAL_NAME
        if path.exists() and path.stat().st_size > size:
            with open(path, "r+b") as handle:
                handle.truncate(size)
