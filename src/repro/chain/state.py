"""Pluggable chain state persistence: where a lane's world lives.

Extracted from :class:`~repro.chain.blockchain.Blockchain` so that chain
*behaviour* (transaction execution, gas, scheduling) is separated from
chain *state* (accounts, nonces, contract storage, receipts, scheduled
calls, the clock).  Two backends:

* :class:`MemoryStateStore` — the original in-process dict store; state
  dies with the process.  Zero overhead, used by tests and benchmarks.
* :class:`WalStateStore` — a file-backed append-only write-ahead log plus
  snapshots.  Every committed mutation (account creation, contract
  deployment, transaction, block seal) appends one record holding its
  write-set: the keyed-map entries, events, scheduled calls and contract
  attributes it changed, measured against what the log already holds, so a
  record costs what its scope wrote, not how much history the chain keeps.
  Reopening the directory replays ``snapshot + WAL tail`` in order and
  reproduces the chain **bit-identically** (verified by
  :meth:`StateStore.state_hash`), including a crash between ``transact``
  and ``mine_block``.

The canonical ``state_hash()`` is computed over a deterministic recursive
encoding of the whole logical state (balances, nonces, signer keys,
scheduled calls, blocks, receipts, events, and every contract's attribute
dict) — *not* over pickles — so live and replayed stores can be compared
across processes.  Sealed blocks and events, which are append-only, enter
it as running hash chains, so a call never re-encodes the history.

Contract objects are Python instances; the store persists a new contract
as ``(class, attribute dict)`` with the ``chain`` back-reference stripped
(the owning :class:`~repro.chain.blockchain.Blockchain` rebinds it on
restore), and after that only the attributes, list entries and dict
entries that changed.  Contract storage that should stay cheap to log is
written by replacement, as an EVM storage slot is: a frozen record swapped
in with ``dataclasses.replace``, never edited in place.
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
from pathlib import Path
from typing import Any

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


# --------------------------------------------------------------------------- #
# Canonical state encoding                                                    #
# --------------------------------------------------------------------------- #


def _encode_canonical(value: Any, hasher, depth: int = 0) -> None:
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
        _encode_canonical(
            f"{type(value).__module__}.{type(value).__qualname__}", hasher, depth + 1
        )
        _encode_canonical(value.value, hasher, depth + 1)
    elif isinstance(value, (list, tuple)):
        hasher.update(b"l" + struct.pack(">I", len(value)))
        for item in value:
            _encode_canonical(item, hasher, depth + 1)
    elif isinstance(value, (set, frozenset)):
        digests = sorted(canonical_state_digest(item) for item in value)
        hasher.update(b"e" + struct.pack(">I", len(digests)))
        for digest in digests:
            hasher.update(digest)
    elif isinstance(value, dict):
        entries = sorted(
            (canonical_state_digest(key), key, val) for key, val in value.items()
        )
        hasher.update(b"d" + struct.pack(">I", len(entries)))
        for key_digest, _, val in entries:
            hasher.update(key_digest)
            _encode_canonical(val, hasher, depth + 1)
    else:
        attrs = _object_attrs(value)
        if attrs is None:
            raise TypeError(f"cannot canonically encode {type(value)!r}")
        hasher.update(b"o")
        _encode_canonical(
            f"{type(value).__module__}.{type(value).__qualname__}", hasher, depth + 1
        )
        _encode_canonical(attrs, hasher, depth + 1)


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


def canonical_state_digest(value: Any) -> bytes:
    """SHA-256 over the canonical encoding of one value."""
    hasher = hashlib.sha256()
    _encode_canonical(value, hasher)
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
# The store interface (and its in-memory reference backend)                   #
# --------------------------------------------------------------------------- #


#: Journal marker for "the key was absent".
_MISSING = object()


class _JournaledDict(dict):
    """One of the store's keyed maps: writes inside an open scope are journaled.

    Every mutator appends ``((map name, key), map, previous value)`` to the
    owning store's journal — the one record that reverts
    (:meth:`StateStore.rollback`) and WAL patches (:meth:`StateStore.delta`)
    are both derived from, at a cost proportional to what a scope wrote, not
    to how many accounts exist.  Reads are the builtin's.  Pickles as a
    plain dict, so nothing persisted ever carries a back-reference to its
    store.
    """

    __slots__ = ("_store", "name", "same")

    def __init__(self, store: "StateStore", name: str, same=operator.eq) -> None:
        self._store = store
        self.name = name
        #: Whether two values of this map count as unchanged (see ``delta``).
        self.same = same

    def __reduce__(self):
        return dict, (dict(self),)

    def _note(self, key) -> None:
        store = self._store
        if store._tx_depth:
            # Keyed by (name, key) up front so that ``delta`` can pick each
            # key's first entry with one C-level dict build.
            store._journal.append(
                ((self.name, key), self, dict.get(self, key, _MISSING))
            )

    def __setitem__(self, key, value) -> None:
        self._note(key)
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


class StateStore:
    """All mutable chain state, behind a commit hook the backends can log.

    The base class *is* the in-memory representation; subclasses override
    ``_commit_hook`` to add durability.  The owning
    :class:`~repro.chain.blockchain.Blockchain` brackets every mutating
    entry point (account creation, deploy, transact, block seal) with one
    ``begin()`` / ``commit(kind, ...)`` pair; reads go straight at the
    attributes.
    """

    #: The keyed maps whose writes are journaled while a scope is open.
    _KEYED_MAPS = ("balances", "nonces", "signer_keys", "mined_nonces", "pool")

    def __init__(self) -> None:
        self.time: float = 0.0
        self.blocks: list = []
        self.balances: dict[str, int] = _JournaledDict(self, "balances")
        self.contracts: dict[str, Any] = {}
        self.scheduled: list = []
        self.schedule_seq: int = 0
        self.events: list = []
        self.fee_sink: int = 0
        self.account_seq: int = 0
        self.tx_seq: int = 0
        self.signer_keys: dict[str, bytes] = _JournaledDict(self, "signer_keys")
        self.nonces: dict[str, int] = _JournaledDict(self, "nonces")
        # Fee-market / mempool state (zero until a Mempool is attached).
        # ``base_fee_wei`` and ``burned`` are ledger state (hashed); the
        # pending pool itself is admission-queue state, fingerprinted
        # separately by :meth:`pool_hash` so a drained pool-fed chain can
        # be compared hash-for-hash against a direct-transact chain.
        self.base_fee_wei: int = 0
        self.burned: int = 0
        # (sender, nonce) -> PendingEntry.  Entries are frozen, so identity
        # is an exact change detector (covers replace-by-fee rewrites).
        self.pool: dict = _JournaledDict(self, "pool", same=operator.is_)
        self.pool_seq: int = 0
        self.mined_nonces: dict[str, int] = _JournaledDict(self, "mined_nonces")
        # Commit bookkeeping: the open scope's write-set journal, the
        # contracts it touched and where its events start.
        self._tx_depth = 0
        self._journal: list[tuple[tuple[str, Any], _JournaledDict, Any]] = []
        self._touched: set[str] = set()
        self._events_mark = 0
        self._sealed_chain, self._events_chain = _HashChain(), _HashChain()

    # -- commit protocol ----------------------------------------------------

    def begin(self) -> None:
        """Open a mutation scope (nestable; only the outermost commits)."""
        self._tx_depth += 1
        if self._tx_depth == 1:
            self._touched = set()
            self._journal.clear()
            self._events_mark = len(self.events)

    def touch_contract(self, address: str) -> None:
        """Mark a contract as possibly mutated inside the open scope."""
        if self._tx_depth:
            self._touched.add(address)

    def commit(self, kind: str, **payload: Any) -> None:
        """Close the innermost scope; the outermost one logs a record."""
        assert self._tx_depth > 0, "commit without begin"
        self._tx_depth -= 1
        if self._tx_depth == 0:
            self._commit_hook(kind, payload, frozenset(self._touched))
            self._touched = set()
            self._journal.clear()

    def savepoint(self) -> int:
        """A mark in the open scope's journal that :meth:`rollback` returns to."""
        return len(self._journal)

    def rollback(self, mark: int) -> None:
        """Undo every keyed-map write made since ``savepoint()`` gave ``mark``."""
        journal = self._journal
        while len(journal) > mark:
            (_, key), target, previous = journal.pop()
            if previous is _MISSING:
                dict.pop(target, key, None)
            else:
                dict.__setitem__(target, key, previous)

    def delta(self) -> tuple[dict[str, dict], dict[str, list]]:
        """What the open scope did to the keyed maps, read off its journal:
        ``{map name: {key: value now}}`` for the keys it left holding something
        other than before it opened, and ``{map name: [keys it removed]}``."""
        now: dict[str, dict] = {}
        gone: dict[str, list] = {}
        # Read backwards, so that each key keeps its *first* entry: the one
        # holding the value it had before the scope opened.
        first = {entry[0]: entry for entry in reversed(self._journal)}
        for (name, key), target, previous in first.values():
            if key not in target:
                if previous is not _MISSING:
                    gone.setdefault(name, []).append(key)
            elif not target.same(target[key], previous):
                now.setdefault(name, {})[key] = target[key]
        return now, gone

    def _commit_hook(
        self, kind: str, payload: dict, touched: frozenset
    ) -> None:  # pragma: no cover - trivial
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
                "scheduled": list(self.scheduled),
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


class MemoryStateStore(StateStore):
    """The original behaviour: everything in process memory, nothing on disk."""


# --------------------------------------------------------------------------- #
# WAL backend                                                                 #
# --------------------------------------------------------------------------- #


def _contract_state(contract: Any) -> tuple[type, dict]:
    """(class, attribute dict) with the chain back-reference stripped."""
    state = {
        name: attr
        for name, attr in vars(contract).items()
        if name not in _CONTRACT_SKIP_ATTRS
    }
    return type(contract), state


def _restore_contract(cls: type, state: dict, existing: Any = None) -> Any:
    contract = existing if existing is not None else cls.__new__(cls)
    for stale in [k for k in vars(contract) if k not in _CONTRACT_SKIP_ATTRS]:
        delattr(contract, stale)
    contract.__dict__.update(state)
    contract.chain = None
    return contract


#: Types whose values never change once built.
_SCALAR_TYPES = frozenset({type(None), bool, int, float, complex, str, bytes})


def _immutable(value: Any) -> bool:
    """Whether ``value`` can never change once built, so that the log holding
    it once is enough: a scalar, an enum member, a tuple or frozenset of such
    values, a frozen dataclass whose attributes are all such values, or an
    instance of a class that says so with ``_immutable_value = True`` (the
    curve and field elements, whose constructors are their only writers
    apart from a memo the state digest skips)."""
    kind = type(value)
    if kind in _SCALAR_TYPES or getattr(kind, "_immutable_value", False):
        return True
    if kind is tuple or kind is frozenset:
        return all(map(_immutable, value))
    if isinstance(value, enum.Enum):
        return True
    params = getattr(kind, "__dataclass_params__", None)
    if params is not None and params.frozen:
        attrs = _object_attrs(value)
        return attrs is not None and all(map(_immutable, attrs.values()))
    return False


#: What a shadow holds for a value the log must carry on every write-set:
#: nothing is ever identical to it.
_CARRY = object()

# The attribute writes a record carries, by their first item.
_SET, _DEL, _LIST, _DICT = range(4)


def _held(value: Any) -> Any:
    """A shadow's entry for ``value``: the value itself when it is immutable,
    an :class:`_Entries` for a list or a dict with immutable keys, else
    :data:`_CARRY`."""
    kind = type(value)
    if kind is list:
        return _Entries(value, [item if _immutable(item) else _CARRY for item in value])
    if kind is dict and all(map(_immutable, value)):
        return _Entries(
            value,
            {key: item if _immutable(item) else _CARRY for key, item in value.items()},
        )
    return value if _immutable(value) else _CARRY


class _Entries:
    """The log's copy of one list or dict attribute: the container it was
    taken from, and per entry what :func:`_held` makes of it."""

    __slots__ = ("container", "entries")

    def __init__(self, container, entries) -> None:
        self.container = container
        self.entries = entries

    def write(self, value) -> tuple | None:
        """The patch that brings the log's copy to ``value`` (the same
        container) and updates the copy to match; ``None`` when it already
        matches, or a ``_SET`` (the copy is then stale) when only the whole
        value says it exactly."""
        entries = self.entries
        if type(entries) is list:
            held = len(entries)
            changed = {
                index: item
                for index, (item, old) in enumerate(zip(value, entries))
                if item is not old
            }
            if len(value) > held:
                changed.update(enumerate(value[held:], held))
            elif len(value) == held and not changed:
                return None
            del entries[len(value):]
            for index, item in changed.items():
                item = item if _immutable(item) else _CARRY
                if index < held:
                    entries[index] = item
                else:
                    entries.append(item)
            return (_LIST, len(value), changed)
        changed = {
            key: item for key, item in value.items() if entries.get(key, _CARRY) is not item
        }
        added = [key for key in changed if key not in entries]
        removed = ()
        if len(entries) + len(added) != len(value):
            removed = tuple(key for key in entries if key not in value)
        if not all(map(_immutable, added)):
            return (_SET, value)
        for key in removed:
            del entries[key]
        for key, item in changed.items():
            entries[key] = item if _immutable(item) else _CARRY
        # Iteration order is state too, and a delete and re-insert between
        # two records moves a key that the patch would leave in place.
        if list(entries) != list(value):
            return (_SET, value)
        if not changed and not removed:
            return None
        return (_DICT, changed, removed)


class _Shadow:
    """What the log holds of one contract: the object it was taken from and,
    per attribute, what :func:`_held` makes of the value the log holds."""

    __slots__ = ("contract", "attrs")

    def __init__(self, contract: Any) -> None:
        self.contract = contract
        self.attrs = {
            name: _held(value)
            for name, value in vars(contract).items()
            if name not in _CONTRACT_SKIP_ATTRS
        }

    def writes(self) -> dict[str, tuple]:
        """The attribute writes that bring the log to the contract's present
        state, by attribute name; updates the shadow to match."""
        attrs, state = self.attrs, vars(self.contract)
        writes: dict[str, tuple] = {}
        present = 0
        for name, value in state.items():
            if name in _CONTRACT_SKIP_ATTRS:
                continue
            present += 1
            held = attrs.get(name, _CARRY)
            if value is held:
                continue
            if type(held) is _Entries and held.container is value:
                write = held.write(value)
                if write is None:
                    continue
                if write[0] != _SET:
                    writes[name] = write
                    continue
            writes[name] = (_SET, value)
            attrs[name] = _held(value)
        if len(attrs) != present:
            for name in [name for name in attrs if name not in state]:
                writes[name] = (_DEL,)
                del attrs[name]
        return writes


def _patch_contract(contract: Any, writes: dict[str, tuple]) -> None:
    """Apply :meth:`_Shadow.writes` to the replayed copy of a contract."""
    state = vars(contract)
    for name, write in writes.items():
        op = write[0]
        if op == _SET:
            state[name] = write[1]
        elif op == _DEL:
            del state[name]
        elif op == _LIST:
            target, length = state[name], write[1]
            del target[length:]
            target.extend([None] * (length - len(target)))
            for index, item in write[2].items():
                target[index] = item
        else:
            target = state[name]
            for key in write[2]:
                del target[key]
            target.update(write[1])


@dataclass
class _WalRecord:
    """One committed mutation: the write-set of its scope, as a patch to the
    state the log held after the previous record.

    ``snapshot()`` writes the same record with every map, the event list,
    the schedule and every contract whole, so one ``_apply`` restores both
    and a field missing from either is an error.
    """

    kind: str                     # "account" | "deploy" | "tx" | "block" | "snapshot"
    now: dict[str, dict]          # ``StateStore.delta()``: values the keyed maps hold now
    gone: dict[str, list]         # ... and the keys they lost
    fee_sink: int
    account_seq: int
    schedule_seq: int
    tx_seq: int
    base_fee_wei: int
    burned: int
    pool_seq: int
    scheduled: list               # scheduled calls the log did not hold yet
    unscheduled: list             # sequences of logged calls since removed
    events_tail: list             # events appended in this scope
    contracts: dict[str, tuple[type, dict]]   # contracts new to the log, whole
    writes: dict[str, dict[str, tuple]]       # ... and the others' attribute writes
    payload: dict

#: Seal of ``snapshot.pkl`` (see :mod:`repro.durable`).
_SNAPSHOT_MAGIC = b"CHAINSNP"

#: The counters every record carries whole (absolute values, not deltas).
_RECORD_SCALARS = (
    "fee_sink", "account_seq", "schedule_seq", "tx_seq",
    "base_fee_wei", "burned", "pool_seq",
)


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
    :class:`WalCorruption`.  ``snapshot()`` folds the log into a fresh
    snapshot and truncates it.
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
        #: What the log holds of each contract it has carried since the
        #: last snapshot or reopen, and of the schedule (by sequence).
        self._shadows: dict[str, _Shadow] = {}
        self._logged_calls: dict[int, Any] = {}
        # Drop a torn tail frame (crash mid-append) before appending:
        # otherwise new records would land *behind* the garbage and be
        # unreachable to every future recovery.
        self.truncate_wal(self.directory, self._recover())
        self._wal = open(self.wal_path, "ab")

    # -- commit hook ----------------------------------------------------------

    def _record(
        self,
        kind: str,
        now: dict,
        gone: dict,
        events_tail: list,
        scheduled: list,
        unscheduled: list,
        contracts: dict,
        writes: dict,
        payload: dict,
    ) -> _WalRecord:
        """One record: the store's counters plus the given write-set."""
        # Spelled out, not ``**``-unpacked from ``_RECORD_SCALARS``: this runs
        # once per transaction and a starred call takes the slow call path.
        return _WalRecord(
            kind=kind,
            now=now,
            gone=gone,
            fee_sink=self.fee_sink,
            account_seq=self.account_seq,
            schedule_seq=self.schedule_seq,
            tx_seq=self.tx_seq,
            base_fee_wei=self.base_fee_wei,
            burned=self.burned,
            pool_seq=self.pool_seq,
            scheduled=scheduled,
            unscheduled=unscheduled,
            events_tail=events_tail,
            contracts=contracts,
            writes=writes,
            payload=payload,
        )

    def _schedule_writes(self) -> tuple[list, list]:
        """``(calls the log lacks, sequences of logged calls now gone)``;
        updates the log's copy to match."""
        logged = self._logged_calls
        scheduled = self.scheduled
        if not (scheduled or logged):
            return [], []
        added = [call for call in scheduled if logged.get(call.sequence) is not call]
        unscheduled = []
        # Without removals or replacements the counts add up exactly.
        if len(logged) + len(added) != len(scheduled):
            current = {call.sequence for call in scheduled}
            unscheduled = [sequence for sequence in logged if sequence not in current]
            for sequence in unscheduled:
                del logged[sequence]
        for call in added:
            logged[call.sequence] = call
        return added, unscheduled

    def _commit_hook(self, kind: str, payload: dict, touched: frozenset) -> None:
        now, gone = self.delta()
        contracts: dict[str, tuple[type, dict]] = {}
        writes: dict[str, dict[str, tuple]] = {}
        for address in sorted(touched):
            contract = self.contracts.get(address)
            if contract is None:
                continue
            shadow = self._shadows.get(address)
            if shadow is not None and shadow.contract is contract:
                changed = shadow.writes()
                if changed:
                    writes[address] = changed
            else:
                contracts[address] = _contract_state(contract)
                self._shadows[address] = _Shadow(contract)
        scheduled, unscheduled = self._schedule_writes()
        record = self._record(
            kind, now, gone, self.events[self._events_mark :], scheduled, unscheduled,
            contracts, writes, payload,
        )
        self._seq += 1
        self._wal.write(
            durable.frame(
                self._seq, pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
            )
        )
        self._wal.flush()
        if self.fsync:
            os.fsync(self._wal.fileno())

    # -- recovery -------------------------------------------------------------

    def _recover(self) -> int:
        """Load snapshot + log; returns the log's length up to its last whole frame."""
        snapshot_path = self.directory / self._SNAPSHOT_NAME
        if snapshot_path.exists():
            record = pickle.loads(durable.read_sealed(snapshot_path, _SNAPSHOT_MAGIC))
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
        # The log now holds the schedule as replayed.  Contracts have no
        # shadow yet, so the first record to touch one carries it whole.
        self._logged_calls = {call.sequence: call for call in self.scheduled}
        return valid

    def _apply(self, record: _WalRecord) -> None:
        # Replay runs outside any scope, so there is nothing to journal:
        # keyed-map writes go straight to the builtin (thousands per reopen).
        for name, keys in record.gone.items():
            target = getattr(self, name)
            for key in keys:
                dict.pop(target, key, None)
        for name, values in record.now.items():
            dict.update(getattr(self, name), values)
        # Every record carries every field (``_record`` sets them all, and
        # ``durable`` refuses frames and snapshots from other formats), so a
        # missing one is a damaged record: fail on it, never skip it.
        for name in _RECORD_SCALARS:
            setattr(self, name, getattr(record, name))
        if record.scheduled or record.unscheduled:
            # Kept sorted, as ``Blockchain`` keeps the live schedule; a call
            # carried again under a logged sequence replaces it.
            dropped = set(record.unscheduled)
            dropped.update(call.sequence for call in record.scheduled)
            calls = [call for call in self.scheduled if call.sequence not in dropped]
            calls.extend(record.scheduled)
            calls.sort()
            self.scheduled = calls
        self.events.extend(record.events_tail)
        for address, (cls, attrs) in record.contracts.items():
            self.contracts[address] = _restore_contract(
                cls, attrs, existing=self.contracts.get(address)
            )
        for address, changed in record.writes.items():
            _patch_contract(self.contracts[address], changed)
        payload = record.payload
        if record.kind == "tx":
            pending = self.blocks[-1]
            pending.receipts.append(payload["receipt"])
            pending.gas_used = payload["pending_gas"]
            pending.byte_size = payload["pending_bytes"]
        elif record.kind == "block":
            sealed = self.blocks[-1]
            sealed.timestamp = payload["sealed_timestamp"]
            sealed.byte_size = payload["sealed_bytes"]
            sealed.base_fee_wei = payload["sealed_base_fee"]
            self.time = payload["time"]
            self.blocks.append(payload["new_block"])
        elif record.kind == "genesis":
            self.blocks = [payload["block"]]
        elif record.kind == "snapshot":
            # A delta names the maps its scope wrote; a snapshot holds them all.
            missing = sorted(set(self._KEYED_MAPS) - record.now.keys())
            if missing:
                raise WalCorruption(0, f"snapshot lacks {missing}")
            self.time = payload["time"]
            self.blocks = payload["blocks"]

    # -- snapshot / lifecycle --------------------------------------------------

    def snapshot(self) -> None:
        """Fold the log into a fresh snapshot and truncate the WAL."""
        record = self._record(
            "snapshot",
            {name: getattr(self, name) for name in self._KEYED_MAPS},
            {},
            self.events,
            list(self.scheduled),
            [],
            {
                address: _contract_state(contract)
                for address, contract in self.contracts.items()
            },
            {},
            {"wal_seq": self._seq, "time": self.time, "blocks": self.blocks},
        )
        durable.publish(
            self.directory / self._SNAPSHOT_NAME,
            _SNAPSHOT_MAGIC,
            pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL),
        )
        # Cut the log only after the snapshot is durable.  A crash in
        # between leaves frames the snapshot already holds; recovery skips
        # them by the ``wal_seq`` recorded above.
        self._wal.close()
        self._wal = open(self.wal_path, "wb")
        # The log is the snapshot now: later records are diffs against it.
        self._shadows = {
            address: _Shadow(contract) for address, contract in self.contracts.items()
        }
        self._logged_calls = {call.sequence: call for call in self.scheduled}

    def close(self) -> None:
        if not self._wal.closed:
            self._wal.close()

    # -- log introspection (lifecycle checkpointing) -------------------------

    @property
    def wal_path(self) -> Path:
        return self.directory / self._WAL_NAME

    def wal_size(self) -> int:
        """Durable size of the log: a safe cut point for this store.

        The lifecycle engine records this at each epoch boundary; on a
        crash-reopen it truncates the log back to the recorded size, which
        rewinds the chain exactly to that boundary (every commit is one
        whole frame, so a recorded size always falls on a frame boundary).
        The log is fsynced first — a recorded cut point must never exceed
        what actually survives an OS crash, or the truncate-and-replay
        recovery would come up short and refuse to resume.
        """
        if not self._wal.closed:
            self._wal.flush()
            os.fsync(self._wal.fileno())
        return self.wal_path.stat().st_size if self.wal_path.exists() else 0

    @staticmethod
    def truncate_wal(directory: str | os.PathLike, size: int) -> None:
        """Cut a (closed) store's log back to ``size`` bytes before reopening."""
        path = Path(directory) / WalStateStore._WAL_NAME
        if path.exists() and path.stat().st_size > size:
            with open(path, "r+b") as handle:
                handle.truncate(size)
