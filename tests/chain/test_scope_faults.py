"""One fault rule for every chain mutation scope.

Every mutation of chain state runs inside ``StateStore.scope``: a scope
whose body raises, or whose record the log fails to take, is rolled back
whole to where it opened and logs nothing, so the live chain and one
replayed from its WAL agree whatever the fault.  A fault is injected here
in each scope the paper's Fig. 2 trail reaches the chain through (a direct
transaction, a pooled drain, a scheduled fire, the block seal) and in a
deploy: first in the body, then in the log append (nothing written, half a
frame, the whole frame).  After each one no scope is left open, the live
state is the one before the scope, the next mutation is logged, and a store
reopened from the directory reports the live ``state_hash`` and
``pool_hash``.  A log that cannot even cut a failed append back off takes
no more records.

The second half holds the design in place: only the scope helper calls a
store's ``begin`` / ``commit``, ``Blockchain._execute`` has one caller,
``WalStateStore._apply`` replays every record the same way, and only the
store writes blocks, events and the clock.
"""

from __future__ import annotations

import ast
import dataclasses
import errno
from pathlib import Path

import pytest

import repro
from repro import durable
from repro.chain import Blockchain, Contract, Transaction
from repro.chain.blockchain import Block
from repro.chain.mempool import Mempool, MempoolConfig
from repro.chain.state import WalCorruption, WalStateStore

SRC = Path(repro.__file__).parent

#: Faults the next ``Pinger.ping`` raises, last first.
_ARMED: list[BaseException] = []


class Fault(BaseException):
    """Not a modelled revert: it escapes the chain's revert handling."""


class Pinger(Contract):
    def __init__(self) -> None:
        super().__init__()
        self.pings = 0

    def ping(self, ctx) -> int:
        # Storage, an event and a nested scope, all before the fault.
        self.pings += 1
        self.emit("pinged", count=self.pings)
        self.chain.schedule_call(self.address, "ping", delay=1e9)
        if _ARMED:
            raise _ARMED.pop()
        return self.pings


@pytest.fixture
def chain(tmp_path):
    chain = Blockchain.open(tmp_path / "chain", mempool=MempoolConfig())
    chain.alice = chain.create_account(10.0, label="alice")
    chain.pinger = chain.deploy(Pinger(), deployer=chain.alice)
    chain.transact(_ping(chain))
    chain.mine_block()
    yield chain
    _ARMED.clear()
    chain.close()


def _ping(chain, **fields) -> Transaction:
    return Transaction(sender=chain.alice, to=chain.pinger, method="ping", **fields)


def _assert_recovers(chain, directory) -> None:
    """No open scope, and the directory replays to the live state."""
    assert chain.store._tx_depth == 0
    reopened = WalStateStore(directory)
    try:
        assert reopened.state_hash() == chain.state_hash()
        assert reopened.pool_hash() == chain.store.pool_hash()
    finally:
        reopened.close()


def _assert_next_mutation_logged(chain, mutate) -> None:
    frames = chain.store._seq
    mutate()
    assert chain.store._seq > frames


def test_a_fault_in_a_direct_transaction_is_rolled_back(chain, tmp_path):
    before = chain.state_hash(), chain.store._seq, len(chain.events)
    _ARMED.append(Fault("direct"))
    with pytest.raises(Fault):
        chain.transact(_ping(chain))
    assert (chain.state_hash(), chain.store._seq, len(chain.events)) == before
    assert chain.contract_at(chain.pinger).pings == 1
    _assert_recovers(chain, tmp_path / "chain")
    _assert_next_mutation_logged(chain, lambda: chain.transact(_ping(chain)))
    assert chain.contract_at(chain.pinger).pings == 2
    _assert_recovers(chain, tmp_path / "chain")


def test_a_fault_in_a_pooled_drain_leaves_the_entry_pending(chain, tmp_path):
    chain.submit(_ping(chain))
    height = len(chain.blocks)
    _ARMED.append(Fault("pooled"))
    with pytest.raises(Fault):
        chain.mine_block()
    assert len(chain.pool) == 1 and len(chain.blocks) == height
    assert chain.pool.pending_count(chain.alice) == 1
    _assert_recovers(chain, tmp_path / "chain")
    _assert_next_mutation_logged(chain, chain.mine_block)
    assert len(chain.pool) == 0 and chain.blocks[-2].receipts[-1].success
    _assert_recovers(chain, tmp_path / "chain")


def test_a_fault_in_a_scheduled_fire_leaves_the_call_scheduled(chain, tmp_path):
    chain.schedule_call(chain.pinger, "ping", delay=0.0)
    scheduled = len(chain._scheduled)
    _ARMED.append(Fault("scheduled"))
    with pytest.raises(Fault):
        chain.mine_block()  # seals, then the fired call faults
    assert len(chain._scheduled) == scheduled
    _assert_recovers(chain, tmp_path / "chain")
    _assert_next_mutation_logged(chain, chain.mine_block)
    assert chain.contract_at(chain.pinger).pings == 2
    _assert_recovers(chain, tmp_path / "chain")


def test_a_fault_in_the_block_seal_seals_nothing(chain, tmp_path, monkeypatch):
    chain.submit(_ping(chain))
    sealed = chain.blocks[-1]
    before = len(chain.blocks), chain.time, chain.base_fee_wei, sealed.timestamp
    original = Mempool.on_block_sealed

    def fault_once(self, block):
        monkeypatch.setattr(Mempool, "on_block_sealed", original)
        raise Fault("seal")

    monkeypatch.setattr(Mempool, "on_block_sealed", fault_once)
    with pytest.raises(Fault):
        chain.mine_block()
    assert (len(chain.blocks), chain.time, chain.base_fee_wei, sealed.timestamp) == before
    _assert_recovers(chain, tmp_path / "chain")
    _assert_next_mutation_logged(chain, chain.mine_block)
    assert chain.blocks[-2] is sealed and sealed.receipts[-1].success
    _assert_recovers(chain, tmp_path / "chain")


def test_a_gas_limit_below_intrinsic_is_refused_not_raised(chain, tmp_path):
    """Refused with a failed receipt, so a pooled one cannot stall its lane."""
    receipt = chain.transact(_ping(chain, gas_limit=20_000))
    assert not receipt.success and receipt.error.startswith("intrinsic gas")
    chain.submit(_ping(chain, gas_limit=1_000))
    chain.mine_block()
    assert len(chain.pool) == 0
    assert chain.blocks[-2].receipts[-1].error.startswith("intrinsic gas")
    assert chain.contract_at(chain.pinger).pings == 1
    _assert_recovers(chain, tmp_path / "chain")


# --------------------------------------------------------------------------- #
# Log-append faults                                                           #
# --------------------------------------------------------------------------- #


class FullDisk:
    """Stands in for a store's open log: its next write lands ``landed`` of
    the frame's bytes and raises ENOSPC; then the cut back fails too, if
    ``stuck``.  Anything else goes to the real log."""

    def __init__(self, store, landed: float, stuck: bool = False) -> None:
        self.store, self.log, self.landed, self.stuck = store, store._wal, landed, stuck
        store._wal = self

    def write(self, data) -> int:
        if not self.stuck:
            self.store._wal = self.log  # one fault
        self.log.write(bytes(data[: int(len(data) * self.landed)]))
        raise OSError(errno.ENOSPC, "No space left on device")

    def truncate(self, size: int) -> int:
        if self.stuck:
            raise OSError(errno.EIO, "Input/output error")
        return self.log.truncate(size)

    def __getattr__(self, name: str):
        return getattr(self.log, name)


def _fail_next_append(monkeypatch, store, kind: str, landed: float, stuck: bool = False):
    """Make the append of the next ``kind`` record fail (:class:`FullDisk`);
    returns a list that ends up holding ``(state_hash, pool_hash)`` as they
    were when that record's scope opened."""
    before: list = []
    begin, hook = store.begin, store._commit_hook

    def watched_begin() -> None:
        if store._tx_depth == 0:
            before[:] = [(store.state_hash(), store.pool_hash())]
        begin()

    def failing_hook(record_kind, payload) -> None:
        if record_kind == kind:
            monkeypatch.setattr(store, "_commit_hook", hook)
            FullDisk(store, landed, stuck)
        hook(record_kind, payload)

    monkeypatch.setattr(store, "begin", watched_begin)
    monkeypatch.setattr(store, "_commit_hook", failing_hook)
    return before


def _torn_bytes(store) -> int:
    """Bytes of the log past its last whole frame; the frames number ``_seq``."""
    log = store.wal_path.read_bytes()
    ends = [end for _sequence, _payload, end in durable.frames(log)]
    assert len(ends) == store._seq
    return len(log) - (ends[-1] if ends else 0)


def _deploy(chain) -> None:
    chain.deploy(Pinger(), deployer=chain.alice, deposit_bytes=64)


#: Each scope with its record kind, how to set it up, and how to run it.
APPEND_FAULTS = {
    "direct": ("tx", lambda chain: None, lambda chain: chain.transact(_ping(chain))),
    "pooled": ("tx", lambda chain: chain.submit(_ping(chain)), lambda chain: chain.mine_block()),
    "scheduled": (
        "tx",
        lambda chain: chain.schedule_call(chain.pinger, "ping", delay=0.0),
        lambda chain: chain.mine_block(),
    ),
    "seal": ("block", lambda chain: chain.submit(_ping(chain)), lambda chain: chain.mine_block()),
    "deploy": ("deploy", lambda chain: None, _deploy),
}


@pytest.mark.parametrize("landed", [0.0, 0.5, 1.0], ids=["nothing", "half", "whole"])
@pytest.mark.parametrize("scope", sorted(APPEND_FAULTS))
def test_a_failed_log_append_rolls_the_whole_scope_back(
    chain, tmp_path, monkeypatch, scope, landed
):
    kind, setup, run = APPEND_FAULTS[scope]
    setup(chain)
    store = chain.store
    before = _fail_next_append(monkeypatch, store, kind, landed)
    with pytest.raises(OSError) as fault:
        run(chain)
    assert fault.value.errno == errno.ENOSPC
    # Blocks, receipts, events, the clock, storage and the pool, as they
    # were; and no byte of the failed frame is left in the log.
    assert [(chain.state_hash(), store.pool_hash())] == before
    assert _torn_bytes(store) == 0
    _assert_recovers(chain, tmp_path / "chain")
    monkeypatch.undo()
    _assert_next_mutation_logged(chain, lambda: chain.transact(_ping(chain)))
    _assert_recovers(chain, tmp_path / "chain")


@pytest.mark.parametrize("landed", [0.5, 1.0], ids=["half", "whole"])
def test_a_failed_append_to_a_log_a_snapshot_just_started_is_cut_back_whole(
    chain, tmp_path, monkeypatch, landed
):
    """The fresh log a snapshot opens appends at its end too: after the cut
    the next frame starts at byte 0, with no hole where the torn one was."""
    chain.transact(_ping(chain))
    chain.snapshot()
    store = chain.store
    before = _fail_next_append(monkeypatch, store, "tx", landed)
    with pytest.raises(OSError):
        chain.transact(_ping(chain))
    assert [(chain.state_hash(), store.pool_hash())] == before
    assert store.wal_path.stat().st_size == 0
    monkeypatch.undo()
    _assert_next_mutation_logged(chain, lambda: chain.transact(_ping(chain)))
    log = store.wal_path.read_bytes()
    assert [end for _sequence, _payload, end in durable.frames(log)] == [len(log)]
    _assert_recovers(chain, tmp_path / "chain")


def test_a_log_that_cannot_cut_a_failed_append_takes_no_more_records(
    chain, tmp_path, monkeypatch
):
    store = chain.store
    before = _fail_next_append(monkeypatch, store, "tx", 0.5, stuck=True)
    with pytest.raises(OSError):
        chain.transact(_ping(chain))
    assert [(chain.state_hash(), store.pool_hash())] == before
    monkeypatch.undo()
    # Half a frame stays at the tail: a reopen ignores it as torn, and the
    # store appends nothing behind it.
    torn = _torn_bytes(store)
    for attempt in range(2):
        with pytest.raises(WalCorruption, match="could not be cut"):
            chain.transact(_ping(chain))
        assert [(chain.state_hash(), store.pool_hash())] == before
        assert _torn_bytes(store) == torn > 0
    _assert_recovers(chain, tmp_path / "chain")
    # A snapshot holds the live state whole and starts a fresh log.
    chain.snapshot()
    _assert_next_mutation_logged(chain, lambda: chain.transact(_ping(chain)))
    _assert_recovers(chain, tmp_path / "chain")


# --------------------------------------------------------------------------- #
# Structural guards                                                           #
# --------------------------------------------------------------------------- #


def _calls(attributes: set[str]) -> list[tuple[str, str]]:
    """``(module, enclosing class.function)`` of every call in the package
    of a method named in ``attributes``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, f"{where}.{child.name}".lstrip("."))
                    continue
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in attributes
                ):
                    found.append((module, where))
                visit(child, where)

        visit(ast.parse(path.read_text()), "")
    return found


def test_only_the_scope_helper_opens_and_closes_a_store_scope():
    assert set(_calls({"begin", "commit"})) == {
        ("chain/state.py", "_Scope.__enter__"),
        ("chain/state.py", "_Scope.__exit__"),
    }


def test_execute_has_one_caller_the_transaction_scope():
    assert _calls({"_execute"}) == [("chain/blockchain.py", "Blockchain._transact")]


def test_the_mempool_writes_no_record_the_wal_replays():
    """``_apply`` replays every record the same way: it reads neither a
    record's kind nor its payload, so there is no kind or payload key for
    the mempool (or the chain) to write.  No scope hands its body one."""
    state = ast.parse((SRC / "chain/state.py").read_text())
    apply = next(
        node for node in ast.walk(state)
        if isinstance(node, ast.FunctionDef) and node.name == "_apply"
    )
    read = [
        ast.unparse(node) for node in ast.walk(apply)
        if isinstance(node, ast.Attribute) and node.attr in ("kind", "payload")
        or isinstance(node, ast.Name) and node.id == "payload"
    ]
    assert read == []
    for module in ("chain/blockchain.py", "chain/mempool/pool.py"):
        bound = [
            ast.unparse(item) for node in ast.walk(ast.parse((SRC / module).read_text()))
            if isinstance(node, ast.With) for item in node.items
            if "scope(" in ast.unparse(item.context_expr) and item.optional_vars is not None
        ]
        assert bound == [], module


def test_only_the_store_writes_blocks_events_and_the_clock():
    """Outside ``chain/state.py`` nothing rebinds the store's ``blocks``,
    ``events`` or ``time``, or sets a field a ``Block`` has on anything but
    the store: block fields change through ``StateStore.write_block``
    alone, so the journal sees every write."""
    fields = {field.name for field in dataclasses.fields(Block)}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module == "chain/state.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                owner = ast.unparse(node.value)
                on_store = owner == "store" or owner.endswith(".store")
                name = node.attr
            elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("setattr"):
                constant = node.args[1] if len(node.args) > 1 else None
                on_store = False
                name = constant.value if isinstance(constant, ast.Constant) else None
            else:
                continue
            if name in ({"blocks", "events", "time"} if on_store else fields):
                found.append(f"{module}:{node.lineno}: {ast.unparse(node)}")
    assert found == []
