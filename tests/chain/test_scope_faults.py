"""One fault rule for every chain mutation scope.

Every mutation of chain state runs inside ``StateStore.scope``: a body that
raises is rolled back to where its scope opened and logs nothing, so the
live chain and one replayed from its WAL agree whatever the fault.  A fault
is injected here in each scope the paper's Fig. 2 trail reaches the chain
through (a direct transaction, a pooled drain, a scheduled fire, the block
seal).  After each one no scope is left open, the next mutation is logged,
and a store reopened from the directory reports the live ``state_hash`` and
``pool_hash``.

The second half holds the design in place: only the scope helper calls a
store's ``begin`` / ``commit``, ``Blockchain._execute`` has one caller, and
the mempool writes none of the records ``WalStateStore._apply`` reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.chain import Blockchain, Contract, Transaction
from repro.chain.mempool import Mempool, MempoolConfig
from repro.chain.state import WalStateStore

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
    """The record kinds ``_apply`` dispatches on and the payload keys it
    reads are written by the chain alone, never spelled in ``pool.py``."""
    state = ast.parse((SRC / "chain/state.py").read_text())
    apply = next(
        node for node in ast.walk(state)
        if isinstance(node, ast.FunctionDef) and node.name == "_apply"
    )
    replayed = {"tx-abort"}
    for node in ast.walk(apply):
        if isinstance(node, ast.Compare) and ast.unparse(node.left) == "record.kind":
            replayed.update(c.value for c in node.comparators if isinstance(c, ast.Constant))
        if isinstance(node, ast.Subscript) and ast.unparse(node.value) == "payload":
            replayed.add(node.slice.value)
    assert {"tx", "block", "receipt", "pending_gas", "pending_bytes"} <= replayed
    pool = ast.parse((SRC / "chain/mempool/pool.py").read_text())
    spelled = {
        node.value for node in ast.walk(pool)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert spelled & replayed == set()
