"""A minimal but honest Ethereum-like chain for the auditing system.

What is modelled (because the paper's evaluation depends on it):

* accounts with wei balances, value transfer, gas fees debited to a
  fee-sink (the "miner"),
* contracts as Python objects with metered methods, persistent state and
  event logs,
* blocks with a gas limit and a block interval — the throughput analysis of
  Fig. 10 comes straight from these two constants,
* a scheduler in the spirit of the Ethereum Alarm Clock: contracts register
  future calls ("On trigger scheduling(...)" in paper Fig. 2) that fire as
  the chain's clock advances past their due time,
* per-transaction byte accounting so chain-growth (Fig. 10 left) is
  measured, not assumed.

What is deliberately not modelled: consensus, forks, the EVM itself.
Contract code runs as trusted Python with explicit gas metering — mirroring
the paper's own approach of a Golang precompile on a private testnet.

State lives behind a pluggable :class:`~repro.chain.state.StateStore`:
the default :class:`~repro.chain.state.MemoryStateStore` keeps the
original in-process behaviour, while
:class:`~repro.chain.state.WalStateStore` gives the chain an append-only
write-ahead log + snapshots, so ``Blockchain.open(directory)`` recovers a
crashed chain bit-identically (checked via :meth:`Blockchain.state_hash`).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import threading
from contextlib import AbstractContextManager, ExitStack, nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from .gas import GasSchedule
from .state import MemoryStateStore, StateStore, WalStateStore
from .transaction import Event, OutOfGasError, Receipt, RevertError, Transaction

WEI_PER_GWEI = 10**9
WEI_PER_ETH = 10**18

#: What a contract raises to revert (anything else becomes a RevertError).
_REVERTS = (RevertError, OutOfGasError, AssertionError)

#: The sender of every scheduled call the chain fires.
SCHEDULER = "0xscheduler"


@dataclass
class Block:
    number: int
    timestamp: float
    parent_hash: str
    receipts: list[Receipt] = field(default_factory=list)
    gas_used: int = 0
    byte_size: int = 0
    # wei/gas every transaction in this block paid as base fee; stays 0
    # on chains without a mempool, whose transactions are all direct.
    base_fee_wei: int = 0

    @property
    def block_hash(self) -> str:
        material = f"{self.number}:{self.timestamp}:{self.parent_hash}:{self.gas_used}"
        return hashlib.sha256(material.encode()).hexdigest()


@dataclass(order=True, frozen=True)
class ScheduledCall:
    due_time: float
    sequence: int
    contract: str = field(compare=False)
    method: str = field(compare=False)
    args: tuple = field(compare=False, default=())


class GasMeter:
    """Tracks gas within one transaction; contracts charge it explicitly."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def consume(self, amount: int) -> None:
        self.used += int(amount)
        if self.used > self.limit:
            raise OutOfGasError(f"gas limit {self.limit} exceeded ({self.used})")


@dataclass
class CallContext:
    """What a contract method sees (msg.sender / msg.value / block / gas)."""

    sender: str
    value: int
    timestamp: float
    block_number: int
    gas: GasMeter
    chain: "Blockchain"


class Contract:
    """Base class for on-chain contracts.

    Subclasses implement methods taking ``ctx`` first; state is ordinary
    attributes, which once deployed obey the storage rule of
    :mod:`repro.chain.state` and are journaled.  ``emit`` appends to the
    transaction's event list.
    """

    #: ``None`` until deployed, and in a restored copy until its chain rebinds it.
    chain: "Blockchain | None" = None

    def __init__(self) -> None:
        self.address: str = ""
        self._pending_events: list[Event] = []

    def __setattr__(self, name: str, value: Any) -> None:
        chain = self.__dict__.get("chain")
        if chain is None:  # not deployed: the constructor's writes
            object.__setattr__(self, name, value)
        else:
            chain.store.write_storage(self, name, value)

    def __delattr__(self, name: str) -> None:
        chain = self.__dict__.get("chain")
        if chain is None:
            object.__delattr__(self, name)
        else:
            chain.store.write_storage(self, name)

    def __getstate__(self) -> dict:
        # Persisted without the chain back-reference; its chain rebinds it.
        return {name: value for name, value in vars(self).items() if name != "chain"}

    def emit(self, event_name: str, **payload: Any) -> None:
        self._pending_events.append(
            Event(contract=self.address, name=event_name, payload=payload)
        )

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            raise RevertError(message)

    @property
    def balance(self) -> int:
        assert self.chain is not None
        return self.chain.balance_of(self.address)

    def _call_contract(self, ctx: "CallContext", address: str, method: str, *args: Any) -> Any:
        """EVM-style internal call, sent by this contract on the caller's gas:
        the callee's events land in this transaction's receipt."""
        assert self.chain is not None
        callee = self.chain.contract_at(address)
        try:
            result = getattr(callee, method)(replace(ctx, sender=self.address, value=0), *args)
            self._pending_events.extend(callee._pending_events)
            return result
        finally:
            callee._pending_events.clear()

    @classmethod
    def due_calls_scope(
        cls, calls: list[tuple["Contract", ScheduledCall]]
    ) -> AbstractContextManager:
        """Offered the scheduled calls a freshly sealed block is about to
        fire on instances of this class, as ``(instance, call)`` in firing
        order; the chain holds the returned context open while they fire.

        A validator's chance to do once per block what every call would
        otherwise do on its own.  Each call still executes as its own
        transaction, and must reach the same result whether or not the
        scope prepared anything.  The default prepares nothing.
        """
        return nullcontext()


@functools.cache
def _entry_points(cls: type) -> dict[str, tuple[Callable, int, float]]:
    """``{name: (function, fewest, most arguments)}`` for every method a
    transaction may call on ``cls``: the public functions its own classes
    define below :class:`Contract`.  The counts include ``self`` and
    ``ctx``."""
    points: dict[str, tuple[Callable, int, float]] = {}
    for klass in reversed(cls.__mro__[: cls.__mro__.index(Contract)]):
        for name, member in vars(klass).items():
            if name.startswith("_"):
                continue
            points.pop(name, None)  # a subclass's attribute hides the base's
            if not inspect.isfunction(member):
                continue
            params = inspect.signature(member).parameters.values()
            if any(
                p.kind is p.KEYWORD_ONLY and p.default is p.empty for p in params
            ):
                continue
            positional = [
                p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            ]
            most = (
                math.inf
                if any(p.kind is p.VAR_POSITIONAL for p in params)
                else len(positional)
            )
            fewest = sum(p.default is p.empty for p in positional)
            points[name] = (member, fewest, most)
    return points


def _entry_point(contract: "Contract", method: str | None, arguments: int) -> Callable:
    """The function a transaction calling ``method`` with ``arguments``
    arguments runs on ``contract``; reverts when there is none."""
    point = _entry_points(type(contract)).get(method or "")
    if point is None:
        raise RevertError(f"{type(contract).__name__} has no method {method!r}")
    function, fewest, most = point
    if not fewest <= arguments + 2 <= most:
        raise RevertError(f"{method} does not take {arguments} arguments")
    return function


class Blockchain:
    """The simulated chain: behaviour over a pluggable state store.

    ``store`` defaults to a fresh :class:`MemoryStateStore`; pass a
    :class:`WalStateStore` (or use :meth:`Blockchain.open`) for a chain
    that survives its process.  Every mutating entry point runs inside
    one :meth:`StateStore.scope <repro.chain.state.StateStore.scope>`, so
    a durable backend logs exactly one record per logical mutation and a
    mutation that raises is rolled back, not logged.  Direct, scheduled and
    pooled transactions share one transaction scope (``_transact``).
    """

    def __init__(
        self,
        schedule: GasSchedule | None = None,
        block_time: float = 15.0,
        block_gas_limit: int = 10_000_000,
        base_block_bytes: int = 600,
        require_signatures: bool = False,
        store: StateStore | None = None,
        chain_id: int = 0,
        mempool=None,
    ):
        self.schedule = schedule or GasSchedule.istanbul()
        self.block_time = block_time
        self.block_gas_limit = block_gas_limit
        self.base_block_bytes = base_block_bytes
        self.require_signatures = require_signatures
        # Salt for address derivation: fabric lanes get distinct ids so a
        # contract (or account) address never collides across lanes.
        self.chain_id = chain_id
        # One chain is one unit of serialization: every mutating entry
        # point holds this lock, so concurrent callers (RPC handler
        # threads, fabric lane workers) interleave at transaction
        # granularity and never observe a half-applied mutation.
        # Reentrant because mine_block -> _fire_due_calls -> transact.
        self.lock = threading.RLock()
        #: The scheduled call being fired and its transaction, the one
        #: transaction that may come from the scheduler.
        self._firing: tuple[ScheduledCall, Transaction] | None = None
        self.store = store or MemoryStateStore()
        if not self.store.blocks:
            with self.store.scope("genesis"):
                self.store.add_block(Block(number=0, timestamp=0.0, parent_hash="0" * 64))
        for contract in self.store.contracts.values():
            contract.chain = self  # rebind after a restore
        # Optional admission path: pass a MempoolConfig to give the chain
        # a fee market and a pending pool (submit() + priority drain in
        # mine_block()); transact() stays the direct legacy path.
        self.pool = None
        if mempool is not None:
            from .mempool import Mempool, MempoolConfig

            if not isinstance(mempool, MempoolConfig):
                raise TypeError("mempool must be a MempoolConfig")
            self.pool = Mempool(self, mempool)

    @classmethod
    def open(cls, directory, **kwargs) -> "Blockchain":
        """Open (or create) a WAL-persisted chain under ``directory``.

        Recovery replays ``snapshot + WAL``; a chain reopened after a
        crash — even one between ``transact`` and ``mine_block`` — reports
        the same :meth:`state_hash` the lost process would have.
        """
        return cls(store=WalStateStore(directory), **kwargs)

    # -- state passthroughs (the store owns all mutable chain state) ---------

    @property
    def time(self) -> float:
        return self.store.time

    @property
    def blocks(self) -> list[Block]:
        return self.store.blocks

    @property
    def events(self) -> list[Event]:
        return self.store.events

    @property
    def fee_sink(self) -> int:
        return self.store.fee_sink

    @fee_sink.setter
    def fee_sink(self, value: int) -> None:
        self.store.fee_sink = value

    @property
    def _contracts(self) -> dict[str, Contract]:
        return self.store.contracts

    @property
    def _scheduled(self) -> list[ScheduledCall]:
        return self.store.scheduled

    @property
    def base_fee_wei(self) -> int:
        return self.store.base_fee_wei

    @property
    def burned(self) -> int:
        return self.store.burned

    def state_hash(self) -> str:
        """Canonical fingerprint of the entire chain state (hex digest)."""
        with self.lock:
            return self.store.state_hash()

    def snapshot(self) -> None:
        """Checkpoint the backing store (folds a WAL into its snapshot)."""
        with self.lock:
            self.store.snapshot()

    def close(self) -> None:
        self.store.close()

    # -- accounts -------------------------------------------------------------

    def create_account(self, balance_eth: float = 0.0, label: str = "") -> str:
        with self.lock, self.store.scope("account"):
            address = self._next_address("0x", "account", f":{label}")
            self.store.balances[address] = int(balance_eth * WEI_PER_ETH)
        return address

    def _next_address(self, prefix: str, kind: str, suffix: str = "") -> str:
        """A fresh 42-character address off the next account sequence number."""
        self.store.account_seq += 1
        tag = f":{self.chain_id}" if self.chain_id else ""
        material = f"{kind}{tag}:{self.store.account_seq}{suffix}".encode()
        return prefix + hashlib.sha256(material).hexdigest()[: 42 - len(prefix)]

    def register_signer(self, verifying_key_bytes: bytes, balance_eth: float = 0.0) -> str:
        """Create an account whose transactions must be Schnorr-signed.

        The address is derived from the public key (Ethereum-style), so
        only the matching signing key can authorise spends in
        ``require_signatures`` mode.
        """
        from ..crypto.schnorr import VerifyingKey

        address = VerifyingKey.from_bytes(verifying_key_bytes).address()
        with self.lock, self.store.scope("account"):
            self.store.balances.setdefault(address, 0)
            self.store.balances[address] += int(balance_eth * WEI_PER_ETH)
            self.store.signer_keys[address] = bytes(verifying_key_bytes)
            self.store.nonces.setdefault(address, 0)
        return address

    def nonce_of(self, address: str) -> int:
        return self.store.nonces.get(address, 0)

    def _authenticate(self, tx) -> str | None:
        """Returns an error string, or None when the sender is authentic."""
        from ..crypto.schnorr import Signature, VerifyingKey

        if self._firing is not None and tx is self._firing[1]:
            return None  # a scheduled call: trusted by the path it came in on
        expected_key = self.store.signer_keys.get(tx.sender)
        if expected_key is None:
            return f"unknown signer account {tx.sender[:10]}"
        if tx.public_key != expected_key:
            return "public key does not match the sender address"
        if tx.signature is None:
            return "missing signature"
        expected_nonce = self.store.nonces.get(tx.sender, 0)
        if tx.nonce != expected_nonce:
            return f"bad nonce {tx.nonce} (expected {expected_nonce})"
        try:
            signature = Signature.from_bytes(tx.signature)
        except ValueError as exc:
            return f"malformed signature: {exc}"
        verifying_key = VerifyingKey.from_bytes(expected_key)
        if not verifying_key.verify(tx.signing_payload(), signature):
            return "signature verification failed"
        return None

    def balance_of(self, address: str) -> int:
        return self.store.balances.get(address, 0)

    def balance_of_eth(self, address: str) -> float:
        return self.balance_of(address) / WEI_PER_ETH

    def _debit(self, address: str, amount: int) -> None:
        if self.store.balances.get(address, 0) < amount:
            raise RevertError(f"insufficient balance at {address[:10]}")
        self.store.balances[address] -= amount

    def _credit(self, address: str, amount: int) -> None:
        self.store.balances[address] = self.store.balances.get(address, 0) + amount

    def transfer(self, sender: str, to: str, amount_wei: int) -> None:
        """Internal value transfer (used by contracts for payouts)."""
        self._debit(sender, amount_wei)
        self._credit(to, amount_wei)

    def total_supply(self) -> int:
        """Conservation check helper: balances + collected + burned fees.

        ``burned`` stays 0 on chains without a fee market, so the legacy
        invariant ``balances + fee_sink == const`` is unchanged; with a
        mempool the burn leg joins the equation and escrowed fee budgets
        (held by the ``0xmempool`` account) remain inside ``balances``.
        """
        with self.lock:
            return (
                sum(self.store.balances.values())
                + self.store.fee_sink
                + self.store.burned
            )

    # -- contracts --------------------------------------------------------------

    def deploy(self, contract: Contract, deployer: str, deposit_bytes: int = 0) -> str:
        """Install a contract; charges the deployer for its on-chain size.
        A deploy that fails installs nothing and charges nothing."""
        with self.lock, self.store.scope("deploy"):
            address = self._next_address("0xc", "contract")
            contract.address = address
            self.store.install(contract)
            self.store.balances.setdefault(address, 0)
            if deposit_bytes:
                gas = self.schedule.storage_gas(deposit_bytes)
                fee = int(gas * 5 * WEI_PER_GWEI)
                self._debit(deployer, fee)
                self.store.fee_sink += fee
            contract.chain = self
        return address

    def contract_at(self, address: str) -> Contract:
        return self.store.contracts[address]

    # -- transactions -------------------------------------------------------------

    def transact(self, tx: Transaction, payload_bytes: int = 0) -> Receipt:
        """Execute a transaction against the current pending block.

        ``payload_bytes`` sizes the calldata for gas and chain-growth
        accounting when the args are Python objects rather than real ABI
        bytes.  It pays no base fee: its whole gas price is the tip.
        """

        def unschedule() -> None:
            # A fired call leaves the schedule in its own transaction's record.
            if self._firing is not None and tx is self._firing[1]:
                del self.store.calls[self._firing[0].sequence]

        tip_wei = int(tx.gas_price_gwei * WEI_PER_GWEI)
        return self._transact(tx, payload_bytes, unschedule, 0, tip_wei)

    def _transact(
        self, tx: Transaction, payload_bytes: int, claim: Callable[[], None],
        base_fee_wei: int, tip_wei: int, burn_base: bool = True,
    ) -> Receipt:
        """The one transaction scope, direct, scheduled or pooled: ``claim()``
        (unschedule a fired call, pop a pooled entry), then execute, as one
        ``tx`` record."""
        with self.lock, self.store.scope("tx"):
            claim()
            return self._execute(tx, payload_bytes, base_fee_wei, tip_wei, burn_base)

    def submit(self, tx: Transaction, payload_bytes: int = 0, *, replace: bool = False):
        """Queue a transaction through the mempool admission path.

        Returns the admitted :class:`~repro.chain.mempool.PendingEntry`;
        raises a :class:`~repro.chain.mempool.MempoolRejection` subclass
        (``PoolFull``, ``Underpriced``, ...) when admission fails.  The
        transaction executes when a later :meth:`mine_block` drains it.
        """
        if self.pool is None:
            raise RuntimeError(
                "this chain has no mempool; construct it with "
                "Blockchain(mempool=MempoolConfig()) or use transact()"
            )
        with self.lock:
            return self.pool.submit(tx, payload_bytes, replace=replace)

    def _tx_hash(self, tx: Transaction) -> str:
        """Chain-sequenced transaction hash.

        Derived from this chain's own transaction counter (not a process
        global), so receipts — and therefore ``state_hash()`` — are a pure
        function of the chain's history: two same-seed simulations in one
        process produce identical fingerprints.
        """
        material = (
            f"tx:{self.chain_id}:{self.store.tx_seq}:{tx.sender}:{tx.to}:"
            f"{tx.method}:{tx.value}"
        ).encode()
        return hashlib.sha256(material).hexdigest()

    def _execute(
        self, tx: Transaction, payload_bytes: int, base_fee_wei: int, tip_wei: int, burn_base: bool
    ) -> Receipt:
        self.store.tx_seq += 1
        tx_hash = self._tx_hash(tx)
        meter = GasMeter(tx.gas_limit)
        meter.used = self.schedule.tx_intrinsic
        meter.used += payload_bytes * self.schedule.calldata_nonzero_byte
        refused = None
        if meter.used > tx.gas_limit:
            refused = f"intrinsic gas {meter.used} exceeds the gas limit {tx.gas_limit}"
        elif self.require_signatures and (auth_error := self._authenticate(tx)) is not None:
            refused = f"authentication: {auth_error}"
        if refused is not None:
            # Refused before it runs: a failed receipt, no fee, no block gas.
            receipt = Receipt(
                tx_hash, False, meter.used, error=refused, block_number=len(self.blocks)
            )
            self.blocks[-1].receipts.append(receipt)
            return receipt
        if self.require_signatures and tx.sender in self.store.nonces:
            self.store.nonces[tx.sender] += 1
        events: list[Event] = []
        mark = self.store.savepoint()
        try:
            if tx.value:
                self._debit(tx.sender, tx.value)
            if tx.to is None:
                return_value = None
            else:
                contract = self.store.contracts.get(tx.to)
                if contract is None:
                    # Plain transfer to an externally-owned account.
                    self._credit(tx.to, tx.value)
                    return_value = None
                else:
                    self._credit(contract.address, tx.value)
                    ctx = CallContext(
                        sender=tx.sender,
                        value=tx.value,
                        timestamp=self.time,
                        block_number=len(self.blocks),
                        gas=meter,
                        chain=self,
                    )
                    method = _entry_point(contract, tx.method, len(tx.args))
                    contract._pending_events.clear()
                    try:
                        return_value = method(contract, ctx, *tx.args)
                    except _REVERTS:
                        raise
                    except Exception as exc:
                        # Whatever a contract raises is a revert, so that
                        # badly typed arguments cannot fault the chain.
                        raise RevertError(f"{type(exc).__name__}: {exc}") from exc
                    finally:
                        events = contract._pending_events[:]
                        contract._pending_events.clear()
            success, error = True, None
        except _REVERTS as exc:
            self.store.rollback(mark)  # revert state changes
            success, error, return_value, events = False, str(exc), None, []
        # The base fee is burned (or sunk when the market runs with burn
        # disabled), the tip pays the miner.
        burn = meter.used * base_fee_wei
        tip = meter.used * tip_wei
        try:
            self._debit(tx.sender, burn + tip)
        except RevertError:
            available = self.store.balances.get(tx.sender, 0)
            self.store.balances[tx.sender] = 0
            burn = min(burn, available)
            tip = available - burn
        if burn_base:
            self.store.burned += burn
            self.store.fee_sink += tip
        else:
            self.store.fee_sink += burn + tip
        pending = self.blocks[-1]
        receipt = Receipt(tx_hash, success, meter.used, events, return_value, error,
                          len(self.blocks))
        pending.receipts.append(receipt)
        self.store.events.extend(events)
        self.store.write_block(pending, "gas_used", pending.gas_used + meter.used)
        # 110: the transaction envelope's overhead.
        self.store.write_block(pending, "byte_size", pending.byte_size + payload_bytes + 110)
        return receipt

    def call(self, address: str, method: str, *args: Any) -> Any:
        """Read-only contract call (no gas, no state mutation expected)."""
        with self.lock:
            contract = self.store.contracts[address]
            ctx = CallContext(
                sender="0xview",
                value=0,
                timestamp=self.time,
                block_number=len(self.blocks),
                gas=GasMeter(10**12),
                chain=self,
            )
            return getattr(contract, method)(ctx, *args)

    # -- scheduling (Ethereum-Alarm-Clock style) -----------------------------------

    def schedule_call(
        self, contract: str, method: str, delay: float, args: tuple = ()
    ) -> None:
        with self.lock, self.store.scope("schedule"):
            self.store.schedule_seq += 1
            self.store.calls[self.store.schedule_seq] = ScheduledCall(
                due_time=self.time + delay,
                sequence=self.store.schedule_seq,
                contract=contract,
                method=method,
                args=args,
            )

    # -- block production ------------------------------------------------------------

    def mine_block(self) -> Block:
        """Seal the pending block, advance time, fire due scheduled calls.

        On a mempool chain the pool first expires stale entries and then
        drains its best-priced transactions into the pending block (each
        drained execution is its own transaction scope), and the seal's
        scope stamps the block's base fee and rolls the fee market one
        step — so a crash anywhere in between recovers mid-drain exactly.
        """
        with self.lock:
            if self.pool is not None:
                self.pool.expire()
                self.pool.drain_into_block()
            with self.store.scope("block"):
                sealed = self.blocks[-1]  # stamped with the time it is sealed at
                base_fee = 0 if self.pool is None else self.pool.on_block_sealed(sealed)
                size = sealed.byte_size + self.base_block_bytes
                self.store.write_block(sealed, "byte_size", size)
                self.store.write_block(sealed, "base_fee_wei", base_fee)
                self.store.add_block(
                    Block(len(self.blocks), self.time + self.block_time, sealed.block_hash)
                )
            self._fire_due_calls()
            return sealed

    def advance_time(self, seconds: float) -> None:
        """Mine blocks until ``seconds`` of chain time have passed."""
        target = self.time + seconds
        while self.time < target:
            self.mine_block()

    def _due_calls(self) -> list[ScheduledCall]:
        """The scheduled calls due by now, in firing order."""
        now = self.time
        return sorted(call for call in self.store.calls.values() if call.due_time <= now)

    def _fire_due_calls(self) -> None:
        due = self._due_calls()
        if not due:
            return
        # The scheduler account is ensured in its own record.
        with self.store.scope("account"):
            self.store.balances.setdefault(SCHEDULER, 0)
        # Each contract class sees its instances' due calls together before
        # any of them fires (a read: nothing here touches the store).
        by_class: dict[type[Contract], list[tuple[Contract, ScheduledCall]]] = {}
        for call in due:
            contract = self.store.contracts.get(call.contract)
            if contract is not None:
                by_class.setdefault(type(contract), []).append((contract, call))
        with ExitStack() as scopes:
            for contract_class, calls in by_class.items():
                scopes.enter_context(contract_class.due_calls_scope(calls))
            while due:
                # A call scheduled by one that fires is due no earlier than
                # now and has a later sequence, so it fires after these.
                for call in due:
                    tx = Transaction(
                        sender=SCHEDULER,
                        to=call.contract,
                        method=call.method,
                        args=call.args,
                        gas_limit=self.block_gas_limit,
                        gas_price_gwei=0.0,  # prepaid by the contract's deposit model
                    )
                    # Unscheduled in its own transaction's record (``transact``):
                    # a crash before that commit recovers with the call still
                    # queued, and the next block fires it.
                    self._firing = (call, tx)
                    try:
                        self.transact(tx)
                    finally:
                        self._firing = None
                due = self._due_calls()

    # -- introspection ------------------------------------------------------------------

    def chain_bytes(self) -> int:
        return sum(block.byte_size for block in self.blocks)

    def congestion_seconds(self) -> float:
        """Chain time the recorded traffic occupies under the gas limit.

        The simulator appends every transaction to the current pending
        block, so a burst that would not fit one real block still lands in
        one simulated block.  This translates each block's recorded gas
        back into the block slots it would actually occupy —
        ``ceil(gas_used / block_gas_limit)`` — and prices them in seconds.
        Idle blocks carry no settlement traffic and are not counted.
        The fabric uses this as its per-lane settlement-latency metric.
        """
        occupied_slots = sum(
            -(-block.gas_used // self.block_gas_limit)
            for block in self.blocks
            if block.gas_used > 0
        )
        return occupied_slots * self.block_time

    def events_named(self, name: str) -> list[Event]:
        return [event for event in self.events if event.name == name]
