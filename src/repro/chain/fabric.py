"""Sharded chain fabric: N independent lanes behind one chain-like facade.

The scaling axis the single :class:`~repro.chain.blockchain.Blockchain`
cannot offer: every contract, balance and receipt of one audit deployment
lives in exactly one *lane* (an ordinary ``Blockchain`` with its own
:class:`~repro.chain.state.StateStore`), and lanes produce blocks
concurrently on a lockstep clock.  Audit traffic that would serialize
through a single ``mine_block()`` loop spreads across lanes, so the
fabric's settlement latency for a burst of N verification transactions is
``max`` over lanes instead of ``sum`` — measured by
:meth:`ShardedChainFabric.settlement_chain_seconds` and reproduced by
``benchmarks/bench_sharded_fabric.py``.

Placement is deterministic: :func:`lane_index_for_key` hashes a stable
key (the audited file's name, an account label) so every participant —
aggregator, light client, fraud-proof challenger — independently derives
which lane holds which contract.  Cross-lane contract-to-contract calls
are deliberately unsupported (as in real sharded designs); value and
transactions route by recipient.

The facade mirrors the ``Blockchain`` surface that the agents
(:mod:`repro.chain.agents`), the DSN loop (:mod:`repro.dsn`) and the
explorer consume — ``mine_block`` (mines every lane), ``contract_at``,
``transact``, ``create_account``, ``deploy`` — so existing drivers run
unmodified on a fabric.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Iterator

from ..obs.registry import get_registry
from .blockchain import Block, Blockchain, Contract
from .state import MemoryStateStore, StateStore, WalStateStore
from .transaction import Event, Receipt, Transaction


def lane_index_for_key(key: int | str | bytes, num_lanes: int) -> int:
    """Deterministic contract→lane placement shared by every participant."""
    if num_lanes < 1:
        raise ValueError("num_lanes must be >= 1")
    if isinstance(key, int):
        material = b"int:" + key.to_bytes((key.bit_length() + 7) // 8 or 1, "big")
    elif isinstance(key, str):
        material = b"str:" + key.encode("utf-8")
    else:
        material = b"bytes:" + bytes(key)
    digest = hashlib.sha256(b"fabric-lane-v1:" + material).digest()
    return int.from_bytes(digest[:8], "big") % num_lanes


class ShardedChainFabric:
    """N block-producing lanes with deterministic placement and routing."""

    def __init__(
        self,
        num_lanes: int = 4,
        persist_dir=None,
        mempool=None,
    ):
        if num_lanes < 1:
            raise ValueError("a fabric needs at least one lane")

        def _store(index: int) -> StateStore:
            if persist_dir is None:
                return MemoryStateStore()
            from pathlib import Path

            return WalStateStore(Path(persist_dir) / f"lane-{index:03d}")

        self.lanes: list[Blockchain] = [
            Blockchain(store=_store(index), chain_id=index, mempool=mempool)
            for index in range(num_lanes)
        ]
        # Lazy routing caches: deploys may go straight at a lane (e.g.
        # through deploy_audit_contract's home-lane resolution), so the
        # fabric discovers placements by scanning and memoizing.  The
        # lock keeps scan-then-memoize atomic under concurrent ingress
        # (two RPC threads resolving the same fresh address).
        self._route_lock = threading.Lock()
        self._contract_lane: dict[str, int] = {}
        self._account_lane: dict[str, int] = {}
        # Registry mirror: cumulative counters update on every mined
        # round; live gauges (depth, base fees) attach via attach_gauges.
        self._registry = get_registry()
        self._m_blocks = self._registry.instrument("fabric_blocks_mined_total")
        self._m_txs = self._registry.instrument("fabric_txs_settled_total")
        self._gauge_hook = None

    # -- lanes ----------------------------------------------------------------

    @property
    def num_lanes(self) -> int:
        return len(self.lanes)

    def lane(self, index: int) -> Blockchain:
        return self.lanes[index]

    def __iter__(self) -> Iterator[Blockchain]:
        return iter(self.lanes)

    def lane_index_for(self, key: int | str | bytes) -> int:
        return lane_index_for_key(key, self.num_lanes)

    def home_lane(self, key: int | str | bytes) -> Blockchain:
        """The lane that owns everything placed under ``key``."""
        return self.lanes[self.lane_index_for(key)]

    def lane_index_of_contract(self, address: str) -> int:
        with self._route_lock:
            index = self._contract_lane.get(address)
            if index is None:
                for candidate, lane in enumerate(self.lanes):
                    if address in lane.store.contracts:
                        index = candidate
                        break
                if index is None:
                    raise KeyError(f"no lane holds contract {address[:12]}")
                self._contract_lane[address] = index
            return index

    def lane_index_of_account(self, address: str) -> int:
        with self._route_lock:
            index = self._account_lane.get(address)
            if index is None:
                for candidate, lane in enumerate(self.lanes):
                    if address in lane.store.balances:
                        index = candidate
                        break
                if index is None:
                    raise KeyError(f"no lane holds account {address[:12]}")
                self._account_lane[address] = index
            return index

    # -- chain facade ---------------------------------------------------------

    @property
    def time(self) -> float:
        return self.lanes[0].time

    @property
    def block_time(self) -> float:
        return self.lanes[0].block_time

    @property
    def events(self) -> list[Event]:
        merged: list[Event] = []
        for lane in self.lanes:
            merged.extend(lane.events)
        return merged

    def events_named(self, name: str) -> list[Event]:
        return [event for event in self.events if event.name == name]

    def create_account(
        self, balance_eth: float = 0.0, label: str = "", key=None
    ) -> str:
        """Create an account on the lane derived from ``key`` (or label)."""
        lane_index = self.lane_index_for(key if key is not None else label)
        address = self.lanes[lane_index].create_account(balance_eth, label)
        with self._route_lock:
            self._account_lane[address] = lane_index
        return address

    def deploy(
        self, contract: Contract, deployer: str, deposit_bytes: int = 0, key=None
    ) -> str:
        """Deploy next to the deployer (or onto ``key``'s home lane)."""
        if key is not None:
            lane_index = self.lane_index_for(key)
        else:
            try:
                lane_index = self.lane_index_of_account(deployer)
            except KeyError:
                lane_index = self.lane_index_for(deployer)
        address = self.lanes[lane_index].deploy(contract, deployer, deposit_bytes)
        with self._route_lock:
            self._contract_lane[address] = lane_index
        return address

    def contract_at(self, address: str) -> Contract:
        return self.lanes[self.lane_index_of_contract(address)].contract_at(address)

    def transact(self, tx: Transaction, payload_bytes: int = 0) -> Receipt:
        """Route a transaction to the lane owning its recipient."""
        return self.lanes[self.lane_index_for_tx(tx)].transact(tx, payload_bytes)

    def lane_index_for_tx(self, tx: Transaction) -> int:
        """The lane a transaction settles on (recipient-owned, like transact)."""
        if tx.to is not None:
            try:
                return self.lane_index_of_contract(tx.to)
            except KeyError:
                try:
                    return self.lane_index_of_account(tx.to)
                except KeyError:
                    return self.lane_index_for(tx.to)
        return self.lane_index_of_account(tx.sender)

    def submit(self, tx: Transaction, payload_bytes: int = 0, *, replace: bool = False):
        """Queue a transaction on its settlement lane's mempool."""
        return self.lanes[self.lane_index_for_tx(tx)].submit(
            tx, payload_bytes, replace=replace
        )

    def call(self, address: str, method: str, *args):
        return self.lanes[self.lane_index_of_contract(address)].call(
            address, method, *args
        )

    def balance_of(self, address: str) -> int:
        return sum(lane.balance_of(address) for lane in self.lanes)

    def mine_block(self) -> list[Block]:
        """Mine every lane once: the lockstep clock tick.

        Returns the sealed block of each lane (duck-type compatible with
        drivers that only need *a* mined-block signal).
        """
        blocks = [lane.mine_block() for lane in self.lanes]
        self._m_blocks.inc(len(blocks))
        settled = sum(len(block.receipts) for block in blocks)
        if settled:
            self._m_txs.inc(settled)
        return blocks

    def advance_time(self, seconds: float) -> None:
        target = self.time + seconds
        while self.time < target:
            self.mine_block()

    # -- persistence / fingerprint -------------------------------------------

    def state_hash(self) -> str:
        """Order-sensitive combination of every lane's canonical hash."""
        hasher = hashlib.sha256(b"fabric-state-v1")
        hasher.update(len(self.lanes).to_bytes(4, "big"))
        for lane in self.lanes:
            hasher.update(bytes.fromhex(lane.state_hash()))
        return hasher.hexdigest()

    def snapshot(self) -> None:
        for lane in self.lanes:
            lane.snapshot()

    def close(self) -> None:
        if self._gauge_hook is not None:
            self._registry.remove_collect_hook(self._gauge_hook)
            self._gauge_hook = None
        for lane in self.lanes:
            lane.close()

    # -- metrics --------------------------------------------------------------

    def chain_bytes(self) -> int:
        return sum(lane.chain_bytes() for lane in self.lanes)

    def total_gas_used(self) -> int:
        return sum(
            block.gas_used for lane in self.lanes for block in lane.blocks
        )

    def lane_gas_totals(self) -> list[int]:
        return [
            sum(block.gas_used for block in lane.blocks) for lane in self.lanes
        ]

    def pending_total(self) -> int:
        """Transactions queued across every lane's mempool."""
        return sum(len(lane.pool) for lane in self.lanes if lane.pool is not None)

    def mine_until_pools_drain(self, max_blocks: int = 10_000) -> int:
        """Lockstep-mine until no lane holds pending transactions."""
        mined = 0
        while self.pending_total() and mined < max_blocks:
            self.mine_block()
            mined += 1
        if self.pending_total():
            raise RuntimeError(f"pools not drained after {max_blocks} blocks")
        return mined

    def lane_base_fees(self) -> list[int]:
        """Per-lane base fee in wei/gas: the fabric's congestion price map.

        Lanes are independent fee markets, so a hot lane (one holding a
        popular contract) prices above its siblings; the spread is what
        :class:`~repro.sim.throughput.CongestionPricingModel` consumes to
        turn lane counts into steady-state inclusion economics.
        """
        return [lane.base_fee_wei for lane in self.lanes]

    def congestion_premium(self) -> float:
        """Hottest lane's base fee over the fleet minimum (1.0 = uniform)."""
        fees = self.lane_base_fees()
        floor = min(fees)
        return (max(fees) / floor) if floor else 1.0

    def settlement_chain_seconds(self) -> float:
        """Chain time to absorb the recorded traffic: max over lanes.

        Lanes mine concurrently, so the fabric's settlement latency is the
        slowest lane's :meth:`~repro.chain.blockchain.Blockchain.congestion_seconds`
        — the honest denominator for "audits settled per chain-second".
        """
        return max(lane.congestion_seconds() for lane in self.lanes)

    def attach_gauges(self) -> None:
        """Bind this fabric's live values to pull-style registry gauges.

        Registers a collect hook that refreshes ``mempool_depth``,
        ``fabric_lane_base_fee_wei{lane}`` and
        ``fabric_settlement_chain_seconds`` before every snapshot/export.
        Detached automatically by :meth:`close` so a long test session
        never samples a dead fabric.
        """
        if self._gauge_hook is not None:
            return
        registry = self._registry
        depth = registry.instrument("mempool_depth")
        base_fee = registry.instrument("fabric_lane_base_fee_wei")
        chain_seconds = registry.instrument("fabric_settlement_chain_seconds")

        def refresh() -> None:
            depth.set(self.pending_total())
            for index, fee in enumerate(self.lane_base_fees()):
                base_fee.labels(str(index)).set(fee)
            chain_seconds.set(self.settlement_chain_seconds())

        self._gauge_hook = refresh
        registry.add_collect_hook(refresh)
