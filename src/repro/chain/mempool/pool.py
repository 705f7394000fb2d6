"""The pending-transaction pool: admission, ordering, eviction, drain.

This is the layer the paper's evaluation abstracts away: between a client
signing a transaction and a block including it sits a priority queue with
bounded capacity.  Under audit storms (every provider posting proofs at an
epoch boundary) that queue — not the verifier — decides which audits
settle inside their windows, so the pool is modelled with the same rules
real Ethereum clients enforce:

* **ordering** — a max-heap on the effective tip
  (``min(tip_cap, max_fee - base_fee)``), FIFO (submission sequence)
  within equal price; within one sender strictly by nonce,
* **nonce sequencing** — per-sender nonces are gapless: a sender's
  pending nonces are exactly ``[mined, mined + pending_count)``; evicting
  a transaction evicts the sender's whole nonce tail above it,
* **replace-by-fee** — resubmitting an occupied nonce must bump both the
  tip cap and the fee cap by ``rbf_bump_percent``,
* **watermark backpressure** — at the high watermark the pool evicts the
  cheapest tails down to the low watermark; an arrival priced at or below
  every resident transaction is rejected with :class:`PoolFull`.  The
  submitting sender's own entries are never selected as victims: the
  arrival's nonce extends that sender's pending run, and evicting the
  run's tail would re-open a gap under the nonce just assigned, stranding
  the new entry (it could never drain or expire),
* **fee escrow** — admission debits ``max_fee * gas_limit`` from the
  sender into the ``0xmempool`` escrow account and refunds it on drain,
  eviction or expiry, so pending transactions cannot double-spend their
  fee budget and conservation (`Blockchain.total_supply`) holds at every
  instant.

All pool state (entries, sequence counters, mined nonces, the base fee,
the burn total) lives on the chain's :class:`~repro.chain.state.StateStore`,
so a :class:`~repro.chain.state.WalStateStore` persists the pool and crash
recovery replays it bit-identically (``StateStore.pool_hash``).  Admission
and expiry each run in one :meth:`~repro.chain.state.StateStore.scope`; a
drained transaction runs in the chain's own transaction scope
(``Blockchain._transact``), which alone writes the transaction's record.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass, field

from ...obs.registry import get_registry
from ..transaction import Receipt, Transaction
from .fee_market import (
    FeeMarketConfig,
    effective_tip_wei,
    gwei_to_wei,
    suggest_fees,
)

#: The escrow account that holds pending transactions' fee budgets.
ESCROW_ACCOUNT = "0xmempool"


# --------------------------------------------------------------------------- #
# Rejection taxonomy (the codes PROTOCOL.md documents)                        #
# --------------------------------------------------------------------------- #


class MempoolRejection(RuntimeError):
    """Base class for every admission failure; ``code`` names the reason."""

    code = "rejected"


class PoolFull(MempoolRejection):
    """The pool is at its high watermark and the arrival prices below it."""

    code = "pool-full"


class Underpriced(MempoolRejection):
    """The fee cap cannot cover the current base fee."""

    code = "underpriced"


class NonceTooLow(MempoolRejection):
    code = "nonce-too-low"


class NonceGap(MempoolRejection):
    code = "nonce-gap"


class NonceOccupied(MempoolRejection):
    """The nonce is already pending; resubmit with ``replace=True``."""

    code = "nonce-occupied"


class ReplacementUnderpriced(MempoolRejection):
    code = "replacement-underpriced"


class SenderLimitExceeded(MempoolRejection):
    code = "sender-limit"


class InsufficientFunds(MempoolRejection):
    """The sender cannot escrow ``max_fee * gas_limit``."""

    code = "insufficient-funds"


# --------------------------------------------------------------------------- #
# Configuration and entries                                                   #
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class MempoolConfig:
    """Pool sizing, pricing and hygiene knobs (all per lane)."""

    fee_market: FeeMarketConfig = FeeMarketConfig()
    high_watermark: int = 4096
    low_watermark: int = 3072
    max_per_sender: int = 64
    max_age_seconds: float = 3600.0
    rbf_bump_percent: int = 10

    def __post_init__(self) -> None:
        if not (0 < self.low_watermark <= self.high_watermark):
            raise ValueError("watermarks must satisfy 0 < low <= high")
        if self.max_per_sender < 1:
            raise ValueError("max_per_sender must be >= 1")


@dataclass(frozen=True)
class PendingEntry:
    """One admitted transaction, frozen so WAL diffing can use identity."""

    tx: Transaction
    payload_bytes: int
    max_fee_wei: int
    tip_cap_wei: int
    escrow_wei: int
    seq: int
    submitted_at: float

    def effective_tip(self, base_fee_wei: int) -> int:
        return effective_tip_wei(self.max_fee_wei, self.tip_cap_wei, base_fee_wei)


@dataclass
class SenderDrain:
    """One sender's drained transactions: gas used, tips paid (wei/gas,
    summed) and how many — telemetry that grows with senders, not traffic."""

    gas: int = 0
    tips: int = 0
    count: int = 0


class Mempool:
    """Behaviour over the store-resident pool of one chain (lane)."""

    def __init__(
        self,
        chain,
        config: MempoolConfig | None = None,
    ):
        self.chain = chain
        self.config = config or MempoolConfig()
        store = chain.store
        if ESCROW_ACCOUNT not in store.balances:
            # First attach on this store: create the escrow account and
            # seed the base fee.  On a WAL reopen the account (and the
            # evolved base fee) are already durable, so this is skipped
            # and recovery stays bit-identical.
            with store.scope():
                store.balances[ESCROW_ACCOUNT] = 0
                store.base_fee_wei = self.config.fee_market.initial_base_fee_wei
        # In-memory telemetry; none of this is persisted state —
        # ``StateStore.pool_hash`` is.
        self.stats = {
            "submitted": 0,
            "drained": 0,
            "replaced": 0,
            "evicted": 0,
            "expired": 0,
        }
        self.rejections: dict[str, int] = {}
        self.priority_inversions = 0
        self.drained_by_sender: dict[str, SenderDrain] = {}
        self.eviction_series: list[tuple[float, str, int]] = []
        self.block_tips: dict[int, list[int]] = {}  # block number -> tips (wei/gas)
        # Process-wide registry mirror (aggregated across lanes; the
        # per-pool dicts above stay the per-lane source of truth).
        registry = get_registry()
        self._m_stats = {
            stat: registry.instrument(f"mempool_{stat}_total") for stat in self.stats
        }
        self._m_rejections = registry.instrument("mempool_rejections_total")
        self._m_inversions = registry.instrument("mempool_priority_inversions_total")
        self._m_tips = registry.instrument("mempool_tips_paid_total")

    # -- views ----------------------------------------------------------------

    @property
    def store(self):
        return self.chain.store

    @property
    def base_fee_wei(self) -> int:
        return self.store.base_fee_wei

    def __len__(self) -> int:
        return len(self.store.pool)

    def pending_count(self, sender: str) -> int:
        """How many nonces ``sender`` has pending: a gapless run from its mined one."""
        pool = self.store.pool
        first = nonce = self.store.mined_nonces.get(sender, 0)
        while (sender, nonce) in pool:
            nonce += 1
        return nonce - first

    def tip_floor_wei(self) -> int:
        """The cheapest resident effective tip (admission floor when full)."""
        base = self.store.base_fee_wei
        return min(
            (entry.effective_tip(base) for entry in self.store.pool.values()),
            default=0,
        )

    def suggest_fees(self, tip_gwei: float = 1.0) -> tuple[float, float]:
        """Default tip policy against the live base fee, in gwei."""
        max_fee_wei, tip_wei = suggest_fees(self.store.base_fee_wei, tip_gwei)
        return max_fee_wei / gwei_to_wei(1.0), tip_wei / gwei_to_wei(1.0)

    def rejection_total(self) -> int:
        return sum(self.rejections.values())

    # -- admission ------------------------------------------------------------

    def _bump(self, stat: str, amount: int = 1) -> None:
        """One telemetry event: per-pool dict plus the registry mirror."""
        self.stats[stat] += amount
        self._m_stats[stat].inc(amount)

    def _reject(self, exc: MempoolRejection):
        self.rejections[exc.code] = self.rejections.get(exc.code, 0) + 1
        self._m_rejections.labels(exc.code).inc()
        raise exc

    def _fees_of(self, tx: Transaction) -> tuple[int, int]:
        max_fee_wei = gwei_to_wei(
            tx.max_fee_gwei if tx.max_fee_gwei is not None else tx.gas_price_gwei
        )
        if tx.priority_fee_gwei is not None:
            tip_cap_wei = min(max_fee_wei, gwei_to_wei(tx.priority_fee_gwei))
        else:
            tip_cap_wei = max_fee_wei
        return max_fee_wei, tip_cap_wei

    def submit(
        self, tx: Transaction, payload_bytes: int = 0, *, replace: bool = False
    ) -> PendingEntry:
        """Admit ``tx`` (or raise a :class:`MempoolRejection`).

        Nonces: with ``replace=True`` the transaction's own nonce names
        the pending slot to replace-by-fee.  Otherwise, on a
        ``require_signatures`` chain the signed nonce is used (and must
        be the sender's next), while unsigned chains auto-assign the next
        nonce — callers never track a counter themselves.
        """
        store = self.store
        sender = tx.sender
        max_fee_wei, tip_cap_wei = self._fees_of(tx)
        if max_fee_wei < store.base_fee_wei:
            self._reject(
                Underpriced(
                    f"max fee {max_fee_wei} wei/gas is below the base fee "
                    f"{store.base_fee_wei} wei/gas"
                )
            )
        mined = store.mined_nonces.get(sender, 0)
        pending = self.pending_count(sender)
        old: PendingEntry | None = None
        if replace:
            nonce = tx.nonce
            if nonce < mined:
                self._reject(NonceTooLow(f"nonce {nonce} already mined (next {mined})"))
            old = store.pool.get((sender, nonce))
            if old is None:
                self._reject(NonceGap(f"nonce {nonce} is not pending for {sender[:10]}"))
            bump = 100 + self.config.rbf_bump_percent
            if (
                tip_cap_wei * 100 < old.tip_cap_wei * bump
                or max_fee_wei * 100 < old.max_fee_wei * bump
            ):
                self._reject(
                    ReplacementUnderpriced(
                        f"replacement must raise tip and fee cap by >= "
                        f"{self.config.rbf_bump_percent}%"
                    )
                )
        else:
            nonce = mined + pending
            if self.chain.require_signatures:
                if tx.nonce < mined:
                    self._reject(
                        NonceTooLow(f"nonce {tx.nonce} already mined (next {mined})")
                    )
                if tx.nonce < nonce:
                    self._reject(
                        NonceOccupied(
                            f"nonce {tx.nonce} is pending; resubmit with replace=True"
                        )
                    )
                if tx.nonce > nonce:
                    self._reject(
                        NonceGap(f"nonce {tx.nonce} leaves a gap (expected {nonce})")
                    )
            if pending >= self.config.max_per_sender:
                self._reject(
                    SenderLimitExceeded(
                        f"{sender[:10]} already has {pending} pending transactions"
                    )
                )
            if len(store.pool) >= self.config.high_watermark:
                base = store.base_fee_wei
                new_tip = effective_tip_wei(max_fee_wei, tip_cap_wei, base)
                if new_tip <= self.tip_floor_wei():
                    self._reject(
                        PoolFull(
                            f"pool at high watermark ({len(store.pool)}) and "
                            f"tip {new_tip} wei/gas does not beat the floor"
                        )
                    )
                if pending >= self.config.high_watermark:
                    # The sender's own pending run fills the pool, and that
                    # run is exempt from victim selection (evicting it would
                    # gap the nonce this arrival extends), so no eviction
                    # can make room.  Only reachable when max_per_sender
                    # exceeds the high watermark.
                    self._reject(
                        PoolFull(
                            f"{sender[:10]}'s own {pending} pending "
                            f"transactions fill the pool and cannot be "
                            f"evicted to admit their successor"
                        )
                    )
        escrow_wei = max_fee_wei * tx.gas_limit
        refund = old.escrow_wei if old is not None else 0
        if self.chain.balance_of(sender) + refund < escrow_wei:
            self._reject(
                InsufficientFunds(
                    f"{sender[:10]} cannot escrow {escrow_wei} wei of fee budget"
                )
            )
        entry = PendingEntry(
            tx=dataclasses.replace(tx, nonce=nonce, tx_id=0),
            payload_bytes=payload_bytes,
            max_fee_wei=max_fee_wei,
            tip_cap_wei=tip_cap_wei,
            escrow_wei=escrow_wei,
            seq=store.pool_seq,
            submitted_at=self.chain.time,
        )
        with store.scope():
            if old is not None:
                self._remove_entry(sender, nonce)
                self._bump("replaced")
            elif len(store.pool) >= self.config.high_watermark:
                # ``nonce`` (= mined + pending) is already fixed, so the
                # submitting sender's tail must survive this eviction —
                # shortening it would strand the new entry at a gapped
                # nonce that neither drain nor expiry could ever reclaim.
                self._evict_down_to(
                    min(self.config.low_watermark, self.config.high_watermark - 1),
                    "evicted",
                    protect=sender,
                )
            store.pool_seq += 1
            store.balances[sender] = store.balances.get(sender, 0) - entry.escrow_wei
            store.balances[ESCROW_ACCOUNT] += entry.escrow_wei
            store.pool[(sender, nonce)] = entry
        self._bump("submitted")
        return entry

    # -- eviction -------------------------------------------------------------

    def _remove_entry(self, sender: str, nonce: int) -> None:
        """Drop one entry and refund its escrow (inside an open scope)."""
        store = self.store
        entry = store.pool.pop((sender, nonce))
        store.balances[ESCROW_ACCOUNT] -= entry.escrow_wei
        store.balances[sender] = store.balances.get(sender, 0) + entry.escrow_wei

    def _evict_tail(self, sender: str, from_nonce: int) -> int:
        """Evict ``(sender, from_nonce)`` and every higher pending nonce.

        Whole-tail eviction is what keeps per-sender nonces gapless: a
        hole in the middle of a sender's sequence would strand everything
        behind it forever.
        """
        top = self.store.mined_nonces.get(sender, 0) + self.pending_count(sender)
        for nonce in range(top - 1, from_nonce - 1, -1):
            self._remove_entry(sender, nonce)
        return top - from_nonce

    def _evict_down_to(self, target: int, stat: str, *, protect: str | None = None) -> int:
        """Evict cheapest tails until ``len(pool) <= target``.

        ``protect`` exempts one sender from victim selection (the
        submitter during watermark backpressure, whose next nonce is
        already committed); if only protected entries remain the loop
        stops short of ``target`` rather than gap that sender's run.
        """
        store = self.store
        base = store.base_fee_wei
        evicted = 0
        while len(store.pool) > target:
            candidates = [key for key in store.pool if key[0] != protect]
            if not candidates:
                break
            victim_key = min(
                candidates,
                key=lambda key: (store.pool[key].effective_tip(base), -store.pool[key].seq),
            )
            evicted += self._evict_tail(*victim_key)
        if evicted:
            self._bump(stat, evicted)
            self.eviction_series.append((self.chain.time, stat, evicted))
        return evicted

    def expire(self) -> int:
        """Drop entries older than ``max_age_seconds`` (and their tails)."""
        store = self.store
        deadline = self.chain.time - self.config.max_age_seconds
        stale: dict[str, int] = {}
        for (sender, nonce), entry in store.pool.items():
            if entry.submitted_at <= deadline:
                stale[sender] = min(stale.get(sender, nonce), nonce)
        if not stale:
            return 0
        expired = 0
        with store.scope():
            for sender in sorted(stale):
                expired += self._evict_tail(sender, stale[sender])
        self._bump("expired", expired)
        self.eviction_series.append((self.chain.time, "expired", expired))
        return expired

    # -- drain (block building) ----------------------------------------------

    def drain_into_block(self) -> list[Receipt]:
        """Move the best-priced transactions into the current pending block.

        Called by ``Blockchain.mine_block`` before sealing.  Selection is
        the Ethereum miner loop: a heap of per-sender *head* transactions
        (lowest pending nonce each) keyed on effective tip then FIFO
        sequence; popping a head promotes that sender's next nonce.
        Packing is priority-ordered FCFS under the remaining block gas:
        the first head whose ``gas_limit`` reservation does not fit ends
        the block — no gap-filling behind it, which is what makes the
        priority-inversion count structurally zero.
        """
        chain = self.chain
        store = self.store
        base = store.base_fee_wei
        pops = 0
        heads: list[tuple[int, int, str]] = []
        push_round: dict[tuple[str, int], int] = {}

        def push_head(sender: str) -> None:
            nonce = store.mined_nonces.get(sender, 0)
            entry = store.pool.get((sender, nonce))
            if entry is None or entry.max_fee_wei < base:
                return  # sender (and its whole nonce chain) waits
            heapq.heappush(heads, (-entry.effective_tip(base), entry.seq, sender))
            push_round[(sender, entry.seq)] = pops

        for sender in sorted({sender for sender, _nonce in store.pool}):
            push_head(sender)
        receipts: list[Receipt] = []
        last_tip: int | None = None
        while heads:
            neg_tip, seq, sender = heapq.heappop(heads)
            nonce = store.mined_nonces.get(sender, 0)
            entry = store.pool.get((sender, nonce))
            if entry is None or entry.seq != seq:
                continue  # stale head (evicted or replaced since push)
            pending_block = chain.blocks[-1]
            if entry.tx.gas_limit > chain.block_gas_limit - pending_block.gas_used:
                break
            tip = -neg_tip
            if last_tip is not None and tip > last_tip and push_round[(sender, seq)] < pops:
                self.priority_inversions += 1
                self._m_inversions.inc()
            last_tip = tip
            pops += 1
            receipts.append(self._execute_entry(entry, sender, nonce, base, tip))
            push_head(sender)
        return receipts

    def _execute_entry(
        self, entry: PendingEntry, sender: str, nonce: int, base: int, tip: int
    ) -> Receipt:
        """Pop + refund escrow + execute, in the chain's one transaction scope.

        Mirrors the scheduled-call contract: a crash (or a fault) before
        that scope commits leaves the entry pending, and the next mined
        block re-drains it deterministically.
        """

        def claim() -> None:
            self._remove_entry(sender, nonce)
            self.store.mined_nonces[sender] = nonce + 1

        receipt = self.chain._transact(
            entry.tx, entry.payload_bytes, claim, base, tip, self.config.fee_market.burn_base_fee
        )
        self._bump("drained")
        drained = self.drained_by_sender.setdefault(sender, SenderDrain())
        drained.gas += receipt.gas_used
        drained.tips += tip
        drained.count += 1
        self.block_tips.setdefault(receipt.block_number, []).append(tip)
        if tip:
            self._m_tips.inc(tip * receipt.gas_used)
        return receipt

    def on_block_sealed(self, sealed) -> int:
        """Roll the base fee one step on the sealed block's gas (inside the
        seal's scope, so in its WAL record); returns the base fee the block's
        transactions paid, which ``mine_block`` stamps on it."""
        store = self.store
        paid = store.base_fee_wei
        store.base_fee_wei = self.config.fee_market.next_base_fee(
            paid, sealed.gas_used, self.chain.block_gas_limit
        )
        return paid
