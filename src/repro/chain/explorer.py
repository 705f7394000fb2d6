"""Chain explorer: the read side of the simulated blockchain.

The paper's transparency argument rests on anyone being able to inspect
audit trails; this module is that "anyone".  It answers the questions the
evaluation needs (per-contract gas, audit outcomes, trail bytes, balance
flows) and exports them as plain dicts for JSON serialisation.

Works over a single :class:`~repro.chain.blockchain.Blockchain` or a
:class:`~repro.chain.fabric.ShardedChainFabric`: on a fabric every query
spans all lanes, and the export gains a per-lane section (height,
transaction count, gas totals, congestion seconds) so gas accounting
stays per-lane honest under sharding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .blockchain import Blockchain
from .contracts.audit_contract import AuditContract
from .contracts.checkpoint_contract import CheckpointContract
from .contracts.reputation import ReputationRegistry

#: Event names the dispute/arbitration flow can emit (PROTOCOL.md sec. 7).
DISPUTE_EVENT_NAMES = (
    "disputed",
    "dispute_upheld",
    "dispute_overturned",
    "collateral_slashed",
    "stake_slashed",
)

#: Event names the checkpoint rollup can emit (PROTOCOL.md sec. 9).
CHECKPOINT_EVENT_NAMES = (
    "checkpointed",
    "checkpoint_challenged",
    "checkpoint_upheld",
    "checkpoint_slashed",
    "checkpoint_finalized",
)


@dataclass(frozen=True)
class ContractSummary:
    address: str
    state: str
    rounds: int
    passes: int
    fails: int
    total_gas: int
    trail_bytes: int
    disputes: int = 0
    reject_reasons: tuple[str, ...] = ()
    lane: int = 0


@dataclass(frozen=True)
class CheckpointSummary:
    """One posted epoch checkpoint as the explorer renders it."""

    address: str
    checkpoint_id: int
    epoch: int
    status: str
    leaves: int
    accepted: int
    rejected: int
    commitment_bytes: int
    gas_used: int
    fraud_reason: str | None = None
    lane: int = 0


@dataclass(frozen=True)
class FeeMarketSummary:
    """One lane's fee-market telemetry (zeroes when no mempool attached)."""

    lane: int
    base_fee_wei: int
    peak_base_fee_wei: int
    burned_wei: int
    pending: int
    submitted: int
    drained: int
    replaced: int
    evicted: int
    expired: int
    rejections: dict[str, int]
    priority_inversions: int


@dataclass(frozen=True)
class LaneSummary:
    """One lane's ledger totals (the per-lane gas-meter section)."""

    lane: int
    height: int
    transactions: int
    gas_used: int
    chain_bytes: int
    fee_sink_wei: int
    congestion_seconds: float
    audit_contracts: int
    checkpoints: int


class ChainExplorer:
    """Read-only queries over a simulated chain or a sharded fabric."""

    def __init__(self, chain):
        self.chain = chain
        if hasattr(chain, "lanes"):  # ShardedChainFabric
            self._lanes: list[Blockchain] = list(chain.lanes)
        else:
            self._lanes = [chain]

    @property
    def sharded(self) -> bool:
        return len(self._lanes) > 1

    def _lane_contracts(self):
        for lane_index, lane in enumerate(self._lanes):
            for address, contract in lane._contracts.items():
                yield lane_index, address, contract

    def _events(self):
        for lane in self._lanes:
            yield from lane.events

    # -- blocks / transactions ------------------------------------------------

    def height(self) -> int:
        """Block height (the tallest lane's, on a fabric)."""
        return max(len(lane.blocks) - 1 for lane in self._lanes)

    def block_summaries(self) -> list[dict]:
        out = []
        for lane_index, lane in enumerate(self._lanes):
            for block in lane.blocks:
                summary = {
                    "number": block.number,
                    "timestamp": block.timestamp,
                    "tx_count": len(block.receipts),
                    "gas_used": block.gas_used,
                    "byte_size": block.byte_size,
                    "base_fee_wei": block.base_fee_wei,
                }
                if self.sharded:
                    summary["lane"] = lane_index
                out.append(summary)
        return out

    def transaction_count(self) -> int:
        return sum(
            len(block.receipts)
            for lane in self._lanes
            for block in lane.blocks
        )

    def failed_transactions(self) -> list[dict]:
        out = []
        for lane_index, lane in enumerate(self._lanes):
            for block in lane.blocks:
                for receipt in block.receipts:
                    if not receipt.success:
                        entry = {
                            "block": block.number,
                            "tx": receipt.tx_hash[:16],
                            "error": receipt.error,
                            "gas_used": receipt.gas_used,
                        }
                        if self.sharded:
                            entry["lane"] = lane_index
                        out.append(entry)
        return out

    # -- events -------------------------------------------------------------------

    def event_log(self, name: str | None = None) -> list[dict]:
        return [
            {"contract": e.contract[:16], "name": e.name, "payload": e.payload}
            for e in self._events()
            if name is None or e.name == name
        ]

    def event_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self._events():
            counts[event.name] = counts.get(event.name, 0) + 1
        return counts

    # -- audit contracts -------------------------------------------------------------

    def audit_contracts(self) -> list[ContractSummary]:
        out = []
        for lane_index, address, contract in self._lane_contracts():
            if isinstance(contract, AuditContract):
                out.append(
                    ContractSummary(
                        address=address,
                        state=contract.state.value,
                        rounds=len(contract.rounds),
                        passes=contract.passes,
                        fails=contract.fails,
                        total_gas=contract.total_audit_gas(),
                        trail_bytes=contract.total_trail_bytes(),
                        disputes=sum(
                            1 for r in contract.rounds if r.disputed_by is not None
                        ),
                        reject_reasons=tuple(
                            r.reject_reason
                            for r in contract.rounds
                            if r.reject_reason is not None
                        ),
                        lane=lane_index,
                    )
                )
        return out

    def total_audit_gas(self) -> int:
        return sum(summary.total_gas for summary in self.audit_contracts())

    # -- checkpoints (epoch rollup) --------------------------------------------

    def checkpoint_contracts(self) -> list[CheckpointSummary]:
        """Every posted checkpoint across all deployed rollup contracts."""
        out = []
        for lane_index, address, contract in self._lane_contracts():
            if not isinstance(contract, CheckpointContract):
                continue
            for entry in contract.checkpoints:
                out.append(
                    CheckpointSummary(
                        address=address,
                        checkpoint_id=entry.checkpoint_id,
                        epoch=entry.commitment.epoch,
                        status=entry.status.value,
                        leaves=entry.commitment.num_leaves,
                        accepted=entry.commitment.accepted,
                        rejected=entry.commitment.rejected,
                        commitment_bytes=entry.commitment_bytes,
                        gas_used=entry.gas_used,
                        fraud_reason=entry.fraud_reason,
                        lane=lane_index,
                    )
                )
        return out

    def checkpoint_log(self) -> list[dict]:
        """Every checkpoint-lifecycle event, in per-lane emission order."""
        return [
            {"contract": e.contract[:16], "name": e.name, "payload": e.payload}
            for e in self._events()
            if e.name in CHECKPOINT_EVENT_NAMES
        ]

    def checkpoint_trail_bytes(self) -> int:
        """On-chain commitment bytes across all rollup contracts."""
        return sum(s.commitment_bytes for s in self.checkpoint_contracts())

    # -- lanes -----------------------------------------------------------------

    def lane_summaries(self) -> list[LaneSummary]:
        """Per-lane ledger totals: the fabric's honest gas accounting.

        Each lane's gas total is the sum of its sealed blocks' gas meters,
        so the fabric-wide total always decomposes exactly into lanes
        (asserted by the fabric tests).
        """
        out = []
        for lane_index, lane in enumerate(self._lanes):
            out.append(
                LaneSummary(
                    lane=lane_index,
                    height=len(lane.blocks) - 1,
                    transactions=sum(
                        len(block.receipts) for block in lane.blocks
                    ),
                    gas_used=sum(block.gas_used for block in lane.blocks),
                    chain_bytes=lane.chain_bytes(),
                    fee_sink_wei=lane.fee_sink,
                    congestion_seconds=lane.congestion_seconds(),
                    audit_contracts=sum(
                        1
                        for contract in lane._contracts.values()
                        if isinstance(contract, AuditContract)
                    ),
                    checkpoints=sum(
                        len(contract.checkpoints)
                        for contract in lane._contracts.values()
                        if isinstance(contract, CheckpointContract)
                    ),
                )
            )
        return out

    # -- fee market / mempool --------------------------------------------------

    @property
    def has_fee_market(self) -> bool:
        return any(lane.pool is not None for lane in self._lanes)

    def base_fee_series(self, lane: int = 0) -> list[int]:
        """Per-sealed-block base fee (wei/gas) of one lane, oldest first."""
        blocks = self._lanes[lane].blocks
        return [block.base_fee_wei for block in blocks[:-1]]

    def tip_series(self, lane: int = 0) -> list[float]:
        """Mean effective tip (wei/gas) of drained txs per sealed block.

        Blocks that included no pool traffic report 0.  Receipts store a
        block number of ``len(blocks)`` at execution time (one past the
        pending block's index), hence the ``+ 1`` when joining the pool's
        per-block tip log back onto sealed blocks.
        """
        chain = self._lanes[lane]
        if chain.pool is None:
            return [0.0 for _ in chain.blocks[:-1]]
        out = []
        for block in chain.blocks[:-1]:
            tips = chain.pool.block_tips.get(block.number + 1, [])
            out.append(sum(tips) / len(tips) if tips else 0.0)
        return out

    def eviction_series(self) -> list[dict]:
        """Every pool eviction/expiry burst across lanes, time-ordered."""
        out = []
        for lane_index, lane in enumerate(self._lanes):
            if lane.pool is None:
                continue
            for when, reason, count in lane.pool.eviction_series:
                out.append(
                    {"time": when, "lane": lane_index, "reason": reason, "count": count}
                )
        return sorted(out, key=lambda row: (row["time"], row["lane"]))

    def fee_market_summaries(self) -> list[FeeMarketSummary]:
        out = []
        for lane_index, lane in enumerate(self._lanes):
            pool = lane.pool
            if pool is None:
                continue
            series = self.base_fee_series(lane_index)
            out.append(
                FeeMarketSummary(
                    lane=lane_index,
                    base_fee_wei=lane.base_fee_wei,
                    peak_base_fee_wei=max(series, default=lane.base_fee_wei),
                    burned_wei=lane.burned,
                    pending=len(pool),
                    submitted=pool.stats["submitted"],
                    drained=pool.stats["drained"],
                    replaced=pool.stats["replaced"],
                    evicted=pool.stats["evicted"],
                    expired=pool.stats["expired"],
                    rejections=dict(pool.rejections),
                    priority_inversions=pool.priority_inversions,
                )
            )
        return out

    # -- disputes / reputation -------------------------------------------------

    def dispute_log(self) -> list[dict]:
        """Every dispute-flow event, in per-lane emission order."""
        return [
            {"contract": e.contract[:16], "name": e.name, "payload": e.payload}
            for e in self._events()
            if e.name in DISPUTE_EVENT_NAMES
        ]

    def reputation_snapshot(self) -> list[dict]:
        """Provider records from every deployed reputation registry."""
        out = []
        for _, address, contract in self._lane_contracts():
            if not isinstance(contract, ReputationRegistry):
                continue
            for provider, record in contract.providers.items():
                out.append(
                    {
                        "registry": address[:16],
                        "provider": provider[:16],
                        "score": round(record.score, 4),
                        "stake_wei": record.stake_wei,
                        "passes": record.passes,
                        "fails": record.fails,
                        "banned": record.banned,
                    }
                )
        return out

    # -- export ---------------------------------------------------------------------------

    def export_json(self) -> str:
        payload = {
            "height": self.height(),
            "transactions": self.transaction_count(),
            "chain_bytes": sum(lane.chain_bytes() for lane in self._lanes),
            "fee_sink_wei": sum(lane.fee_sink for lane in self._lanes),
            "events": self.event_counts(),
            "audit_contracts": [vars(s) for s in self.audit_contracts()],
            "disputes": self.dispute_log(),
            "reputation": self.reputation_snapshot(),
            "checkpoints": [vars(s) for s in self.checkpoint_contracts()],
        }
        if self.has_fee_market:
            payload["fee_market"] = {
                "lanes": [vars(s) for s in self.fee_market_summaries()],
                "base_fee_series": self.base_fee_series(0),
                "tip_series": self.tip_series(0),
                "evictions": self.eviction_series(),
            }
        if self.sharded:
            payload["lanes"] = [vars(s) for s in self.lane_summaries()]
        return json.dumps(payload, indent=2, sort_keys=True)
