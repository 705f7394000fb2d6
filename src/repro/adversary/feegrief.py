"""Fee-griefing adversary: buy block space to crowd out audit proofs.

Unlike every strategy in :mod:`repro.adversary.strategies` — which cheat
*inside* the proof protocol — a fee griefer attacks the settlement layer
underneath it: by flooding the mempool with high-tip filler transactions
it drives the EIP-1559 base fee up and outbids honest proof submissions,
hoping providers miss their response windows (and get slashed) without
any cryptographic misbehaviour at all.

The countermeasure is economic and observational:

* honest senders that track the base fee (``Mempool.suggest_fees``) keep
  their transactions admissible, so griefing can delay but not censor —
  the griefer pays the (burned) base fee on every block it occupies,
* the attack is *visible*: :class:`FeeGriefReport` flags senders whose
  drained-gas share and tip premium over a window exceed thresholds, the
  same telemetry the explorer exports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.mempool import MempoolRejection
from ..chain.transaction import Transaction


@dataclass
class FeeGriefer:
    """Floods one chain's pool with high-tip gas-sink filler every block.

    ``aggression`` scales the bid: the griefer tips ``aggression`` times
    the honest default and sizes its filler to ``gas_share`` of the block
    gas limit per block.  ``budget_wei`` caps total spend (escrow-level);
    a griefer that runs dry goes quiet, which is what lets the base fee
    decay back to the floor after a storm.
    """

    chain: object
    account: str
    sink_address: str
    gas_share: float = 1.0
    aggression: float = 4.0
    tx_gas: int = 500_000
    budget_wei: int | None = None
    spent_wei: int = 0
    submitted: int = 0
    rejected: int = 0

    def on_block(self) -> int:
        """Submit this block's filler burst; returns admitted tx count."""
        pool = self.chain.pool
        assert pool is not None, "fee griefing needs a mempool-enabled chain"
        budget_gas = int(self.chain.block_gas_limit * self.gas_share)
        count = max(1, budget_gas // self.tx_gas)
        max_fee_gwei, tip_gwei = pool.suggest_fees(1.0)
        tip_gwei *= self.aggression
        max_fee_gwei += tip_gwei
        admitted = 0
        for _ in range(count):
            escrow = int(max_fee_gwei * 10**9) * self.tx_gas
            if self.budget_wei is not None and self.spent_wei + escrow > self.budget_wei:
                break
            try:
                self.chain.submit(
                    Transaction(
                        sender=self.account,
                        to=self.sink_address,
                        method="consume",
                        args=(self.tx_gas - 25_000, "grief"),
                        gas_limit=self.tx_gas,
                        max_fee_gwei=max_fee_gwei,
                        priority_fee_gwei=tip_gwei,
                    )
                )
            except MempoolRejection:
                self.rejected += 1
                continue
            self.spent_wei += escrow
            admitted += 1
            self.submitted += 1
        return admitted


@dataclass(frozen=True)
class FeeGriefReport:
    """Detection verdict for one sender over an observation window."""

    sender: str
    gas_share: float
    mean_tip_wei: float
    honest_tip_wei: float
    flagged: bool


def detect_fee_griefers(
    chain,
    *,
    gas_share_threshold: float = 0.33,
    tip_premium_threshold: float = 2.0,
    honest_tip_wei: int = 10**9,
) -> list[FeeGriefReport]:
    """Flag senders that both dominate drained gas and overbid on tips.

    Works from the pool's drain telemetry alone (no sender identities in
    receipts are needed): a sender is flagged when it consumed more than
    ``gas_share_threshold`` of all pool-drained gas *and* its mean paid
    tip exceeded ``tip_premium_threshold`` times the honest default tip.
    Detection rate against a known griefer population is then simply the
    flagged fraction (measured by the congestion scenario tests).
    """
    pool = chain.pool
    assert pool is not None, "detection reads mempool telemetry"
    total_gas = sum(drained.gas for drained in pool.drained_by_sender.values())
    if not total_gas:
        return []
    reports = []
    for sender, drained in sorted(pool.drained_by_sender.items()):
        share = drained.gas / total_gas
        mean_tip = drained.tips / drained.count
        flagged = (
            share > gas_share_threshold
            and mean_tip > tip_premium_threshold * honest_tip_wei
        )
        reports.append(
            FeeGriefReport(
                sender=sender,
                gas_share=share,
                mean_tip_wei=mean_tip,
                honest_tip_wei=float(honest_tip_wei),
                flagged=flagged,
            )
        )
    return reports
