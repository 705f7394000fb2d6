"""On-chain reputation registry (paper Section VI-A countermeasures).

The paper's remarks on fairness in practice: a provider can grief the data
owner by rejecting contracts after the owner has paid on-chain storage for
the public keys; Sybil identities can whitewash a bad history.  "We stress
this kind of denial-of-service attack would be good to none but worse to
himself under a robust reputation-based system.  Using similar
countermeasures, other attacks such as the Sybil attack, can also be
alleviated."

This contract is that system:

* providers register with a **stake** (Sybil resistance: fresh identities
  start at neutral reputation *and* must lock capital),
* audit contracts report per-round outcomes (pass/fail) and initialisation
  behaviour (acknowledge/reject) — rejections after negotiation cost
  reputation, making the Section VI-A DoS self-defeating,
* scores decay toward neutral over time so neither ancient glory nor
  ancient sins dominate,
* data owners query scores before selecting providers; deregistration
  returns the stake only to providers in good standing (griefers forfeit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..blockchain import CallContext, Contract

NEUTRAL_SCORE = 0.5


@dataclass(frozen=True)
class ProviderRecord:
    """One provider's standing; the registry writes it by replacement (see
    :class:`~repro.chain.contracts.AuditRound`)."""

    stake_wei: int
    registered_at: float
    passes: int = 0
    fails: int = 0
    rejections: int = 0
    score: float = NEUTRAL_SCORE
    last_update: float = 0.0
    banned: bool = False
    staker: str = ""  # account that locked the stake (refund target guard)


class ReputationRegistry(Contract):
    """Stake-backed reputation for storage providers.

    Score update is an exponential moving average pulled toward 1.0 by
    passes and toward 0.0 by fails/rejections, with time decay toward
    neutral between observations.
    """

    def __init__(
        self,
        min_stake_wei: int = 10**18,
        decay_half_life: float = 30 * 24 * 3600.0,
    ):
        super().__init__()
        self.min_stake_wei = min_stake_wei
        self.learning_rate = 0.1
        self.rejection_penalty = 0.15
        self.decay_half_life = decay_half_life
        self.ban_threshold = 0.15
        self.providers: dict[str, ProviderRecord] = {}
        self.reporters: set[str] = set()  # audit contracts allowed to report

    # -- registration ------------------------------------------------------

    def register(self, ctx: CallContext, provider: str | None = None):
        """Join the marketplace by locking at least the minimum stake.

        ``provider`` optionally names the record (a storage-cluster node
        name); it defaults to the staking account's address.  Either way
        the stake is locked by the sender.
        """
        key = provider or ctx.sender
        self.require(key not in self.providers, "already registered")
        self.require(
            ctx.value >= self.min_stake_wei,
            f"stake below minimum ({self.min_stake_wei} wei)",
        )
        self.providers[key] = ProviderRecord(
            stake_wei=ctx.value,
            registered_at=ctx.timestamp,
            last_update=ctx.timestamp,
            staker=ctx.sender,
        )
        self.emit("registered", provider=key, stake=ctx.value)

    def deregister(self, ctx: CallContext, provider: str | None = None):
        """Leave and reclaim the stake — only in good standing.

        With a named record the refund still goes to the calling account
        (the one that locked the stake at :meth:`register` time).
        """
        key = provider or ctx.sender
        record = self.providers.get(key)
        self.require(record is not None, "not registered")
        assert record is not None
        # Named records can only be released by the exact account that
        # locked the stake (the refund goes to the caller).  The unnamed
        # path is safe by construction: its key *is* ctx.sender.
        self.require(
            provider is None or record.staker == ctx.sender,
            "only the staking account may deregister this record",
        )
        # Decayed first, so the checks below read the current score.
        self.providers[key] = record = self._decayed(record, ctx.timestamp)
        self.require(not record.banned, "banned providers forfeit their stake")
        self.require(
            record.score >= NEUTRAL_SCORE,
            "below-neutral reputation forfeits the stake",
        )
        stake = record.stake_wei
        del self.providers[key]
        assert self.chain is not None
        self.chain.transfer(self.address, ctx.sender, stake)
        self.emit("deregistered", provider=key, refunded=stake)

    # -- reporting ---------------------------------------------------------

    def authorize_reporter(self, ctx: CallContext, reporter: str):
        """Whitelist an audit contract to report outcomes.

        In production this would be the contract factory; here any caller
        may register reporters, and tests cover the access control on the
        reporting path itself.
        """
        self.reporters.add(reporter)
        self.emit("reporter_authorized", reporter=reporter)

    def report_audit(self, ctx: CallContext, provider: str, passed: bool):
        self.require(ctx.sender in self.reporters, "unauthorised reporter")
        record = self.providers.get(provider)
        self.require(record is not None, "unknown provider")
        assert record is not None
        record = self._decayed(record, ctx.timestamp)
        if passed:
            record = replace(
                record,
                passes=record.passes + 1,
                score=record.score + self.learning_rate * (1.0 - record.score),
            )
        else:
            record = replace(
                record,
                fails=record.fails + 1,
                score=record.score - self.learning_rate * record.score,
            )
        record = self._store(provider, record)
        self.emit("audit_reported", provider=provider, passed=passed,
                  score=round(record.score, 4))

    def slash_stake(
        self,
        ctx: CallContext,
        provider: str,
        fraction: float = 0.2,
        beneficiary: str | None = None,
    ):
        """Dispute-confirmed misbehaviour: burn reputation *and* capital.

        Called by an authorized audit contract when arbitration upholds a
        failed round (see ``AuditContract.raise_dispute``).  A ``fraction``
        of the provider's locked stake is transferred to ``beneficiary``
        (the wronged data owner; defaults to the reporter), the score takes
        a rejection-sized hit, and the ban threshold applies as usual.
        """
        self.require(ctx.sender in self.reporters, "unauthorised reporter")
        self.require(0.0 < fraction <= 1.0, "fraction out of range")
        record = self.providers.get(provider)
        self.require(record is not None, "unknown provider")
        assert record is not None
        record = self._decayed(record, ctx.timestamp)
        amount = int(record.stake_wei * fraction)
        self.providers[provider] = record = replace(
            record,
            stake_wei=record.stake_wei - amount,
            score=max(0.0, record.score - self.rejection_penalty),
        )
        assert self.chain is not None
        self.chain.transfer(self.address, beneficiary or ctx.sender, amount)
        record = self._store(provider, record)
        self.emit(
            "stake_slashed",
            provider=provider,
            slashed_wei=amount,
            remaining_stake_wei=record.stake_wei,
            score=round(record.score, 4),
        )

    def report_rejection(self, ctx: CallContext, provider: str):
        """The Section VI-A DoS: rejecting after the owner paid for setup."""
        self.require(ctx.sender in self.reporters, "unauthorised reporter")
        record = self.providers.get(provider)
        self.require(record is not None, "unknown provider")
        assert record is not None
        record = self._decayed(record, ctx.timestamp)
        record = self._store(
            provider,
            replace(
                record,
                rejections=record.rejections + 1,
                score=max(0.0, record.score - self.rejection_penalty),
            ),
        )
        self.emit("rejection_reported", provider=provider,
                  score=round(record.score, 4))

    # -- queries -----------------------------------------------------------

    def score_of(self, ctx: CallContext, provider: str) -> float:
        """Pure view: the decayed score *without* mutating the record.

        Exponential decay composes multiplicatively, so deferring the
        ``last_update`` write to the next real mutation (report / slash /
        rejection) yields the same trajectory — and keeps read-only calls
        from mutating state behind the WAL's back.
        """
        record = self.providers.get(provider)
        if record is None:
            return 0.0
        return 0.0 if record.banned else self._decayed_score(record, ctx.timestamp)

    def eligible(self, ctx: CallContext, provider: str, minimum: float = 0.3) -> bool:
        return self.score_of(ctx, provider) >= minimum

    def ranked(self, ctx: CallContext) -> list[tuple[str, float]]:
        """Providers best-first — the owner's selection input."""
        scores = [
            (name, self.score_of(ctx, name)) for name in self.providers
        ]
        return sorted(scores, key=lambda pair: -pair[1])

    # -- internals -----------------------------------------------------------

    def _decayed_score(self, record: ProviderRecord, now: float) -> float:
        elapsed = max(0.0, now - record.last_update)
        if elapsed > 0 and self.decay_half_life > 0:
            weight = math.pow(0.5, elapsed / self.decay_half_life)
            return NEUTRAL_SCORE + (record.score - NEUTRAL_SCORE) * weight
        return record.score

    def _decayed(self, record: ProviderRecord, now: float) -> ProviderRecord:
        return replace(record, score=self._decayed_score(record, now), last_update=now)

    def _store(self, provider: str, record: ProviderRecord) -> ProviderRecord:
        """Write ``record``, banned first when its score fell below the bar."""
        if record.score < self.ban_threshold and not record.banned:
            record = replace(record, banned=True)
            self.emit("banned", provider=provider)
        self.providers[provider] = record
        return record
