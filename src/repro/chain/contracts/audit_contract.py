"""The secure storage-auditing smart contract — paper Fig. 2, faithfully.

The contract is a state machine::

    NEGOTIATING --negotiate(D)--> ACK --acknowledge(S)--> FREEZE
        --freeze(D,$) + freeze(S,$)--> AUDIT
        --scheduler--> PROVE --submit_proof(S)--> (verify trigger)
        --pass: pay S / fail: pay D--> AUDIT ... until cnt == num --> CLOSED

Every transition broadcasts the event named in the paper ("negotiated",
"acked", "inited", "challenged", "proofposted", "pass", "fail") and is
guarded by the same asserts.  Scheduling of the Chal/Verify triggers uses
the chain's Ethereum-Alarm-Clock-style service; per-round randomness comes
from a pluggable beacon (Section V-E).

Gas for the verification transaction follows the paper's Fig. 5
time-extrapolation model (:class:`repro.chain.gas.AuditPrecompileModel`),
with the native verification time as a parameter (default: the paper's
7.2 ms anchor) since our Python wall-clock is not the Golang precompile's.
Fees are drawn from the data owner's gas fund, matching "the data owner
needs to pay the on-chain cost" (Section VII-B).

Beyond the paper's Fig. 2, the contract carries a **dispute/arbitration
flow** (see ``docs/PROTOCOL.md`` section 7): any resolved round can be
re-arbitrated from its on-chain bytes by either party against a bond.  A
confirmed cheating round lets the owner slash extra provider collateral
and — when a :class:`~repro.chain.contracts.reputation.ReputationRegistry`
is wired in — the provider's registry stake, so failed audits carry
consequences beyond the per-round penalty.  Every failed round records a
structured rejection reason (``no-proof`` / ``malformed-proof`` /
``replayed-proof`` / ``pairing-mismatch``) that the explorer surfaces.

Every ``trigger_verify`` is its own transaction with its own modelled gas,
but a validator need not compute a block's verdicts one at a time: the
rounds due in one sealed block are checked with a single grouped pairing
product (:meth:`AuditContract.due_calls_scope`; ``docs/PROTOCOL.md``
section 6.2), which hands each contract its own verdict for the block, and
each transaction takes that verdict where it would have computed it — same
receipt, same ``state_hash``.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Iterator

from ...core.batch import BatchItem, judge_proof, screen_proof, verify_batch_grouped
from ...core.challenge import Challenge, challenge_from_beacon
from ...core.keys import PublicKey
from ...core.params import ProtocolParams
from ...core.proof import PRIVATE_PROOF_BYTES
from ...core.verifier import PAIRING_MISMATCH, VerifyOutcome
from ...crypto.bn254 import PROCESS_CACHE
from ...obs.registry import get_registry
from ...randomness.beacon import RandomnessBeacon
from ..blockchain import SCHEDULER, CallContext, Contract, WEI_PER_GWEI
from ..gas import PAPER_VERIFY_MS, AuditPrecompileModel, GasSchedule
from ..transaction import RevertError


class State(enum.Enum):
    NEGOTIATING = "negotiating"   # the paper's bottom state
    ACK = "ack"
    FREEZE = "freeze"
    AUDIT = "audit"
    PROVE = "prove"
    CLOSED = "closed"


@dataclass(frozen=True)
class ContractTerms:
    """agrmts in the paper: duration, round count, cadence, payments."""

    num_audits: int
    audit_interval: float = 24 * 3600.0       # daily auditing by default
    response_window: float = 600.0            # S must answer within this
    payment_per_round_wei: int = 5 * 10**15   # micro-payment to S per pass
    penalty_per_round_wei: int = 5 * 10**15   # slashed from S per fail
    gas_fund_wei: int = 10**17                # D prepays scheduled executions
    dispute_bond_wei: int = 10**15            # stake to open an arbitration
    dispute_slash_wei: int = 2 * 10**16       # extra collateral slashed on a
                                              # dispute-confirmed cheat
    dispute_window: float = 24 * 3600.0       # how long after a round
                                              # resolves it stays disputable

    @property
    def duration(self) -> float:
        """T in the paper: deposits stay locked this long."""
        return self.num_audits * self.audit_interval + self.response_window

    @property
    def owner_deposit_wei(self) -> int:
        return self.num_audits * self.payment_per_round_wei + self.gas_fund_wei

    @property
    def provider_deposit_wei(self) -> int:
        """Per-round penalties plus one dispute-slash reserve.

        The reserve is what gives a dispute on the *final* round teeth:
        without it the closing verdict and the deposit refund land in the
        same transaction and there is nothing left to slash.
        """
        return (
            self.num_audits * self.penalty_per_round_wei
            + self.dispute_slash_wei
        )


@dataclass(frozen=True)
class AuditRound:
    """One round's on-chain trail (what Fig. 10's chain-growth counts).

    Frozen: the contract writes a round by replacing it, as an EVM storage
    slot is written, so the write-ahead log carries only the rounds that
    changed."""

    round_id: int
    challenge: Challenge
    proof_bytes: bytes | None = None
    passed: bool | None = None
    gas_used: int = 0
    verify_ms: float = 0.0
    reject_reason: str | None = None     # structured code for a failed round
    reject_detail: str = ""              # residual fingerprints / context
    resolved_at: float | None = None     # chain time of the verdict
    disputed_by: str | None = None       # account that opened arbitration
    dispute_verdict: str | None = None   # "upheld" | "overturned"

    def trail_bytes(self) -> int:
        proof = len(self.proof_bytes) if self.proof_bytes else 0
        return self.challenge.byte_size() + proof


def _recorded(outcome: VerifyOutcome) -> tuple[str | None, str, bool]:
    """``(reject_reason, reject_detail, equation ran)`` of a round: a screen
    rejection keeps its bare detail, a failed equation its description."""
    reason = outcome.reason
    if reason is None:
        return None, "", True
    if reason.code == PAIRING_MISMATCH:
        return reason.code, reason.describe(), True
    return reason.code, reason.detail, False


#: The verdicts of the block whose due calls are firing in this context,
#: by contract address: set by :meth:`AuditContract.due_calls_scope`, popped
#: by each contract's ``trigger_verify``.  Each thread sees only its own
#: value, so lanes sealing blocks concurrently never read each other's.
_BLOCK_VERDICTS: ContextVar[dict[str, VerifyOutcome]] = ContextVar("block_verdicts")


class AuditContract(Contract):
    """One storage contract between one data owner and one provider."""

    def __init__(
        self,
        owner: str,
        provider: str,
        terms: ContractTerms,
        beacon: RandomnessBeacon,
        params: ProtocolParams,
        native_verify_ms: float = PAPER_VERIFY_MS,
        registry_address: str | None = None,
    ):
        super().__init__()
        self.owner = owner
        self.provider = provider
        self.terms = terms
        self.beacon = beacon
        self.params = params
        self.native_verify_ms = native_verify_ms
        # Optional reputation wiring: when set (and this contract is an
        # authorized reporter), every round outcome is reported inline and
        # dispute-confirmed cheats slash the provider's registry stake.
        self.registry_address = registry_address
        self.gas_model = AuditPrecompileModel(GasSchedule.istanbul())
        self.state = State.NEGOTIATING
        self.cnt = 0
        self.public_key: PublicKey | None = None
        self.file_name: int | None = None
        self.num_chunks: int = 0
        self.deposits: dict[str, int] = {owner: 0, provider: 0}
        self.rounds: list[AuditRound] = []
        self.passes = 0
        self.fails = 0
        self._expiry: float | None = None
        self._verify_scheduled_for: int | None = None

    # ------------------------------------------------------------------ #
    # Initialize phase (paper Fig. 2 left)                                #
    # ------------------------------------------------------------------ #

    def negotiate(
        self,
        ctx: CallContext,
        public_key: PublicKey,
        file_name: int,
        num_chunks: int,
    ):
        """On receive ("negotiated", agrmts, params, metadata) from D."""
        self.require(ctx.sender == self.owner, "only the data owner negotiates")
        self.require(self.state is State.NEGOTIATING, "st != bottom")
        self.require(num_chunks > 0, "empty file")
        self.public_key = public_key
        self.file_name = file_name
        self.num_chunks = num_chunks
        # One-time on-chain storage of pk + metadata: the Fig. 4 cost.
        ctx.gas.consume(
            self.gas_model.schedule.storage_gas(public_key.byte_size())
        )
        self.state = State.ACK
        self.emit("negotiated", pk_bytes=public_key.byte_size(), name=file_name)

    def acknowledge(self, ctx: CallContext):
        """On receive ("acked") from S."""
        self.require(ctx.sender == self.provider, "only the provider acks")
        self.require(self.state is State.ACK, "st != ACK")
        self.state = State.FREEZE
        self.emit("acked")

    def reject(self, ctx: CallContext):
        """Provider refuses the terms during ACK (Section VI-A's DoS note:
        D already paid the on-chain storage for params and metadata)."""
        self.require(ctx.sender == self.provider, "only the provider rejects")
        self.require(self.state is State.ACK, "st != ACK")
        self.state = State.CLOSED
        self.emit("rejected")

    def freeze(self, ctx: CallContext):
        """On receive ("freeze", $D, $S): both parties lock their deposits."""
        self.require(self.state is State.FREEZE, "st != FREEZE")
        self.require(ctx.sender in (self.owner, self.provider), "not a party")
        self.deposits[ctx.sender] += ctx.value
        required = {
            self.owner: self.terms.owner_deposit_wei,
            self.provider: self.terms.provider_deposit_wei,
        }
        self.require(
            self.deposits[ctx.sender] <= required[ctx.sender],
            "deposit exceeds the agreed amount",
        )
        if all(self.deposits[party] >= required[party] for party in required):
            self.state = State.AUDIT
            self._expiry = ctx.timestamp + self.terms.duration
            self.emit("inited", locked_until=self._expiry)
            assert self.chain is not None
            self.chain.schedule_call(
                self.address, "trigger_challenge", self.terms.audit_interval
            )

    # ------------------------------------------------------------------ #
    # Audit phase (paper Fig. 2 right)                                    #
    # ------------------------------------------------------------------ #

    def trigger_challenge(self, ctx: CallContext):
        """On trigger scheduling ("Chal"): the chain's scheduler only."""
        self.require(ctx.sender == SCHEDULER, "only the scheduler challenges")
        if self.state is State.CLOSED:
            return
        self.require(self.state is State.AUDIT, "st != AUDIT")
        self.require(self.cnt < self.terms.num_audits, "cnt out of range")
        randomness = self.beacon.output(self.cnt)
        challenge = challenge_from_beacon(randomness, self.params)
        self.rounds.append(AuditRound(round_id=self.cnt, challenge=challenge))
        # The 48-byte challenge is recorded on chain.
        ctx.gas.consume(
            self.gas_model.schedule.storage_gas(challenge.byte_size())
        )
        self.state = State.PROVE
        self.emit("challenged", round=self.cnt, bytes=challenge.byte_size())
        assert self.chain is not None
        self._verify_scheduled_for = self.cnt
        self.chain.schedule_call(
            self.address, "trigger_verify", self.terms.response_window
        )

    def submit_proof(self, ctx: CallContext, proof_bytes: bytes):
        """On receive ("prove", prf) from S."""
        self.require(ctx.sender == self.provider, "only the provider proves")
        self.require(self.state is State.PROVE, "st != PROVE")
        self.require(self.cnt < self.terms.num_audits, "cnt out of range")
        self.require(
            len(proof_bytes) == PRIVATE_PROOF_BYTES,
            f"proof must be {PRIVATE_PROOF_BYTES} bytes",
        )
        current = self.rounds[self.cnt]
        self.require(current.proof_bytes is None, "proof already posted")
        self.rounds[self.cnt] = replace(current, proof_bytes=bytes(proof_bytes))
        ctx.gas.consume(self.gas_model.schedule.storage_gas(len(proof_bytes)))
        self.emit("proofposted", round=self.cnt)

    def _posted(self, record: AuditRound) -> tuple:
        """The arguments the verdict, arbitration and the block scope all
        pass :func:`~repro.core.batch.screen_proof` for one round."""
        history = [earlier.proof_bytes for earlier in self.rounds[: record.round_id]]
        return (
            self.public_key, self.file_name, self.num_chunks, record.challenge,
            record.proof_bytes, history,
        )

    @classmethod
    @contextmanager
    def due_calls_scope(cls, calls) -> Iterator[None]:
        """Block-scoped verification (docs/PROTOCOL.md section 6.2): the
        open rounds this block's ``trigger_verify`` calls will send to the
        pairing check are checked together, once, and each contract's
        transaction then takes its own verdict.  A lone statement is left
        to its transaction.

        The verdict is keyed by contract address alone: until that
        contract's ``trigger_verify`` runs, nothing the block fires can
        change its open round, since contracts schedule only their triggers.
        The blinders are fresh ``secrets`` draws, which whoever wrote the
        proofs cannot predict."""
        items: dict[str, BatchItem] = {}
        for contract, call in calls:
            if call.method == "trigger_verify" and contract.state is State.PROVE:
                screened = screen_proof(*contract._posted(contract.rounds[contract.cnt]))
                if isinstance(screened, BatchItem):
                    items[contract.address] = screened
        verdicts: dict[str, VerifyOutcome] = {}
        if len(items) > 1:
            outcome = verify_batch_grouped(list(items.values()))
            registry = get_registry()
            registry.instrument("contract_verify_batches_total").labels(
                "ok" if outcome else "localized"
            ).inc()
            registry.instrument("contract_verify_batch_size").observe(len(items))
            verdicts = dict.fromkeys(items, VerifyOutcome.accept())
            addresses = list(items)
            for rejection in outcome.failures:
                verdicts[addresses[rejection.index]] = VerifyOutcome(
                    ok=False, reason=rejection.reason
                )
        token = _BLOCK_VERDICTS.set(verdicts)
        try:
            yield
        finally:
            _BLOCK_VERDICTS.reset(token)

    def trigger_verify(self, ctx: CallContext):
        """On trigger scheduling ("Verify"): the chain's scheduler only, so
        no party can close a round before its response window has run."""
        self.require(ctx.sender == SCHEDULER, "only the scheduler verifies")
        if self.state is State.CLOSED:
            return
        self.require(self.state is State.PROVE, "st != PROVE")
        current = self.rounds[self.cnt]
        outcome = _BLOCK_VERDICTS.get({}).pop(self.address, None)
        if outcome is None:
            outcome = judge_proof(*self._posted(current))
        passed = bool(outcome)
        reason, detail, verified = _recorded(outcome)
        # Charge the Fig. 5 gas model against the owner's prepaid gas fund.
        gas = self.gas_model.verification_gas(
            len(current.proof_bytes or b""), self.native_verify_ms
        )
        ctx.gas.consume(gas)
        fee = int(gas * 5 * WEI_PER_GWEI)
        assert self.chain is not None
        fee = min(fee, self.deposits[self.owner])
        self.deposits[self.owner] -= fee
        self.chain._debit(self.address, fee)
        self.chain.fee_sink += fee

        # Round state feeds state_hash: record the cost model's pinned
        # verification time (zero when no verification ran), never a
        # wall-clock measurement — two chains fed the same workload must
        # hash identically.
        self.rounds[self.cnt] = replace(
            current,
            passed=passed,
            gas_used=gas,
            verify_ms=self.native_verify_ms if verified else 0.0,
            resolved_at=ctx.timestamp,
            reject_reason=reason,
            reject_detail=detail,
        )
        if passed:
            self.passes += 1
            payment = min(
                self.terms.payment_per_round_wei, self.deposits[self.owner]
            )
            self.deposits[self.owner] -= payment
            self.chain.transfer(self.address, self.provider, payment)
            self.emit("pass", round=self.cnt, paid_wei=payment)
        else:
            self.fails += 1
            penalty = min(
                self.terms.penalty_per_round_wei, self.deposits[self.provider]
            )
            self.deposits[self.provider] -= penalty
            self.chain.transfer(self.address, self.owner, penalty)
            self.emit(
                "fail", round=self.cnt, slashed_wei=penalty, reason=reason
            )
        self._report_to_registry(ctx, passed)
        self.cnt += 1
        if self.cnt >= self.terms.num_audits:
            self._finalize()
        else:
            self.state = State.AUDIT
            self.chain.schedule_call(
                self.address, "trigger_challenge", self.terms.audit_interval
            )

    # ------------------------------------------------------------------ #
    # Dispute / arbitration (docs/PROTOCOL.md section 7)                  #
    # ------------------------------------------------------------------ #

    def _report_to_registry(self, ctx: CallContext, passed: bool) -> None:
        """Best-effort inline outcome report (no-op when not wired)."""
        if self.registry_address is None:
            return
        try:
            self._call_contract(
                ctx, self.registry_address, "report_audit", self.provider, passed
            )
        except RevertError:
            pass  # provider unregistered / contract unauthorized: skip

    def raise_dispute(self, ctx: CallContext, round_id: int):
        """Re-arbitrate a resolved round from its on-chain bytes.

        Either party posts ``dispute_bond_wei`` and the contract re-runs
        the verdict from the recorded (challenge, proof) bytes:

        * arbitration disagrees with the recorded verdict → the trail is
          corrected (verdict and pass/fail tallies) and the bond refunded;
          the already-settled round payment/penalty is left to governance
          since a mis-recorded trail means contract execution itself broke;
        * verdict confirmed, challenger is the wronged owner of a failed
          round → the bond is refunded, extra provider collateral
          (``dispute_slash_wei``) is slashed to the owner, and the
          provider's registry stake is slashed when a registry is wired;
        * verdict confirmed, challenger was wrong (provider contesting a
          genuine failure, or owner contesting a genuine pass) → the bond
          is forfeited to the counterparty.
        """
        self.require(ctx.sender in (self.owner, self.provider), "not a party")
        self.require(
            ctx.value >= self.terms.dispute_bond_wei,
            f"dispute bond is {self.terms.dispute_bond_wei} wei",
        )
        self.require(0 <= round_id < len(self.rounds), "unknown round")
        record = self.rounds[round_id]
        self.require(record.passed is not None, "round not yet resolved")
        self.require(record.disputed_by is None, "round already disputed")
        assert record.resolved_at is not None
        self.require(
            ctx.timestamp <= record.resolved_at + self.terms.dispute_window,
            "dispute window closed",
        )
        assert self.chain is not None
        # Adjudicate and meter gas before marking the round disputed (an
        # out-of-gas revert would undo the mark anyway).
        outcome = judge_proof(*self._posted(record))
        verdict = bool(outcome)
        gas = self.gas_model.verification_gas(
            len(record.proof_bytes or b""), self.native_verify_ms
        )
        ctx.gas.consume(gas)
        challenger_role = "owner" if ctx.sender == self.owner else "provider"
        self.emit("disputed", round=round_id, by=challenger_role)
        counterparty = self.provider if ctx.sender == self.owner else self.owner

        if verdict != record.passed:
            # Arbitration is a deterministic re-run over immutable bytes,
            # so this branch fires only for a mis-recorded trail (the
            # light-client disagreement case): correct the record, refund
            # the challenger's bond, and leave value flows to governance.
            reason, detail, _ = _recorded(outcome)
            self.rounds[round_id] = replace(
                record,
                disputed_by=ctx.sender,
                dispute_verdict="overturned",
                passed=verdict,
                reject_reason=reason,
                reject_detail=detail,
            )
            self.passes += 1 if verdict else -1
            self.fails += -1 if verdict else 1
            self.chain.transfer(self.address, ctx.sender, ctx.value)
            self.emit(
                "dispute_overturned",
                round=round_id,
                corrected_verdict="pass" if verdict else "fail",
            )
            return

        self.rounds[round_id] = record = replace(
            record, disputed_by=ctx.sender, dispute_verdict="upheld"
        )
        self.emit("dispute_upheld", round=round_id, verdict="pass" if verdict else "fail")
        if not verdict and ctx.sender == self.owner:
            # Escalation by the wronged party: the chain itself confirms
            # the provider cheated, so the failure gets teeth — bond back,
            # deep collateral slash, registry stake slash.
            self.chain.transfer(self.address, ctx.sender, ctx.value)
            slash = min(self.terms.dispute_slash_wei, self.deposits[self.provider])
            if slash > 0:
                self.deposits[self.provider] -= slash
                self.chain.transfer(self.address, self.owner, slash)
                self.emit(
                    "collateral_slashed",
                    round=round_id,
                    slashed_wei=slash,
                    reason=record.reject_reason,
                )
            if self.registry_address is not None:
                try:
                    self._call_contract(
                        ctx, self.registry_address, "slash_stake",
                        self.provider, 0.2, self.owner,
                    )
                except RevertError:
                    pass
        else:
            # Frivolous dispute: bond to the counterparty.
            self.chain.transfer(self.address, counterparty, ctx.value)

    # ------------------------------------------------------------------ #
    # Settlement                                                          #
    # ------------------------------------------------------------------ #

    def _finalize(self) -> None:
        """Refund unspent deposits and close (contract expiry).

        When failed rounds are still disputable, up to ``dispute_slash_wei``
        of the provider's deposit stays locked as the dispute reserve —
        otherwise the closing verdict and the refund would land in the same
        transaction and a final-round dispute would have nothing to slash.
        The provider reclaims whatever survives the window through
        :meth:`withdraw_reserve`.
        """
        assert self.chain is not None
        undisputed_fails = any(
            r.passed is False and r.disputed_by is None for r in self.rounds
        )
        reserve = (
            min(self.terms.dispute_slash_wei, self.deposits[self.provider])
            if undisputed_fails
            else 0
        )
        for party in (self.owner, self.provider):
            hold_back = reserve if party == self.provider else 0
            remaining = self.deposits[party] - hold_back
            if remaining:
                self.deposits[party] = hold_back
                self.chain.transfer(self.address, party, remaining)
        self.state = State.CLOSED
        # No further round will challenge this file: release its digests.
        PROCESS_CACHE.forget(self.file_name)
        self.emit(
            "expired",
            passes=self.passes,
            fails=self.fails,
            dispute_reserve_wei=reserve,
        )

    def withdraw_reserve(self, ctx: CallContext):
        """Provider reclaims the dispute reserve once every window closed."""
        self.require(ctx.sender == self.provider, "only the provider withdraws")
        self.require(self.state is State.CLOSED, "st != CLOSED")
        latest = max(
            (r.resolved_at for r in self.rounds if r.resolved_at is not None),
            default=0.0,
        )
        self.require(
            ctx.timestamp >= latest + self.terms.dispute_window,
            "dispute window still open",
        )
        remaining = self.deposits[self.provider]
        self.require(remaining > 0, "no reserve held")
        self.deposits[self.provider] = 0
        assert self.chain is not None
        self.chain.transfer(self.address, self.provider, remaining)
        self.emit("reserve_released", refunded_wei=remaining)

    # -- views -----------------------------------------------------------

    def status(self, ctx: CallContext) -> dict:
        return {
            "state": self.state.value,
            "cnt": self.cnt,
            "passes": self.passes,
            "fails": self.fails,
            "owner_deposit": self.deposits[self.owner],
            "provider_deposit": self.deposits[self.provider],
        }

    def total_audit_gas(self) -> int:
        return sum(r.gas_used for r in self.rounds)

    def total_trail_bytes(self) -> int:
        return sum(r.trail_bytes() for r in self.rounds)
