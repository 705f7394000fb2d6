"""Leaf ground truth: the single source of the rollup's verdict rules.

Both arbiters of a committed round record — the on-chain fraud proof
(:meth:`~repro.chain.contracts.checkpoint_contract.CheckpointContract.challenge_leaf`)
and the off-chain light client
(:class:`~repro.chain.light_client.CheckpointLightClient`) — must apply
*identical* rules, or the light client would flag leaves the contract
upholds (and vice versa), which is precisely the disagreement the system
exists to eliminate.  This module is that shared rule set; the leaf's proof
bytes are judged by :func:`repro.core.batch.judge_proof`'s rule, the one
the per-round contract applies too: the fraud proof checks one leaf alone,
the light client checks a whole leaf set with one grouped product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.batch import BatchItem, screen_proof
from ..core.challenge import epoch_challenge
from ..core.params import ProtocolParams
from ..core.verifier import Verifier
from .records import RoundRecord


@dataclass(frozen=True)
class LeafVerdict:
    """Outcome of adjudicating one committed leaf.

    ``fraud_code`` is ``None`` for a truthful leaf; otherwise one of the
    PROTOCOL.md section 9.3 fraud grounds (``epoch-mismatch``,
    ``unregistered-file``, ``challenge-mismatch``, ``verdict-flipped``).
    ``actual`` is the re-derived verdict when one could be computed.
    """

    actual: bool | None
    fraud_code: str | None
    detail: str = ""

    @property
    def fraudulent(self) -> bool:
        return self.fraud_code is not None

    def describe(self) -> str | None:
        if self.fraud_code is None:
            return None
        return f"{self.fraud_code}: {self.detail}" if self.detail else self.fraud_code


def leaf_statement(
    record: RoundRecord,
    commitment_epoch: int,
    params: ProtocolParams,
    beacon,
    verifier_for: Callable[[int], Verifier | None],
) -> LeafVerdict | BatchItem | None:
    """The cheap grounds of :func:`leaf_ground_truth`, everything short of
    the pairing equation: a fraud verdict, the statement the equation must
    judge, or ``None`` for proof bytes that never reach it (none, or
    undecodable — a failed round by :func:`~repro.core.batch.screen_proof`)."""
    if record.epoch != commitment_epoch:
        return LeafVerdict(
            actual=None,
            fraud_code="epoch-mismatch",
            detail=f"leaf says {record.epoch}, checkpoint is {commitment_epoch}",
        )
    verifier = verifier_for(record.name)
    if verifier is None:
        return LeafVerdict(
            actual=None,
            fraud_code="unregistered-file",
            detail=f"{record.name:#x}",
        )
    expected = epoch_challenge(
        beacon.output(record.epoch), params, record.name
    )
    if record.challenge_bytes != expected.to_bytes():
        return LeafVerdict(
            actual=None,
            fraud_code="challenge-mismatch",
            detail="leaf challenge != beacon derivation",
        )
    screened = screen_proof(
        verifier.public, record.name, verifier.num_chunks, expected, record.proof_bytes
    )
    return screened if isinstance(screened, BatchItem) else None


def leaf_verdict(record: RoundRecord, actual: bool) -> LeafVerdict:
    """A leaf that passed the cheap grounds, against its re-derived verdict."""
    if actual != record.verdict:
        return LeafVerdict(
            actual=actual,
            fraud_code="verdict-flipped",
            detail=(
                f"committed {'pass' if record.verdict else 'fail'}, "
                f"re-verification says {'pass' if actual else 'fail'}"
            ),
        )
    return LeafVerdict(actual=actual, fraud_code=None)


def leaf_ground_truth(
    record: RoundRecord,
    commitment_epoch: int,
    params: ProtocolParams,
    beacon,
    verifier_for: Callable[[int], Verifier | None],
) -> LeafVerdict:
    """Adjudicate one committed leaf against on-chain-derivable state.

    A fraud code is returned whenever the leaf is a lie a correct
    aggregator could never have committed: a foreign epoch, an
    unregistered file (``verifier_for`` finds it in no on-chain instance
    registry), a challenge that is not the beacon's derivation for (epoch,
    name), or a verdict that does not survive re-verification — the lone
    Eq.-(2) check here (:func:`~repro.core.batch.judge_proof`'s rule).
    """
    statement = leaf_statement(record, commitment_epoch, params, beacon, verifier_for)
    if isinstance(statement, LeafVerdict):
        return statement
    return leaf_verdict(record, statement is not None and bool(statement.verify()))
