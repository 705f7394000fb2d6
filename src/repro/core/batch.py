"""Batch auditing: verifying many users' proofs with one final exponentiation.

Paper Section VII-D: "our auditing protocol natively supports the batch
auditing [24]" — a storage provider serving dozens of data owners answers
each owner's challenge separately, but the *verifier* can check all the
resulting proofs together.

The small-exponent batching trick: for random 128-bit rho_u (rho_0 = 1),
the combined check

    prod_u [ E_u ]^{rho_u} == 1

(with E_u the Eq.-2 product of user u) holds iff every E_u == 1 except with
probability ~2^-128.  Scaling each user's G1 inputs by rho_u pushes the
exponent inside the Miller loops, so U proofs cost ``1 + 2*owners`` Miller
loops + U-1 short GT exponentiations + **one** hard final exponentiation
instead of U.  128 bits suffice for the soundness bound and halve the
scaling cost (`bench_ablation_batch_auditing` quantifies the win).

The product itself lives in :func:`repro.core.verifier.pairing_product_check`;
this module draws the blinders and localizes failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.bn254 import PrecomputeCache
from .challenge import Challenge
from .keys import PublicKey
from .proof import PrivateProof
from .verifier import (
    RejectionReason,
    Statement,
    Verifier,
    VerifyReport,
    pairing_product_check,
)


@dataclass(frozen=True)
class BatchItem:
    """One user's audit instance: their key, file identity and response."""

    public: PublicKey
    name: int
    num_chunks: int
    challenge: Challenge
    proof: PrivateProof


@dataclass(frozen=True)
class ItemRejection:
    """One rejected proof inside a batch: which proof, and why."""

    index: int                 # position in the batch
    name: int                  # file identifier (which proof)
    reason: RejectionReason | None


@dataclass(eq=False)
class BatchVerifyOutcome:
    """Truthy/falsy verdict for a whole batch, with failure localization.

    Like :class:`~repro.core.verifier.VerifyOutcome`, it evaluates and
    compares as a boolean by verdict, so pre-existing ``== True`` call
    sites keep working.

    The combined small-exponent check only says *whether* every proof in
    the batch is valid.  When it fails, :meth:`pinpoint` re-verifies each
    item individually (paying per-proof pairings on the failure path only)
    and returns the structured :class:`ItemRejection` list — which proof
    failed, and that proof's :class:`~repro.core.verifier.RejectionReason`
    with its per-pairing-group residual fingerprints.
    """

    ok: bool
    checked: int
    mode: str  # "grouped" | "sequential"
    items: tuple[BatchItem, ...] = field(default=(), repr=False)
    _failures: tuple[ItemRejection, ...] | None = field(default=None, repr=False)

    def __bool__(self) -> bool:
        return self.ok

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BatchVerifyOutcome):
            return (self.ok, self.checked, self.mode) == (
                other.ok, other.checked, other.mode
            )
        if isinstance(other, bool):
            return self.ok is other
        return NotImplemented

    __hash__ = object.__hash__  # mutable (memoized pinpoint): identity hash

    def pinpoint(
        self, precompute: PrecomputeCache | None = None
    ) -> tuple[ItemRejection, ...]:
        """Which proofs failed (empty for an accepted batch); memoized."""
        if self.ok:
            return ()
        if self._failures is None:
            failures = []
            for index, item in enumerate(self.items):
                verifier = Verifier(
                    item.public, item.name, item.num_chunks, precompute=precompute
                )
                outcome = verifier.verify_private(item.challenge, item.proof)
                if not outcome:
                    failures.append(
                        ItemRejection(
                            index=index, name=item.name, reason=outcome.reason
                        )
                    )
            self._failures = tuple(failures)
        return self._failures

    def rejected_names(
        self, precompute: PrecomputeCache | None = None
    ) -> tuple[int, ...]:
        return tuple(rejection.name for rejection in self.pinpoint(precompute))


def _small_exponent(rng) -> int:
    """A 128-bit batching exponent (soundness error 2^-128)."""
    import secrets

    if rng is None:
        return secrets.randbits(128) | 1
    return rng.getrandbits(128) | 1


def verify_batch_grouped(
    items: list[BatchItem],
    rng=None,
    report: VerifyReport | None = None,
    precompute: PrecomputeCache | None = None,
) -> BatchVerifyOutcome:
    """Check all items at once; truthy iff every individual proof is valid.

    The parallel audit engine's verification back end: every item becomes a
    rho-blinded statement of the one pairing product (rho_0 = 1), which
    merges all inputs per fixed G2 point and pays one final exponentiation
    for the whole batch.
    """
    statements = [
        Statement(
            item.public,
            item.name,
            item.challenge.expand(item.num_chunks),
            item.proof.sigma,
            item.proof.y_masked,
            item.proof.psi,
            item.proof.commitment,
            rho=1 if index == 0 else _small_exponent(rng),
        )
        for index, item in enumerate(items)
    ]
    ok, _ = pairing_product_check(statements, precompute, report)
    # Items are retained only on failure — that is the only path where
    # pinpoint() needs them, and accepted epochs would otherwise pin every
    # decoded proof in long-running scheduler histories.
    return BatchVerifyOutcome(
        ok=ok, checked=len(items), mode="grouped", items=() if ok else tuple(items)
    )


def verify_sequential(
    items: list[BatchItem],
    report: VerifyReport | None = None,
) -> BatchVerifyOutcome:
    """Baseline: verify each proof independently (for the ablation bench).

    Unlike the combined checks, failures localize for free — each item's
    :class:`~repro.core.verifier.VerifyOutcome` is computed anyway, so the
    rejection list is filled in without a pinpoint pass.
    """
    failures = []
    for index, item in enumerate(items):
        verifier = Verifier(item.public, item.name, item.num_chunks)
        outcome = verifier.verify_private(item.challenge, item.proof, report)
        if not outcome:
            failures.append(
                ItemRejection(index=index, name=item.name, reason=outcome.reason)
            )
    # _failures is pre-filled, so pinpoint() never needs the items — do not
    # retain them even on failure.
    return BatchVerifyOutcome(
        ok=not failures,
        checked=len(items),
        mode="sequential",
        _failures=tuple(failures),
    )
