"""On-chain proof verification (paper Eq. (1) and Eq. (2)), written once.

The verifier (smart contract) recomputes the challenge expansion, derives

    chi = prod_t H(name || i_t)^{c_t}

and checks a product of three pairings with one shared final exponentiation.
For the private proof the check is Eq. (2):

    R * e(sigma^zeta, g2) * e(g1^{-y'}, epsilon)
        == e(chi^zeta, epsilon) * e(psi^zeta, delta * epsilon^{-r})

which we fold into  ``R * e(zeta*sigma, g2) * e(-y'*g1 - zeta*chi +
r*zeta*psi, epsilon) * e(-zeta*psi, delta) == 1`` — the psi leg is split
over delta and epsilon by bilinearity so every pairing argument is a
*fixed* G2 point whose Miller-loop lines are prepared once, in the process
cache (:data:`repro.crypto.bn254.PROCESS_CACHE`) every verifier reads; so
are the digest points ``H(name || i)`` and their wNAF tables.  Eq. (1) is
the same product with ``zeta = 1`` and no ``R``; batch auditing (Section
VII-D) is the same product over many statements, each raised to a random
exponent ``rho``.  :func:`pairing_product_check` is that one product;
:meth:`Verifier.verify_plain`, :meth:`Verifier.verify_private` and
:func:`repro.core.batch.verify_batch_grouped` only build its statements.

Verification cost is *constant* in the file size — the paper's headline
on-chain efficiency property — and the measured wall time feeds the Fig. 5
gas extrapolation.

Rejections are *structured*: a failed check returns a falsy
:class:`VerifyOutcome` carrying a :class:`RejectionReason` — which equation
failed, plus a per-pairing-group residual fingerprint computed on the
failure path only.  The dispute flow in
:mod:`repro.chain.contracts.audit_contract` records these reasons on chain,
and the adversarial scenario tables in ``docs/SCENARIOS.md`` are built from
them.

A validator that has already checked a block's statements together
(:func:`repro.core.batch.staged_verdicts`) leaves each finished verdict in
:data:`VERDICT_MEMO`; :meth:`Verifier.verify_private` takes a staged verdict
instead of recomputing it.  The key is everything the equation reads, so a
hit is the verdict this very call would have computed, and a miss is the
check above.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from ..crypto.bn254 import (
    CURVE_ORDER,
    G1Point,
    G2Point,
    PROCESS_CACHE,
    gt_multi_pow,
    hash_gt_to_scalar,
    miller_loop_product,
    final_exponentiation,
    g2_to_bytes,
)
from ..crypto.bn254.fields import Fp12
from .challenge import Challenge, ExpandedChallenge
from .keys import PublicKey
from .proof import PlainProof, PrivateProof

#: The equation's rejection code, then :func:`repro.core.batch.screen_proof`'s.
PAIRING_MISMATCH = "pairing-mismatch"
NO_PROOF = "no-proof"
MALFORMED_PROOF = "malformed-proof"
REPLAYED_PROOF = "replayed-proof"


@dataclass(frozen=True)
class RejectionReason:
    """Why a proof was rejected, in machine-readable form.

    ``code`` is one of:

    * ``"pairing-mismatch"`` — the product-of-pairings equation did not
      evaluate to the GT identity (the cryptographic rejection);
    * ``"no-proof"`` — the provider never answered within the response
      window (contract-level timeout);
    * ``"malformed-proof"`` — the on-chain bytes do not decode to a
      well-formed proof (to the per-round light client, neither does a
      served challenge of the wrong length);
    * ``"replayed-proof"`` — the bytes are identical to a proof posted in
      an earlier round (contract-level replay detection; the pairing check
      would also reject it, this code just names the behaviour).

    ``pairing_groups`` carries one ``(label, fingerprint)`` entry per
    pairing leg of the failed equation.  The fingerprints localize *where*
    transcripts diverge when two parties re-verify the same bytes (the
    dispute/light-client use case); a single verifier cannot attribute the
    mismatch to one leg alone — only the product is constrained to be 1.
    """

    code: str
    equation: str | None = None
    pairing_groups: tuple[tuple[str, str], ...] = ()
    detail: str = ""

    def describe(self) -> str:
        """One-line human-readable rendering (CLI / explorer output)."""
        parts = [self.code]
        if self.equation:
            parts.append(f"[{self.equation}]")
        if self.detail:
            parts.append(self.detail)
        if self.pairing_groups:
            legs = ", ".join(f"{label}={fp}" for label, fp in self.pairing_groups)
            parts.append(f"residuals: {legs}")
        return " ".join(parts)


@dataclass(frozen=True)
class VerifyOutcome:
    """Truthy/falsy verification verdict with an attached reason.

    Evaluates as ``True`` exactly when the proof was accepted; rejection
    callers read ``.reason``.
    """

    ok: bool
    reason: RejectionReason | None = None

    def __bool__(self) -> bool:
        return self.ok

    @staticmethod
    def accept() -> "VerifyOutcome":
        return _ACCEPT


_ACCEPT = VerifyOutcome(ok=True)


def _gt_fingerprint(value) -> str:
    """Short stable identifier of a GT element (for rejection diagnostics)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:12]


def _pairing_group_residuals(
    labelled_pairs: list[tuple[str, tuple[G1Point, G2Point]]],
    extra: tuple[tuple[str, object], ...] = (),
) -> tuple[tuple[str, str], ...]:
    """Per-leg residual fingerprints, computed only on the failure path."""
    groups = [
        (label, _gt_fingerprint(final_exponentiation(miller_loop_product([pair]))))
        for label, pair in labelled_pairs
    ]
    groups.extend((label, _gt_fingerprint(value)) for label, value in extra)
    return tuple(groups)


@dataclass
class VerifyReport:
    """Wall-clock decomposition of one verification (Fig. 5 input)."""

    hash_seconds: float = 0.0      # chi digests (k hash-to-curve)
    msm_seconds: float = 0.0       # chi aggregation + proof point scaling
    pairing_seconds: float = 0.0   # 3 Miller loops + 1 final exponentiation

    @property
    def total_seconds(self) -> float:
        return self.hash_seconds + self.msm_seconds + self.pairing_seconds


@dataclass(frozen=True)
class Statement:
    """One audit response as the equation sees it.

    ``commitment`` is the Sigma commitment ``R`` of Eq. (2), or ``None`` for
    Eq. (1), where ``zeta = 1`` and there is no ``R``.  ``rho`` is the
    small-exponent batching blinder (1 for a lone statement).
    """

    public: PublicKey
    name: int
    expanded: ExpandedChallenge
    sigma: G1Point
    y: int
    psi: G1Point
    commitment: Fp12 | None = None
    rho: int = 1


# The three fixed G2 points a statement's G1 inputs are paired with.
_G2, _EPSILON, _DELTA = range(3)

# (equation, detail, one label per leg above) of the rejection diagnostics.
_EQ1 = (
    "Eq.1",
    "product of pairings != 1",
    ("sigma*g2", "(y,chi,r*psi)*epsilon", "psi*delta"),
)
_EQ2 = (
    "Eq.2",
    "product of pairings * R != 1",
    ("zeta*sigma*g2", "(y',chi,r*psi)*epsilon", "zeta*psi*delta"),
)


def pairing_product_check(
    statements: list[Statement], report: VerifyReport | None = None
) -> tuple[bool, list[tuple[G1Point, object]]]:
    """``prod_u [R_u * e(..,g2) * e(..,epsilon_u) * e(..,delta_u)]^{rho_u} == 1``.

    Returns the verdict and the merged ``(G1, G2)`` legs in first-use order
    (``g2``, then each owner's ``epsilon`` and ``delta``) — for one statement,
    exactly the three pairing arguments its rejection diagnostics fingerprint.

    Two structural optimizations, both pairing bilinearity:

    * **G2 grouping** — all inputs paired with the same G2 point collapse
      into one Miller loop via ``prod_u e(A_u, Q) == e(sum_u A_u, Q)``.  The
      sigma inputs all share ``g2``; the chi/y'/r*psi inputs share each
      owner's ``epsilon``; the psi inputs share each owner's ``delta``.  3U
      Miller loops become ``1 + 2*owners``, all against G2 points whose
      prepared lines persist across epochs in the process cache.
    * **Deferred MSMs** — each leg's G1 side is accumulated as (base, scalar)
      pairs — chi is never materialized; its digest points go straight into
      the owner's epsilon leg — and reduced with one MSM per leg.
    """
    if not statements:
        return True, []
    g1 = G1Point.generator()
    g2 = G2Point.generator()
    gt_items: list[tuple[Fp12, int]] = []
    # Keyed by (role, point) so a degenerate key (delta == epsilon) still
    # yields the three legs the diagnostics label.
    legs: dict[tuple[int, G2Point], tuple[list[G1Point], list[int], list[bool]]] = {}
    # Every file of an owner contributes g1^{-y' rho} to the same epsilon
    # leg; folding those into one scalar drops U-per-owner points from the
    # MSMs (the group element is unchanged — same linear combination).
    g1_scalars: dict[tuple[int, G2Point], int] = {}

    def contribute(
        leg: tuple[int, G2Point], base: G1Point, scalar: int, fixed: bool = False
    ) -> None:
        """``fixed`` marks epoch-recurring bases (digests, g1) whose wNAF
        tables are worth keeping in the process cache."""
        bases, scalars, cacheable = legs.setdefault(leg, ([], [], []))
        bases.append(base)
        scalars.append(scalar % CURVE_ORDER)
        cacheable.append(fixed)

    for st in statements:
        epsilon = (_EPSILON, st.public.epsilon)
        zeta = 1 if st.commitment is None else hash_gt_to_scalar(st.commitment)
        scaled_zeta = zeta * st.rho % CURVE_ORDER
        t0 = time.perf_counter()
        digests = [
            PROCESS_CACHE.block_digest(st.name, i) for i in st.expanded.indices
        ]
        t1 = time.perf_counter()
        contribute((_G2, g2), st.sigma, scaled_zeta)
        g1_scalars[epsilon] = g1_scalars.get(epsilon, 0) - st.y * st.rho
        for point, coefficient in zip(digests, st.expanded.coefficients):
            contribute(epsilon, point, -(coefficient * scaled_zeta), True)
        # e(psi^{-zeta rho}, delta - r*epsilon) splits by bilinearity into
        # e(psi^{-zeta rho}, delta) * e(psi^{r zeta rho}, epsilon), so the
        # psi legs land on the *fixed* per-owner G2 points instead of a
        # fresh delta - r*epsilon combination per challenge point — no
        # per-epoch G2 arithmetic or Miller-line preparation at all.
        contribute((_DELTA, st.public.delta), st.psi, -scaled_zeta)
        contribute(epsilon, st.psi, st.expanded.point * scaled_zeta)
        if st.commitment is not None:
            gt_items.append((st.commitment, st.rho))
        t2 = time.perf_counter()
        if report is not None:
            report.hash_seconds += t1 - t0
            report.msm_seconds += t2 - t1
    for epsilon, scalar in g1_scalars.items():
        contribute(epsilon, g1, scalar, True)
    t0 = time.perf_counter()
    # Cached wNAF tables for the fixed bases, cached Miller-loop lines for
    # the fixed G2 points.
    pairs = [
        (
            PROCESS_CACHE.wnaf_msm(bases, scalars, cacheable),
            PROCESS_CACHE.prepared_g2(g2_point),
        )
        for (_, g2_point), (bases, scalars, cacheable) in legs.items()
    ]
    t1 = time.perf_counter()
    # All rho-blinded commitments ride one shared cyclotomic squaring chain
    # (bit-identical to a per-item gt_pow product, ~U times fewer squarings).
    product = final_exponentiation(miller_loop_product(pairs))
    ok = (product * gt_multi_pow(gt_items)).is_one()
    t2 = time.perf_counter()
    if report is not None:
        report.msm_seconds += t1 - t0
        report.pairing_seconds += t2 - t1
    return ok, pairs


#: Finished Eq.-(2) verdicts staged ahead of the calls that will ask for
#: them, keyed by :func:`verdict_key`.  Consumed on read, and whoever staged
#: an entry drops it when its scope ends (a sealed block's due calls), so the
#: map is empty between blocks and needs no size bound.
VERDICT_MEMO: dict[tuple, VerifyOutcome] = {}


def verdict_key(
    public: PublicKey,
    name: int,
    num_chunks: int,
    challenge: Challenge,
    proof: PrivateProof,
) -> tuple:
    """Everything Eq. (2) reads for one statement, as bytes and ints.

    Of the public key that is ``epsilon`` and ``delta``: the powers of
    alpha and ``e(g1, epsilon)`` are the prover's, and serializing them
    here would cache affine coordinates on points the chain pickles.
    """
    return (
        g2_to_bytes(public.epsilon) + g2_to_bytes(public.delta),
        name,
        num_chunks,
        challenge.to_bytes(),
        challenge.k,
        proof.to_bytes(),
    )


class Verifier:
    """Stateless audit verification bound to one (public key, file) pair."""

    def __init__(self, public: PublicKey, name: int, num_chunks: int):
        if num_chunks < 1:
            raise ValueError("file must contain at least one chunk")
        self.public = public
        self.name = name
        self.num_chunks = num_chunks

    def _check(
        self,
        challenge: Challenge,
        sigma: G1Point,
        y: int,
        psi: G1Point,
        commitment: Fp12 | None,
        report: VerifyReport | None,
    ) -> VerifyOutcome:
        statement = Statement(
            self.public,
            self.name,
            challenge.expand(self.num_chunks),
            sigma,
            y,
            psi,
            commitment,
        )
        ok, legs = pairing_product_check([statement], report)
        if ok:
            return VerifyOutcome.accept()
        private = commitment is not None
        equation, detail, labels = _EQ2 if private else _EQ1
        residuals = _pairing_group_residuals(
            list(zip(labels, legs)),
            extra=(("commitment-R", commitment),) if private else (),
        )
        return VerifyOutcome(
            ok=False,
            reason=RejectionReason(PAIRING_MISMATCH, equation, residuals, detail),
        )

    def verify_plain(
        self,
        challenge: Challenge,
        proof: PlainProof,
        report: VerifyReport | None = None,
    ) -> VerifyOutcome:
        """Paper Eq. (1): the non-private check (used by baselines/attack demo)."""
        return self._check(challenge, proof.sigma, proof.y, proof.psi, None, report)

    def verify_private(
        self,
        challenge: Challenge,
        proof: PrivateProof,
        report: VerifyReport | None = None,
    ) -> VerifyOutcome:
        """Paper Eq. (2): the Sigma-masked on-chain check."""
        if VERDICT_MEMO:
            staged = VERDICT_MEMO.pop(
                verdict_key(self.public, self.name, self.num_chunks, challenge, proof),
                None,
            )
            if staged is not None:
                return staged
        return self._check(
            challenge,
            proof.sigma,
            proof.y_masked,
            proof.psi,
            proof.commitment,
            report,
        )
