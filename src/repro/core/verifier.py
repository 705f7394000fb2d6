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
exponent ``rho``.  :func:`pairing_product` is that one product;
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

Nothing here remembers a verdict: every call is the check above.  A
validator that checks a sealed block's statements together keeps their
verdicts itself (``AuditContract.due_calls_scope`` in
:mod:`repro.chain.contracts.audit_contract`).
"""

from __future__ import annotations

import hashlib
import operator
import time
from dataclasses import dataclass, replace
from functools import reduce

from ..crypto.bn254 import (
    CURVE_ORDER,
    G1Point,
    G2Point,
    PROCESS_CACHE,
    gt_multi_pow,
    hash_gt_to_scalar,
    miller_loop_product,
    final_exponentiation,
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
    ``epsilon_leg`` is the statement's whole ``epsilon`` input at
    ``rho = 1`` once :func:`retain_legs` has reduced it; the product then
    reads that one point instead of the challenge's digests, ``y`` and
    ``psi``.
    """

    public: PublicKey
    name: int
    expanded: ExpandedChallenge
    sigma: G1Point
    y: int
    psi: G1Point
    commitment: Fp12 | None = None
    rho: int = 1
    epsilon_leg: G1Point | None = None


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


# One leg per fixed G2 point: its G1 bases, their scalars, and which bases
# recur across epochs (digests, g1) and so keep their wNAF tables cached.
_Legs = dict[tuple[int, G2Point], tuple[list[G1Point], list[int], list[bool]]]


def _zeta(statement: Statement) -> int:
    """H'(R), or 1 for Eq. (1)."""
    if statement.commitment is None:
        return 1
    return hash_gt_to_scalar(statement.commitment)


def _digests(statement: Statement, report: VerifyReport | None) -> list[G1Point]:
    """``H(name || i_t)`` per challenged block, from the process cache."""
    t0 = time.perf_counter()
    digests = [
        PROCESS_CACHE.block_digest(statement.name, i)
        for i in statement.expanded.indices
    ]
    if report is not None:
        report.hash_seconds += time.perf_counter() - t0
    return digests


def _epsilon_terms(
    statement: Statement, zeta: int, digests: list[G1Point]
) -> list[tuple[G1Point, int, bool]]:
    """The ``epsilon`` leg's (base, scalar, fixed) inputs at ``rho = 1``
    except ``-y'*g1``: ``-zeta*c_t*H(name || i_t)`` per challenged block and
    ``r*zeta*psi``.  e(psi^{-zeta rho}, delta - r*epsilon) splits by
    bilinearity into e(psi^{-zeta rho}, delta) * e(psi^{r zeta rho},
    epsilon), so the psi inputs land on the *fixed* per-owner G2 points
    instead of a fresh delta - r*epsilon combination per challenge point —
    no per-epoch G2 arithmetic or Miller-line preparation at all."""
    expanded = statement.expanded
    terms = [
        (point, -coefficient * zeta, True)
        for point, coefficient in zip(digests, expanded.coefficients)
    ]
    terms.append((statement.psi, expanded.point * zeta, False))
    return terms


def retain_legs(statement: Statement) -> Statement:
    """``statement`` with its ``epsilon`` input at ``rho = 1`` reduced to
    one point, once: a product over any subset of retained statements then
    pays three MSMs over one point per statement each, whatever ``k`` is."""
    terms = _epsilon_terms(statement, _zeta(statement), _digests(statement, None))
    terms.append((G1Point.generator(), -statement.y, True))
    bases, scalars, cacheable = zip(*terms)
    point = PROCESS_CACHE.wnaf_msm(
        bases, [scalar % CURVE_ORDER for scalar in scalars], cacheable
    )
    return replace(statement, epsilon_leg=point)


def _legs(
    statements: list[Statement], report: VerifyReport | None
) -> tuple[_Legs, list[tuple[Fp12, int]]]:
    """Every statement's G1 inputs, merged per fixed G2 point, and the
    rho-blinded commitments the product multiplies in."""
    g1 = G1Point.generator()
    g2 = G2Point.generator()
    gt_items: list[tuple[Fp12, int]] = []
    # Keyed by (role, point) so a degenerate key (delta == epsilon) still
    # yields the three legs the diagnostics label.
    legs: _Legs = {}
    # Every file of an owner contributes g1^{-y' rho} to the same epsilon
    # leg; folding those into one scalar drops U-per-owner points from the
    # MSMs (the group element is unchanged — same linear combination).
    g1_scalars: dict[tuple[int, G2Point], int] = {}

    def contribute(
        leg: tuple[int, G2Point], base: G1Point, scalar: int, fixed: bool = False
    ) -> None:
        bases, scalars, cacheable = legs.setdefault(leg, ([], [], []))
        bases.append(base)
        scalars.append(scalar % CURVE_ORDER)
        cacheable.append(fixed)

    for st in statements:
        epsilon = (_EPSILON, st.public.epsilon)
        zeta = _zeta(st)
        digests = None if st.epsilon_leg is not None else _digests(st, report)
        t0 = time.perf_counter()
        contribute((_G2, g2), st.sigma, zeta * st.rho)
        if digests is None:
            contribute(epsilon, st.epsilon_leg, st.rho)
        else:
            g1_scalars[epsilon] = g1_scalars.get(epsilon, 0) - st.y * st.rho
            for base, scalar, fixed in _epsilon_terms(st, zeta, digests):
                contribute(epsilon, base, scalar * st.rho, fixed)
        contribute((_DELTA, st.public.delta), st.psi, -zeta * st.rho)
        if st.commitment is not None:
            gt_items.append((st.commitment, st.rho))
        if report is not None:
            report.msm_seconds += time.perf_counter() - t0
    for epsilon, scalar in g1_scalars.items():
        contribute(epsilon, g1, scalar, True)
    return legs, gt_items


def _reduce(legs: _Legs, report: VerifyReport | None) -> list[tuple[G1Point, object]]:
    """One MSM per leg, each against its G2 point's cached Miller lines."""
    t0 = time.perf_counter()
    pairs = [
        (
            PROCESS_CACHE.wnaf_msm(bases, scalars, cacheable),
            PROCESS_CACHE.prepared_g2(g2_point),
        )
        for (_, g2_point), (bases, scalars, cacheable) in legs.items()
    ]
    if report is not None:
        report.msm_seconds += time.perf_counter() - t0
    return pairs


def pairing_product(
    statements: list[Statement], report: VerifyReport | None = None
) -> tuple[Fp12, list[tuple[G1Point, object]]]:
    """``prod_u [R_u * e(..,g2) * e(..,epsilon_u) * e(..,delta_u)]^{rho_u}``.

    Returns the product — a GT element, one iff the check holds; over
    disjoint statement sets with the same blinders the values multiply —
    and the merged ``(G1, G2)`` legs in first-use order (``g2``, then each
    owner's ``epsilon`` and ``delta``): for one statement, exactly the three
    pairing arguments its rejection diagnostics fingerprint.

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
        return Fp12.one(), []
    legs, gt_items = _legs(statements, report)
    pairs = _reduce(legs, report)
    t0 = time.perf_counter()
    # All rho-blinded commitments ride one shared cyclotomic squaring chain
    # (bit-identical to a per-item gt_pow product, ~U times fewer squarings).
    product = final_exponentiation(miller_loop_product(pairs)) * gt_multi_pow(gt_items)
    if report is not None:
        report.pairing_seconds += time.perf_counter() - t0
    return product, pairs


def pairing_product_check(
    statements: list[Statement], report: VerifyReport | None = None
) -> tuple[bool, list[tuple[G1Point, object]]]:
    """Whether :func:`pairing_product` is one, and its merged legs."""
    product, pairs = pairing_product(statements, report)
    return product.is_one(), pairs


def residual_verdict(statement: Statement) -> VerifyOutcome:
    """The lone check's verdict and reason from the rejection diagnostics
    alone (``statement`` at ``rho = 1``): the product of the three legs'
    residuals (times ``R``) is the equation, so a statement already known
    to fail pays for its fingerprints and nothing else."""
    legs, _ = _legs([statement], None)
    return _judged(statement, _reduce(legs, None))


def _judged(
    statement: Statement, pairs: list[tuple[G1Point, object]]
) -> VerifyOutcome:
    """One statement's verdict from its residual legs, reason included."""
    private = statement.commitment is not None
    equation, detail, labels = _EQ2 if private else _EQ1
    residuals = [
        final_exponentiation(miller_loop_product([pair])) for pair in pairs
    ]
    if private:
        residuals.append(statement.commitment)
    if reduce(operator.mul, residuals).is_one():
        return VerifyOutcome.accept()
    return VerifyOutcome(
        ok=False,
        reason=RejectionReason(
            PAIRING_MISMATCH,
            equation,
            tuple(
                (label, _gt_fingerprint(value))
                for label, value in zip(labels + ("commitment-R",), residuals)
            ),
            detail,
        ),
    )


class Verifier:
    """Stateless audit verification bound to one (public key, file) pair."""

    def __init__(self, public: PublicKey, name: int, num_chunks: int):
        if num_chunks < 1:
            raise ValueError("file must contain at least one chunk")
        self.public = public
        self.name = name
        self.num_chunks = num_chunks

    def _statement(
        self,
        challenge: Challenge,
        sigma: G1Point,
        y: int,
        psi: G1Point,
        commitment: Fp12 | None,
    ) -> Statement:
        return Statement(
            self.public,
            self.name,
            challenge.expand(self.num_chunks),
            sigma,
            y,
            psi,
            commitment,
        )

    def _check(
        self, statement: Statement, report: VerifyReport | None
    ) -> tuple[VerifyOutcome, Fp12]:
        """The lone check of one statement (``rho = 1``): its outcome,
        residual fingerprints computed only if it fails, and the product
        it tested."""
        product, pairs = pairing_product([statement], report)
        if product.is_one():
            return VerifyOutcome.accept(), product
        return _judged(statement, pairs), product

    def verify_plain(
        self,
        challenge: Challenge,
        proof: PlainProof,
        report: VerifyReport | None = None,
    ) -> VerifyOutcome:
        """Paper Eq. (1): the non-private check (used by baselines/attack demo)."""
        statement = self._statement(challenge, proof.sigma, proof.y, proof.psi, None)
        return self._check(statement, report)[0]

    def verify_private(
        self,
        challenge: Challenge,
        proof: PrivateProof,
        report: VerifyReport | None = None,
    ) -> VerifyOutcome:
        """Paper Eq. (2): the Sigma-masked on-chain check."""
        statement = self._statement(
            challenge, proof.sigma, proof.y_masked, proof.psi, proof.commitment
        )
        return self._check(statement, report)[0]
