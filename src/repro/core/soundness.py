"""Operational versions of the paper's soundness arguments (Theorem 1).

Two extractors, mirroring the proof sketch in Section VI-A ("the
unforgeable problem can be transformed into the extractability of
knowledge in a proof of knowledge problem"):

1. **Special soundness of the Sigma layer** — two accepting transcripts
   that share the commitment ``R`` (hence the masking nonce ``z``) but
   answer different oracle challenges ``zeta`` reveal the masked
   evaluation:  ``y = (y'_1 - y'_2) / (zeta_1 - zeta_2)``.  In the random
   oracle model an extractor obtains such a pair by forking the prover;
   here :class:`ForkingProver` plays the prover side so the algebra can be
   exercised end to end.

2. **Evaluation-to-data extraction** — given enough opened evaluations of
   ``P_k`` (the PoR heart: any prover answering random challenges
   correctly must "know" the data), Lagrange interpolation plus linear
   algebra recovers the raw blocks.  This is the *same* machinery as the
   Section V-C attack — which is exactly the paper's point: extractability
   for the auditor is leakage for the adversary, and the Sigma layer is
   what separates the two (the extractor works with the prover's
   cooperation / forking; the adversary only sees single-shot masked
   transcripts).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.bn254 import CURVE_ORDER, gt_pow, hash_gt_to_scalar
from .challenge import Challenge
from .polynomial import evaluate, linear_combination
from .proof import PrivateProof
from .prover import Prover


@dataclass(frozen=True)
class ForkedTranscripts:
    """Two accepting transcripts sharing (sigma, psi, R) with distinct zeta."""

    challenge: Challenge
    proof_one: PrivateProof
    zeta_one: int
    proof_two: PrivateProof
    zeta_two: int


class ForkingProver(Prover):
    """A prover that can be 'rewound': same z, two different zetas.

    Models the random-oracle forking lemma: the extractor reprograms
    H'(R) between the two runs.  Only the extractor-facing API differs
    from :class:`Prover`; the proofs themselves are ordinary Eq.-2 proofs.
    """

    def respond_forked(self, challenge: Challenge) -> ForkedTranscripts:
        expanded = challenge.expand(self.chunked.num_chunks)
        sigma, _, y, psi = self._aggregate(expanded, None)
        z, commitment = self._sigma_commitment(None)
        zeta_one = hash_gt_to_scalar(commitment)
        # The "reprogrammed oracle" answer for the second run: any distinct
        # non-zero challenge works; derive it deterministically.
        zeta_two = (zeta_one * 2 + 1) % CURVE_ORDER
        proof_one = PrivateProof(
            sigma=sigma,
            y_masked=(zeta_one * y + z) % CURVE_ORDER,
            psi=psi,
            commitment=commitment,
        )
        proof_two = PrivateProof(
            sigma=sigma,
            y_masked=(zeta_two * y + z) % CURVE_ORDER,
            psi=psi,
            commitment=commitment,
        )
        return ForkedTranscripts(
            challenge=challenge,
            proof_one=proof_one,
            zeta_one=zeta_one,
            proof_two=proof_two,
            zeta_two=zeta_two,
        )


def extract_masked_evaluation(transcripts: ForkedTranscripts) -> tuple[int, int]:
    """Special-soundness extraction: recover (y, z) from a forked pair.

        y = (y'_1 - y'_2) / (zeta_1 - zeta_2)
        z = y'_1 - zeta_1 * y

    Raises ValueError if the transcripts do not actually fork.
    """
    if transcripts.proof_one.commitment != transcripts.proof_two.commitment:
        raise ValueError("transcripts do not share the Sigma commitment R")
    delta_zeta = (transcripts.zeta_one - transcripts.zeta_two) % CURVE_ORDER
    if delta_zeta == 0:
        raise ValueError("transcripts answer the same challenge: no fork")
    delta_y = (
        transcripts.proof_one.y_masked - transcripts.proof_two.y_masked
    ) % CURVE_ORDER
    y = delta_y * pow(delta_zeta, -1, CURVE_ORDER) % CURVE_ORDER
    z = (transcripts.proof_one.y_masked - transcripts.zeta_one * y) % CURVE_ORDER
    return y, z


def verify_extraction(
    transcripts: ForkedTranscripts,
    prover: Prover,
    extracted_y: int,
    extracted_z: int,
) -> bool:
    """Check the extractor's output against the ground truth.

    (Test-harness helper: a real extractor has no ground truth, but here we
    can confirm y = P_k(r) and R = e(g1, eps)^z.)
    """
    expanded = transcripts.challenge.expand(prover.chunked.num_chunks)
    combined = linear_combination(
        [prover.chunked.chunks[i] for i in expanded.indices],
        list(expanded.coefficients),
    )
    if evaluate(combined, expanded.point) != extracted_y:
        return False
    base = prover.public.pairing_base
    if base is None:
        return False
    return gt_pow(base, extracted_z) == transcripts.proof_one.commitment


def knowledge_error_bound(num_forks: int) -> float:
    """Upper bound on the probability a data-less prover survives forking.

    Each independent fork succeeds for a non-knowing prover with
    probability at most 1/r (guessing the masked evaluation); the bound is
    union-style and astronomically small for any practical r.
    """
    r = float(CURVE_ORDER)
    return min(1.0, num_forks / r)
