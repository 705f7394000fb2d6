"""The storage provider's proof generation (paper Fig. 3, right column).

Given the expanded challenge ``{(i_t, c_t)}, r`` the prover computes

    sigma = prod_t sigma_{i_t}^{c_t}                       (k-term G1 MSM)
    P_k   = sum_t c_t * M_{i_t}                            (k*s Zp mults)
    y     = P_k(r)                                         (Horner)
    Q_k   = (P_k - y) / (x - r)                            (synthetic division)
    psi   = g1^{Q_k(alpha)}                                ((s-1)-term MSM)

and, in private mode, the Sigma-protocol masking of Section V-D:

    z  <-$ Zp,   R = e(g1, epsilon)^z,   zeta = H'(R),   y' = zeta*y + z.

Only ``(sigma, y', psi, R)`` ever reaches the chain; ``y`` and therefore the
data-dependent polynomial evaluation stays local.  Timing is split into the
ECC / Zp / GT components plotted in the paper's Figs. 8 and 9.  Every
fixed-base table (authenticators, alpha powers, the GT context) lives in
:data:`repro.crypto.bn254.PROCESS_CACHE`; a prover holds none of its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from ..crypto.bn254 import (
    CURVE_ORDER,
    G1Point,
    PROCESS_CACHE,
    hash_gt_to_scalar,
)
from ..crypto.field import random_scalar
from .challenge import Challenge, ExpandedChallenge
from .chunking import ChunkedFile
from .keys import PublicKey
from .polynomial import evaluate, linear_combination, quotient_by_linear
from .proof import PlainProof, PrivateProof


class ResponseWithheld(RuntimeError):
    """Raised by a prover that deliberately stays silent for a round.

    The adversarial churn strategy (:mod:`repro.adversary.strategies`)
    models providers that are offline when a challenge fires; agents and
    schedulers catch this and let the response window lapse, which the
    contract records as a ``no-proof`` failure.
    """


@dataclass
class ProveReport:
    """Wall-clock decomposition of one proof generation (Figs. 8/9 data)."""

    zp_seconds: float = 0.0
    ecc_seconds: float = 0.0
    privacy_seconds: float = 0.0  # the "+ security" overhead of Fig. 8

    @property
    def total_seconds(self) -> float:
        return self.zp_seconds + self.ecc_seconds + self.privacy_seconds


class Prover:
    """A storage provider's audit-answering state for one stored file."""

    def __init__(
        self,
        chunked: ChunkedFile,
        public: PublicKey,
        authenticators: Sequence[G1Point],
        rng=None,
    ):
        if len(authenticators) != chunked.num_chunks:
            raise ValueError("one authenticator per chunk required")
        if chunked.s > len(public.powers):
            raise ValueError("chunk size exceeds published alpha powers")
        self.chunked = chunked
        self.public = public
        self.authenticators = list(authenticators)
        self._rng = rng

    @property
    def num_chunks(self) -> int:
        return self.chunked.num_chunks

    # -- internals ----------------------------------------------------------

    def _combine(self, expanded: ExpandedChallenge) -> list[int]:
        """P_k = sum_t c_t * M_{i_t}: the one step that reads the file."""
        challenged = [self.chunked.chunks[i] for i in expanded.indices]
        return linear_combination(challenged, list(expanded.coefficients))

    def _aggregate(
        self, expanded: ExpandedChallenge, report: ProveReport | None
    ) -> tuple[G1Point, list[int], int, G1Point]:
        """Shared pipeline: returns (sigma, P_k coefficients, y, psi)."""
        t0 = time.perf_counter()
        combined = self._combine(expanded)
        y = evaluate(combined, expanded.point)
        quotient = quotient_by_linear(combined, expanded.point)
        t1 = time.perf_counter()
        sigma_bases = [self.authenticators[i] for i in expanded.indices]
        sigma_coeffs = list(expanded.coefficients)
        # Authenticators are fixed per file: their wNAF tables amortize
        # across every round that challenges the same chunk.
        sigma = PROCESS_CACHE.wnaf_msm(sigma_bases, sigma_coeffs)
        # The powers of alpha are fixed per contract: cached wNAF tables
        # cost ~30 additions per base to build (vs ~1600 for a windowed
        # fixed-base table) at near-identical per-audit cost.  s == 1 is a
        # degree-0 commitment: empty quotient, psi is the G1 identity.
        psi = PROCESS_CACHE.wnaf_msm(
            list(self.public.powers[: len(quotient)]),
            quotient,
            identity=G1Point.infinity(),
        )
        t2 = time.perf_counter()
        if report is not None:
            report.zp_seconds += t1 - t0
            report.ecc_seconds += t2 - t1
        return sigma, combined, y, psi

    def _sigma_commitment(self, report: ProveReport | None) -> tuple[int, "object"]:
        """Sample z and compute R = e(g1, epsilon)^z with the cached table."""
        t0 = time.perf_counter()
        z = random_scalar(self._rng)
        if self.public.pairing_base is None:
            raise ValueError(
                "public key lacks e(g1, epsilon); regenerate with privacy "
                "support to produce private proofs"
            )
        commitment = PROCESS_CACHE.gt_context(self.public.pairing_base).pow(z)
        t1 = time.perf_counter()
        if report is not None:
            report.privacy_seconds += t1 - t0
        return z, commitment

    # -- public API -----------------------------------------------------------

    def respond_plain(
        self, challenge: Challenge, report: ProveReport | None = None
    ) -> PlainProof:
        """Non-private response (sigma, y, psi) verified by paper Eq. (1).

        Exposed for the baselines and the Section V-C attack demonstration;
        production deployments should always use :meth:`respond_private`.
        """
        expanded = challenge.expand(self.num_chunks)
        sigma, _, y, psi = self._aggregate(expanded, report)
        return PlainProof(sigma=sigma, y=y, psi=psi)

    def respond_private(
        self, challenge: Challenge, report: ProveReport | None = None
    ) -> PrivateProof:
        """The paper's secure audit response (sigma, y', psi, R)."""
        expanded = challenge.expand(self.num_chunks)
        sigma, _, y, psi = self._aggregate(expanded, report)
        z, commitment = self._sigma_commitment(report)
        t0 = time.perf_counter()
        zeta = hash_gt_to_scalar(commitment)
        y_masked = (zeta * y + z) % CURVE_ORDER
        t1 = time.perf_counter()
        if report is not None:
            report.privacy_seconds += t1 - t0
        return PrivateProof(
            sigma=sigma, y_masked=y_masked, psi=psi, commitment=commitment
        )

    # -- storage accounting --------------------------------------------------

    def extra_storage_bytes(self) -> int:
        """Authenticator storage the provider carries (1/s of data size)."""
        from .authenticator import authenticator_storage_bytes

        return authenticator_storage_bytes(self.num_chunks)

