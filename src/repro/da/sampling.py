"""Light-client data-availability sampling (the "lightweight" in action).

A sampling client never downloads an epoch's leaf set.  It draws a
deterministic pseudo-random set of chunk indices from its own seed and the
committed NMT root, fetches just those chunks with their namespaced
openings, and verifies each against the 64-byte root it already trusts
from the checkpoint.  Against an aggregator withholding a fraction ``f``
of the extended chunks, ``s`` samples detect the hole with probability
``1 - (1 - f)**s`` — at the default budget of 18 samples and the 25%
detection target fraction that is ``1 - 0.75**18 ≈ 99.44%``, for a
download of 18 chunks instead of the whole epoch.  (An attack that
actually makes data unrecoverable must hide *more than* ``1 - k/n`` of
the chunks — 75% under the default 4x extension — where detection is
essentially certain; the 25% target shows the client flags trouble long
before withholding gets anywhere near useful.)

The same machinery escalates: :meth:`DaSampler.reconstruct` keeps fetching
verified chunks until ``k`` accumulate, decodes the blob, and checks the
rebuilt leaf set against the checkpoint root — producing the full-data
evidence ``challenge_counts`` demands without ever trusting the server.

Determinism is deliberate.  The index schedule is a pure function of
``(seed, NMT root)``, so a sampling run is reproducible in a regression
test or an incident report, yet unpredictable to the aggregator before
the root is fixed — it cannot pre-compute which chunks are safe to hide
from a client whose seed it does not know.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable

from ..obs.registry import MetricsRegistry, get_registry
from .commit import DaCommitment, DaReconstruction, reconstruct_records
from .errors import (
    DaReconstructionMismatch,
    DaUnavailable,
    DaWithholdingDetected,
)
from .nmt import NmtProof, NmtRoot, verify_nmt_proof

#: Default number of chunks a light client samples per epoch.  Chosen as
#: the smallest budget whose analytic detection probability against the
#: f = 0.25 detection target fraction clears 99%: 1 - 0.75**18 ≈ 0.9944
#: (17 samples lands at 0.9925; 16 misses the bar at 0.98998).
DEFAULT_SAMPLE_BUDGET = 18

_SAMPLE_DOMAIN = b"da-sample-v1"

#: ``fetch(lane_id, epoch, indices) -> {index: (chunk, proof) | None}``.
#: ``None`` (or a missing key) means the server declined that index; a
#: ``None`` proof means its answer did not decode (a bad-proof sample).
FetchFn = Callable[
    [int, int, "tuple[int, ...]"],
    "dict[int, tuple[bytes, NmtProof | None] | None]",
]


def detection_probability(withheld_fraction: float, samples: int) -> float:
    """Analytic P[at least one sample hits a withheld chunk]."""
    if not 0.0 <= withheld_fraction <= 1.0:
        raise ValueError("withheld fraction must be in [0, 1]")
    if samples < 0:
        raise ValueError("sample count must be non-negative")
    return 1.0 - (1.0 - withheld_fraction) ** samples


def sample_indices(
    seed: bytes, root: NmtRoot, num_chunks: int, budget: int
) -> tuple[int, ...]:
    """Deterministic without-replacement chunk schedule for one epoch.

    SHA-256 in counter mode over ``domain || seed || root digest``, read
    out in 4-byte big-endian windows reduced mod ``num_chunks``.  Binding
    the root means different epochs (and different commitments for the
    same epoch) get independent schedules from one client seed.
    """
    if num_chunks < 1:
        raise ValueError("cannot sample from an empty chunk set")
    if budget < 1:
        raise ValueError("sample budget must be positive")
    want = min(budget, num_chunks)
    picked: list[int] = []
    seen: set[int] = set()
    counter = 0
    while len(picked) < want:
        block = hashlib.sha256(
            _SAMPLE_DOMAIN + seed + root.digest + counter.to_bytes(8, "big")
        ).digest()
        counter += 1
        for offset in range(0, len(block) - 3, 4):
            index = int.from_bytes(block[offset : offset + 4], "big") % num_chunks
            if index not in seen:
                seen.add(index)
                picked.append(index)
                if len(picked) == want:
                    break
    return tuple(picked)


@dataclass(frozen=True)
class SampleOutcome:
    """Verdict for one sampled chunk index."""

    index: int
    ok: bool
    reason: str  # "ok" | "missing" | "bad-proof"
    bytes_fetched: int


@dataclass(frozen=True)
class SampleReport:
    """Everything one sampling run learned, including its download bill."""

    commitment: DaCommitment
    indices: tuple[int, ...]
    outcomes: tuple[SampleOutcome, ...]
    chunk_bytes: int
    proof_bytes: int

    @property
    def available(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def failures(self) -> tuple[SampleOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.ok)

    @property
    def downloaded_bytes(self) -> int:
        return self.chunk_bytes + self.proof_bytes

    def raise_if_withheld(self) -> None:
        failures = self.failures
        if failures:
            failed = ", ".join(
                f"{o.index} ({o.reason})" for o in failures
            )
            raise DaWithholdingDetected(
                f"lane {self.commitment.lane_id} epoch "
                f"{self.commitment.epoch}: {len(failures)} of "
                f"{len(self.outcomes)} sampled chunks failed: {failed}",
                failures=failures,
            )

    def to_object(self) -> dict:
        """JSON-safe summary for RPC/CLI surfaces."""
        return {
            "lane": self.commitment.lane_id,
            "epoch": self.commitment.epoch,
            "samples": len(self.outcomes),
            "available": self.available,
            "failed_indices": [o.index for o in self.failures],
            "downloaded_bytes": self.downloaded_bytes,
        }


class DaSampler:
    """Sampling light client over any chunk-serving transport.

    ``fetch`` abstracts the wire: in-process it closes over a
    :class:`~repro.da.commit.DaBundle`; across the network it calls the
    ``da_sample_get`` RPC method.  The sampler trusts nothing it fetches —
    every chunk must open against the committed NMT root at the exact
    sampled position under the exact lane‖epoch namespace.
    """

    def __init__(self, fetch: FetchFn, registry: MetricsRegistry | None = None):
        self._fetch = fetch
        registry = registry or get_registry()
        self._samples = registry.instrument("da_samples_total")
        self._withholding = registry.instrument("da_withholding_detected_total")
        self._reconstructions = registry.instrument("da_reconstructions_total")
        self._run_seconds = registry.instrument("da_sample_run_seconds")

    # -- single-chunk verification --------------------------------------
    def _verify_chunk(
        self,
        commitment: DaCommitment,
        index: int,
        response: "tuple[bytes, NmtProof] | None",
    ) -> SampleOutcome:
        if response is None:
            return SampleOutcome(index=index, ok=False, reason="missing", bytes_fetched=0)
        chunk, proof = response
        fetched = len(chunk) + (0 if proof is None else proof.byte_size())
        ok = (
            proof is not None
            and len(chunk) == commitment.chunk_bytes
            and proof.leaf_index == index
            and proof.namespace == commitment.namespace
            and proof.leaf_data == chunk
            and verify_nmt_proof(commitment.root, proof)
        )
        return SampleOutcome(
            index=index,
            ok=ok,
            reason="ok" if ok else "bad-proof",
            bytes_fetched=fetched,
        )

    # -- sampling -------------------------------------------------------
    def sample(
        self,
        commitment: DaCommitment,
        seed: bytes,
        budget: int = DEFAULT_SAMPLE_BUDGET,
    ) -> SampleReport:
        """Run one deterministic sampling pass; never raises on failure —
        inspect the report or call :meth:`SampleReport.raise_if_withheld`."""
        t0 = perf_counter()
        indices = sample_indices(seed, commitment.root, commitment.n, budget)
        responses = self._fetch(commitment.lane_id, commitment.epoch, indices)
        outcomes = []
        chunk_bytes = proof_bytes = 0
        for index in indices:
            outcome = self._verify_chunk(commitment, index, responses.get(index))
            outcomes.append(outcome)
            self._samples.labels(outcome.reason).inc()
            if outcome.ok:
                chunk_bytes += commitment.chunk_bytes
                proof_bytes += outcome.bytes_fetched - commitment.chunk_bytes
        report = SampleReport(
            commitment=commitment,
            indices=indices,
            outcomes=tuple(outcomes),
            chunk_bytes=chunk_bytes,
            proof_bytes=proof_bytes,
        )
        if not report.available:
            self._withholding.inc()
        self._run_seconds.observe(perf_counter() - t0)
        return report

    # -- escalation: full reconstruction --------------------------------
    def reconstruct(
        self,
        commitment: DaCommitment,
        seed: bytes,
        batch: int = 8,
    ) -> DaReconstruction:
        """Gather any ``k`` verified chunks and rebuild the full leaf set.

        Starts from the deterministic sample schedule (chunks the client
        may already hold), then walks the remaining indices in order,
        fetching ``batch`` at a time.  Raises :class:`DaUnavailable` when
        the server cannot produce ``k`` verifiable chunks — the precise
        condition under which the epoch's data is unrecoverable.
        """
        schedule = list(
            sample_indices(seed, commitment.root, commitment.n, commitment.n)
        )
        verified: dict[int, bytes] = {}
        tried: set[int] = set()
        position = 0
        while len(verified) < commitment.k and position < len(schedule):
            window = [
                i for i in schedule[position : position + batch] if i not in tried
            ]
            position += batch
            if not window:
                continue
            tried.update(window)
            responses = self._fetch(
                commitment.lane_id, commitment.epoch, tuple(window)
            )
            for index in window:
                outcome = self._verify_chunk(
                    commitment, index, responses.get(index)
                )
                self._samples.labels(outcome.reason).inc()
                if outcome.ok:
                    chunk, _proof = responses[index]
                    verified[index] = chunk
        if len(verified) < commitment.k:
            self._reconstructions.labels("unavailable").inc()
            raise DaUnavailable(
                f"lane {commitment.lane_id} epoch {commitment.epoch}: only "
                f"{len(verified)} of the required {commitment.k} chunks "
                f"verified after trying all {commitment.n}"
            )
        try:
            reconstruction = reconstruct_records(commitment, verified)
        except (DaReconstructionMismatch, ValueError):
            self._reconstructions.labels("mismatch").inc()
            raise
        self._reconstructions.labels("ok").inc()
        return reconstruction


def bundle_fetch(bundles) -> FetchFn:
    """In-process transport: serve from local DaBundles.

    ``bundles`` maps ``(lane_id, epoch) -> DaBundle``; unknown epochs and
    withheld chunks both answer ``None`` per index, exactly like a remote
    server refusing to serve.
    """

    def fetch(
        lane_id: int, epoch: int, indices: Iterable[int]
    ) -> dict[int, tuple[bytes, NmtProof] | None]:
        bundle = bundles.get((lane_id, epoch))
        return {
            index: None if bundle is None else bundle.chunk_with_proof(index)
            for index in indices
        }

    return fetch
