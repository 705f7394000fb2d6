"""Malicious-provider strategies as drop-in :class:`Prover` substitutes.

Each strategy models a concrete way a storage provider cheats after
acknowledging a contract (docs/SCENARIOS.md documents every one with its
expected detection probability and reproduction command):

* :class:`TagForgeryProver` — discarded data *and* tags; answers under a
  self-made keypair with fabricated data ("discard-and-forge").
* :class:`ReplayingProver` — answered one round honestly, then dropped the
  file and replays that proof forever.
* :class:`SelectiveStorageProver` — stores only a ``1 - rho`` fraction of
  chunks and answers as if the missing ones were zero; caught exactly when
  the challenge samples a discarded chunk, i.e. with the paper's
  ``1 - (1 - rho)^c`` probability.
* :class:`BitRotProver` — keeps everything but suffers silent per-chunk
  corruption with probability ``rho``.
* :class:`ChurnProver` — holds the data but is offline (fails to answer)
  with probability ``rho`` per round.

All constructors are signature-compatible with
:class:`~repro.core.prover.Prover` plus a ``rho`` knob, so they substitute
anywhere a prover is stored — ``StorageProvider._stored``, engine
overrides, or the on-chain agents.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from ..core.challenge import Challenge
from ..core.chunking import ChunkedFile
from ..core.confidence import detection_probability
from ..core.keys import generate_keypair
from ..core.proof import PrivateProof
from ..core.prover import Prover, ProveReport, ResponseWithheld
from ..crypto.bn254.constants import CURVE_ORDER

#: Strategy identifiers accepted across the harness (CLI, runner, specs).
STRATEGY_KINDS = ("honest", "forge", "replay", "selective", "bitrot", "offline")


@dataclass(frozen=True)
class StrategySpec:
    """How many providers run one strategy, and with which parameter.

    ``rho`` is the strategy's single knob: the discarded-chunk fraction for
    ``selective``, the per-chunk corruption probability for ``bitrot``, the
    per-round offline probability for ``offline``; ignored by the rest.
    """

    kind: str
    count: int = 1
    rho: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.count < 1:
            raise ValueError("count must be positive")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")


def _derived_rng(chunked: ChunkedFile, salt: str) -> random.Random:
    """Deterministic per-file randomness for a strategy's internal choices."""
    digest = hashlib.sha256(
        salt.encode() + chunked.name.to_bytes(32, "big")
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class TagForgeryProver(Prover):
    """Discard-and-forge: data and tags gone, answers under a forged key.

    The adversary fabricates chunks, generates its *own* keypair, and
    produces authenticators valid under that key.  Every response is
    internally consistent — aggregation, KZG witness and Sigma mask all
    line up — but Eq. (2) is checked against the owner's real public key,
    so the proof is rejected (detection probability 1): forging tags that
    verify under ``pk`` without ``sk`` would break the computational
    Diffie–Hellman assumption (paper Theorem 1).
    """

    def __init__(self, chunked, public, authenticators, rng=None):
        super().__init__(chunked, public, authenticators, rng=rng)
        forger = _derived_rng(chunked, "forge")
        forged_keypair = generate_keypair(
            chunked.s, private_auditing=True, rng=forger
        )
        fake_chunks = tuple(
            tuple(forger.randrange(CURVE_ORDER) for _ in range(chunked.s))
            for _ in range(chunked.num_chunks)
        )
        fake_chunked = ChunkedFile(
            name=chunked.name,
            byte_length=chunked.byte_length,
            s=chunked.s,
            chunks=fake_chunks,
        )
        from ..core.authenticator import generate_authenticators

        forged_tags = generate_authenticators(fake_chunked, forged_keypair)
        self._forged = Prover(
            fake_chunked, forged_keypair.public, forged_tags, rng=forger
        )

    def respond_private(
        self, challenge: Challenge, report: ProveReport | None = None
    ) -> PrivateProof:
        return self._forged.respond_private(challenge, report)


class ReplayingProver(Prover):
    """Answers the first challenge honestly, then replays that proof.

    Models a provider that kept the file just long enough to pass one
    audit.  Challenge freshness (beacon-derived ``C1/C2/r`` per round)
    makes the stale proof fail every later round; the contract's byte-
    equality check additionally names the behaviour ``replayed-proof``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._cached: PrivateProof | None = None
        self.replays = 0

    def respond_private(
        self, challenge: Challenge, report: ProveReport | None = None
    ) -> PrivateProof:
        if self._cached is None:
            self._cached = super().respond_private(challenge, report)
        else:
            self.replays += 1
        return self._cached


class SelectiveStorageProver(Prover):
    """Stores only ``1 - rho`` of the chunks; missing ones read as zero.

    The homomorphic aggregation forces the prover to answer over *exactly*
    the challenged set, so the response is honest whenever the challenge
    misses every discarded chunk and wrong otherwise — the textbook
    ``1 - (1 - rho)^c`` detection model the paper's Section VI-A cites.
    """

    def __init__(
        self,
        chunked,
        public,
        authenticators,
        rng=None,
        rho: float = 0.25,
    ):
        chooser = _derived_rng(chunked, "selective")
        discard_count = round(chunked.num_chunks * rho)
        self.discarded = frozenset(
            chooser.sample(range(chunked.num_chunks), discard_count)
        )
        self.rho = rho
        self._original = chunked
        zeroed = ChunkedFile(
            name=chunked.name,
            byte_length=chunked.byte_length,
            s=chunked.s,
            chunks=tuple(
                (0,) * chunked.s if index in self.discarded else chunk
                for index, chunk in enumerate(chunked.chunks)
            ),
        )
        super().__init__(zeroed, public, authenticators, rng=rng)

    def tampered_indices(self, challenge: Challenge) -> tuple[int, ...]:
        """Challenged chunks whose served content differs from the data."""
        expanded = challenge.expand(self.chunked.num_chunks)
        return tuple(
            index
            for index in expanded.indices
            if index in self.discarded and any(self._original.chunks[index])
        )

    def would_be_detected(self, challenge: Challenge) -> bool:
        """Ground truth: does this challenge hit a discarded chunk?"""
        return bool(self.tampered_indices(challenge))


class BitRotProver(SelectiveStorageProver):
    """Silent corruption: each chunk independently rots with probability rho.

    Same detection law as selective storage — a challenge catches the rot
    exactly when it samples a corrupted chunk — but the corrupted set is
    binomial rather than a fixed-size sample, matching disk-decay models.
    """

    def __init__(
        self,
        chunked,
        public,
        authenticators,
        rng=None,
        rho: float = 0.25,
    ):
        chooser = _derived_rng(chunked, "bitrot")
        rotted = frozenset(
            index
            for index in range(chunked.num_chunks)
            if chooser.random() < rho
        )
        corrupted = ChunkedFile(
            name=chunked.name,
            byte_length=chunked.byte_length,
            s=chunked.s,
            chunks=tuple(
                ((chunk[0] + 1) % CURVE_ORDER,) + tuple(chunk[1:])
                if index in rotted
                else chunk
                for index, chunk in enumerate(chunked.chunks)
            ),
        )
        # Initialize the parent with *no* discarded set, then substitute
        # the rotted copy: the prover serves corrupted chunks as-is.
        Prover.__init__(self, corrupted, public, authenticators, rng=rng)
        self.discarded = rotted  # the detectable set, reusing the parent API
        self.rho = rho
        self._original = chunked

    def tampered_indices(self, challenge: Challenge) -> tuple[int, ...]:
        expanded = challenge.expand(self.chunked.num_chunks)
        return tuple(
            index for index in expanded.indices if index in self.discarded
        )


class ChurnProver(Prover):
    """Holds the data but is offline with probability rho per round.

    The availability coin is drawn once *per challenge* (memoized on the
    challenge bytes), not per call: on-chain agents retry every block
    while a round is open, and a per-call draw would silently shrink the
    effective offline rate to ``rho^retries``.
    """

    def __init__(
        self,
        chunked,
        public,
        authenticators,
        rng=None,
        rho: float = 0.25,
    ):
        super().__init__(chunked, public, authenticators, rng=rng)
        self.rho = rho
        self._availability = _derived_rng(chunked, "offline")
        self._offline_rounds: dict[bytes, bool] = {}

    def respond_private(
        self, challenge: Challenge, report: ProveReport | None = None
    ) -> PrivateProof:
        key = challenge.to_bytes()
        offline = self._offline_rounds.get(key)
        if offline is None:
            offline = self._availability.random() < self.rho
            self._offline_rounds[key] = offline
        if offline:
            raise ResponseWithheld(
                f"provider offline for this round (churn rho={self.rho})"
            )
        return super().respond_private(challenge, report)


_STRATEGY_CLASSES = {
    "honest": Prover,
    "forge": TagForgeryProver,
    "replay": ReplayingProver,
    "selective": SelectiveStorageProver,
    "bitrot": BitRotProver,
    "offline": ChurnProver,
}


def make_prover(
    kind: str,
    package,
    rng=None,
    rho: float = 0.25,
) -> Prover:
    """Instantiate a strategy prover over an outsourcing package.

    The returned object is a drop-in replacement wherever a
    :class:`~repro.core.prover.Prover` is stored — e.g.
    ``provider._stored[package.name] = make_prover("replay", package)``
    turns an honest on-chain deployment into an attack simulation.
    """
    cls = _STRATEGY_CLASSES.get(kind)
    if cls is None:
        raise ValueError(f"unknown strategy kind {kind!r}")
    kwargs = {"rng": rng}
    if kind in ("selective", "bitrot", "offline"):
        kwargs["rho"] = rho
    return cls(
        package.chunked, package.public, list(package.authenticators), **kwargs
    )


def expected_detection_rate(
    kind: str, rho: float, k: int, epochs: int = 1
) -> float | None:
    """Closed-form per-audit detection probability for a strategy.

    ``selective``/``bitrot`` follow the paper's ``1 - (1 - rho)^c`` with
    ``c = k`` challenged chunks; ``offline`` is caught exactly when it is
    offline (rate ``rho``); ``forge`` always; ``replay`` on every round
    after the first (``(epochs - 1) / epochs`` across a run); ``honest``
    never.  Returns None when no closed form applies.
    """
    if kind == "honest":
        return 0.0
    if kind == "forge":
        return 1.0
    if kind == "replay":
        return (epochs - 1) / epochs if epochs > 0 else None
    if kind in ("selective", "bitrot"):
        return detection_probability(k, rho)
    if kind == "offline":
        return rho
    return None
