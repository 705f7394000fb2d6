"""High-level protocol roles: data owner, storage provider, audit sessions.

This module glues the primitive pieces (keys, chunking, authenticators,
prover, verifier) into the three-party workflow of paper Section III-B:

* :class:`DataOwner` prepares a file for outsourcing (encrypt upstream in
  :mod:`repro.storage`, chunk, authenticate) and produces the
  :class:`OutsourcingPackage` sent to the provider over a secure channel,
* :class:`StorageProvider` validates the package before acknowledging the
  contract (Initialize phase) and answers challenges afterwards,
* :class:`OffchainAuditSession` drives challenge/prove/verify rounds without
  a blockchain — the on-chain flow lives in
  :mod:`repro.chain.contracts.audit_contract` and reuses these same roles.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.bn254 import PROCESS_CACHE, G1Point
from ..crypto.field import random_scalar
from .authenticator import (
    PreprocessReport,
    generate_authenticators,
    validate_authenticators_batched,
)
from .challenge import Challenge, random_challenge
from .chunking import ChunkedFile, chunk_file
from .keys import KeyPair, PublicKey, generate_keypair, validate_public_key_batched
from .params import ProtocolParams
from .prover import ProveReport, Prover
from .proof import PrivateProof
from .verifier import Verifier, VerifyOutcome, VerifyReport


@dataclass(frozen=True)
class OutsourcingPackage:
    """Everything the provider receives at contract negotiation time."""

    public: PublicKey
    name: int
    chunked: ChunkedFile
    authenticators: tuple[G1Point, ...]

    @property
    def num_chunks(self) -> int:
        return self.chunked.num_chunks


class DataOwner:
    """The data owner D: key generation, preprocessing, payments."""

    def __init__(self, params: ProtocolParams | None = None, rng=None):
        self.params = params or ProtocolParams()
        self._rng = rng
        self.keypair: KeyPair | None = None

    def prepare(
        self,
        data: bytes,
        private_auditing: bool = True,
        report: PreprocessReport | None = None,
        fresh_keypair: bool = True,
    ) -> OutsourcingPackage:
        """Chunk + authenticate ``data`` and mint the outsourcing package.

        By default a fresh keypair and file identifier are generated per
        file, matching the paper's one-contract-per-file deployment.  With
        ``fresh_keypair=False`` the owner's existing keypair is reused
        across files — sound, since the unique per-file ``name`` domain-
        separates digests and authenticators — which is what lets the
        parallel engine share one GT fixed-base context and one set of
        alpha-power tables across all of an owner's contracts.
        """
        if (
            fresh_keypair
            or self.keypair is None
            or self.keypair.public.supports_privacy != private_auditing
        ):
            self.keypair = generate_keypair(
                self.params.s, private_auditing=private_auditing, rng=self._rng
            )
        name = random_scalar(self._rng)
        chunked = chunk_file(data, self.params, name)
        authenticators = generate_authenticators(chunked, self.keypair, report=report)
        return OutsourcingPackage(
            public=self.keypair.public,
            name=name,
            chunked=chunked,
            authenticators=tuple(authenticators),
        )

    def verifier_for(self, package: OutsourcingPackage) -> Verifier:
        return Verifier(package.public, package.name, package.num_chunks)


class StorageProvider:
    """The storage provider S: validation, storage, proof generation."""

    def __init__(self, rng=None):
        self._rng = rng
        self._stored: dict[int, Prover] = {}

    def accept(self, package: OutsourcingPackage, validate: bool = True) -> bool:
        """Initialize-phase check: validate keys and authenticators.

        Returns False (provider refuses to ACK the contract) when the
        owner's metadata is malformed — the paper's defence against an
        owner forging metadata so audits always fail.
        """
        if validate:
            if not validate_public_key_batched(package.public, rng=self._rng):
                return False
            if not validate_authenticators_batched(
                package.chunked,
                list(package.authenticators),
                package.public,
                rng=self._rng,
            ):
                return False
        self._stored[package.name] = Prover(
            package.chunked,
            package.public,
            list(package.authenticators),
            rng=self._rng,
        )
        return True

    def prover_for(self, name: int) -> Prover:
        if name not in self._stored:
            raise KeyError(f"no file with identifier {name} stored here")
        return self._stored[name]

    def drop_file(self, name: int) -> None:
        """Simulate data loss (the behaviour audits must catch)."""
        prover = self._stored.pop(name, None)
        if prover is not None:
            PROCESS_CACHE.forget(name, prover.authenticators)

    def respond(
        self, name: int, challenge: Challenge, report: ProveReport | None = None
    ) -> PrivateProof:
        return self.prover_for(name).respond_private(challenge, report)


@dataclass
class AuditRoundResult:
    challenge: Challenge
    proof: PrivateProof
    passed: VerifyOutcome  # truthy iff accepted; carries the rejection reason
    prove_report: ProveReport
    verify_report: VerifyReport


class OffchainAuditSession:
    """Challenge/prove/verify loop without a blockchain in between.

    Used by tests, examples and benchmarks; the smart-contract version in
    :mod:`repro.chain` adds deposits, payments and scheduling around the
    same three steps.
    """

    def __init__(
        self,
        owner: DataOwner,
        provider: StorageProvider,
        package: OutsourcingPackage,
        rng=None,
    ):
        self.owner = owner
        self.provider = provider
        self.package = package
        self.verifier = owner.verifier_for(package)
        self._rng = rng
        self.history: list[AuditRoundResult] = []

    def run_round(self, challenge: Challenge | None = None) -> AuditRoundResult:
        if challenge is None:
            challenge = random_challenge(self.owner.params, rng=self._rng)
        prove_report = ProveReport()
        verify_report = VerifyReport()
        proof = self.provider.respond(self.package.name, challenge, prove_report)
        passed = self.verifier.verify_private(challenge, proof, verify_report)
        result = AuditRoundResult(
            challenge=challenge,
            proof=proof,
            passed=passed,
            prove_report=prove_report,
            verify_report=verify_report,
        )
        self.history.append(result)
        return result
