"""The paper's main contribution: privacy-assured, lightweight auditing.

Public API tour (see README for a narrated version):

>>> from repro.core import ProtocolParams, DataOwner, StorageProvider
>>> from repro.core import OffchainAuditSession
>>> owner = DataOwner(ProtocolParams(s=10, k=20))
>>> package = owner.prepare(b"some archive bytes" * 100)
>>> provider = StorageProvider()
>>> assert provider.accept(package)
>>> session = OffchainAuditSession(owner, provider, package)
>>> assert session.run_round().passed
"""

from .attacks import (
    EclipseChallengeFactory,
    InterpolationAttacker,
    Transcript,
    transcript_from_plain,
    transcript_from_private,
    transcripts_needed,
)
from .authenticator import (
    PreprocessReport,
    block_digest_point,
    generate_authenticators,
    validate_authenticator,
    validate_authenticators_batched,
)
from .batch import (
    BatchItem,
    BatchVerifyOutcome,
    ItemRejection,
    verify_batch_grouped,
    verify_sequential,
)
from .challenge import (
    Challenge,
    ExpandedChallenge,
    challenge_from_beacon,
    epoch_challenge,
    random_challenge,
)
from .chunking import ChunkedFile, chunk_file, corrupt_chunk
from .confidence import (
    detection_probability,
    detection_probability_exact,
    figure9_k_schedule,
    required_challenges,
)
from .keys import (
    KeyPair,
    PublicKey,
    SecretKey,
    generate_keypair,
    validate_public_key,
    validate_public_key_batched,
)
from .params import DEFAULT_K, DEFAULT_S, ProtocolParams
from .proof import PLAIN_PROOF_BYTES, PRIVATE_PROOF_BYTES, PlainProof, PrivateProof
from .protocol import (
    AuditRoundResult,
    DataOwner,
    OffchainAuditSession,
    OutsourcingPackage,
    StorageProvider,
)
from .prover import ProveReport, Prover, ResponseWithheld
from .soundness import (
    ForkedTranscripts,
    ForkingProver,
    extract_masked_evaluation,
    knowledge_error_bound,
    verify_extraction,
)
from .verifier import RejectionReason, Verifier, VerifyOutcome, VerifyReport

__all__ = [
    "AuditRoundResult",
    "BatchItem",
    "BatchVerifyOutcome",
    "Challenge",
    "ChunkedFile",
    "DataOwner",
    "DEFAULT_K",
    "DEFAULT_S",
    "EclipseChallengeFactory",
    "ForkedTranscripts",
    "ForkingProver",
    "ExpandedChallenge",
    "InterpolationAttacker",
    "ItemRejection",
    "KeyPair",
    "OffchainAuditSession",
    "OutsourcingPackage",
    "PLAIN_PROOF_BYTES",
    "PRIVATE_PROOF_BYTES",
    "PlainProof",
    "PreprocessReport",
    "PrivateProof",
    "ProtocolParams",
    "ProveReport",
    "Prover",
    "PublicKey",
    "RejectionReason",
    "ResponseWithheld",
    "SecretKey",
    "StorageProvider",
    "Transcript",
    "Verifier",
    "VerifyOutcome",
    "VerifyReport",
    "block_digest_point",
    "challenge_from_beacon",
    "chunk_file",
    "corrupt_chunk",
    "detection_probability",
    "epoch_challenge",
    "extract_masked_evaluation",
    "detection_probability_exact",
    "figure9_k_schedule",
    "generate_authenticators",
    "generate_keypair",
    "knowledge_error_bound",
    "random_challenge",
    "required_challenges",
    "transcript_from_plain",
    "transcript_from_private",
    "transcripts_needed",
    "validate_authenticator",
    "validate_authenticators_batched",
    "validate_public_key",
    "validate_public_key_batched",
    "verify_extraction",
    "verify_batch_grouped",
    "verify_sequential",
]
