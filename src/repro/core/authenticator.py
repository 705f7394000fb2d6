"""Homomorphic authenticator generation and validation (paper Section V-B).

The data owner binds every chunk to a single G1 authenticator through the
pairing-based polynomial commitment:

    sigma_i = (g1^{M_i(alpha)} * H(name || i))^x

Knowing ``alpha``, the owner evaluates ``M_i(alpha)`` directly in Zp and
pays two scalar multiplications plus one hash-to-curve per chunk — this is
the "minimized work for data owner" of Section VII-C.

The provider, who must *not* learn ``alpha``, validates the received
authenticators against the public powers with pairings (Initialize phase:
"S checks it with public keys").  The randomised batch check keeps that a
constant number of pairings.

Instrumented timing (ECC vs Zp vs hashing) feeds the Fig. 7 benchmark; the
``naive`` evaluation mode reproduces the O(s^2)-per-chunk behaviour that
explains the paper's U-shaped preprocessing curve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal, Sequence

from ..crypto.bn254 import (
    CURVE_ORDER,
    G1Point,
    hash_to_g1,
    multi_scalar_mul,
    pairing_check,
)
from ..crypto.bn254.msm import generator_table
from ..crypto.field import random_scalar
from .chunking import ChunkedFile
from .keys import KeyPair, PublicKey
from .polynomial import evaluate, evaluate_naive, interpolate_sequential

EvalMode = Literal["horner", "naive", "interpolate"]


def _evaluate_interpolated(chunk, alpha: int) -> int:
    """Evaluation-form chunks: O(s^2) basis transform, then Horner.

    Models the prototype's per-chunk "polynomial coefficient
    transformation" (see :func:`interpolate_sequential`); reproduces the
    Fig. 7 U-shape when swept over s.
    """
    return evaluate(interpolate_sequential(list(chunk)), alpha)


def block_digest_point(name: int, chunk_index: int) -> G1Point:
    """H(name || i): the per-chunk random-oracle digest in G1."""
    message = name.to_bytes(32, "big") + b"||" + chunk_index.to_bytes(8, "big")
    return hash_to_g1(message)


@dataclass
class PreprocessReport:
    """Wall-clock decomposition of authenticator generation (Fig. 7 data)."""

    num_chunks: int = 0
    zp_seconds: float = 0.0
    ecc_seconds: float = 0.0
    hash_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.zp_seconds + self.ecc_seconds + self.hash_seconds


def generate_authenticators(
    chunked: ChunkedFile,
    keypair: KeyPair,
    mode: EvalMode = "horner",
    report: PreprocessReport | None = None,
) -> list[G1Point]:
    """Compute sigma_i for every chunk of the file.

    ``mode='horner'`` is the efficient path (O(s) Zp ops per chunk);
    ``mode='naive'`` re-exponentiates per coefficient (O(s log s));
    ``mode='interpolate'`` treats blocks as evaluations and performs the
    O(s^2) coefficient transformation per chunk — the prototype-faithful
    mode that reproduces the Fig. 7 U-shape.
    """
    x = keypair.secret.x
    alpha = keypair.secret.alpha
    evaluators = {
        "horner": evaluate,
        "naive": evaluate_naive,
        "interpolate": _evaluate_interpolated,
    }
    evaluator = evaluators[mode]
    table = generator_table()
    authenticators = []
    for index, chunk in enumerate(chunked.chunks):
        t0 = time.perf_counter()
        m_alpha = evaluator(chunk, alpha)
        t1 = time.perf_counter()
        digest = block_digest_point(chunked.name, index)
        t2 = time.perf_counter()
        committed = table.mul(m_alpha) + digest
        authenticators.append(committed * x)
        t3 = time.perf_counter()
        if report is not None:
            report.num_chunks += 1
            report.zp_seconds += t1 - t0
            report.hash_seconds += t2 - t1
            report.ecc_seconds += t3 - t2
    return authenticators


def validate_authenticator(
    chunk: Sequence[int],
    chunk_index: int,
    authenticator: G1Point,
    public: PublicKey,
    name: int,
) -> bool:
    """Provider-side check of a single sigma_i (two pairings).

    e(sigma_i, g2) == e(g1^{M_i(alpha)} * H(name||i), epsilon), where the
    commitment is rebuilt from the public alpha-powers (the provider never
    sees alpha).
    """
    if len(chunk) > len(public.powers):
        raise ValueError("chunk degree exceeds the published alpha powers")
    from ..crypto.bn254.curve import G2Point

    commitment = multi_scalar_mul(list(public.powers[: len(chunk)]), list(chunk))
    commitment = commitment + block_digest_point(name, chunk_index)
    return pairing_check(
        [(authenticator, G2Point.generator()), (-commitment, public.epsilon)]
    )


def validate_authenticators_batched(
    chunked: ChunkedFile,
    authenticators: Sequence[G1Point],
    public: PublicKey,
    rng=None,
) -> bool:
    """Randomised whole-file validation with a single product pairing.

    Checks e(sum rho_i sigma_i, g2) == e(sum rho_i (C_i + H_i), epsilon)
    for uniformly random rho_i; a forged authenticator passes with
    probability 1/r.  Cost: one d-term and one s-term MSM + 2 Miller loops.
    """
    if len(authenticators) != chunked.num_chunks:
        return False
    if chunked.s > len(public.powers):
        raise ValueError("chunk degree exceeds the published alpha powers")
    from ..crypto.bn254.curve import G2Point

    weights = [random_scalar(rng) for _ in range(chunked.num_chunks)]
    # Aggregate chunk coefficients across chunks: combined[j] = sum_i w_i m_{i,j}.
    combined = [0] * chunked.s
    for weight, chunk in zip(weights, chunked.chunks):
        for j, block in enumerate(chunk):
            combined[j] = (combined[j] + weight * block) % CURVE_ORDER
    commitment = multi_scalar_mul(list(public.powers[: chunked.s]), combined)
    digests = [
        block_digest_point(chunked.name, index)
        for index in range(chunked.num_chunks)
    ]
    commitment = commitment + multi_scalar_mul(digests, weights)
    aggregated = multi_scalar_mul(list(authenticators), weights)
    return pairing_check(
        [(aggregated, G2Point.generator()), (-commitment, public.epsilon)]
    )


def authenticator_storage_bytes(num_chunks: int) -> int:
    """Provider-side extra storage: one compressed G1 point per chunk."""
    from ..crypto.bn254 import G1_COMPRESSED_BYTES

    return num_chunks * G1_COMPRESSED_BYTES
