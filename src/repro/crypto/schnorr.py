"""Schnorr signatures over BN254 G1 (the paper's reference [28]).

The Sigma-protocol masking at the heart of the paper *is* Schnorr's
identification protocol transplanted onto the pairing structure; this
module implements the classic signature scheme itself, which the chain
substrate uses to authenticate transactions (a real deployment's senders
are signatures, not honesty).

Scheme (Fiat-Shamir over G1):

    keygen:  sk = x,  pk = g1^x
    sign:    k <-$ Zr,  R = g1^k,  e = H(R || pk || m),  s = k + e*x
    verify:  g1^s == R * pk^e
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .bn254 import CURVE_ORDER, G1Point, g1_from_bytes, g1_to_bytes
from .bn254.msm import generator_table
from .field import random_scalar


def _challenge(nonce_point: G1Point, public: G1Point, message: bytes) -> int:
    digest = hashlib.sha256(
        b"SCHNORR-BN254"
        + g1_to_bytes(nonce_point)
        + g1_to_bytes(public)
        + message
    ).digest()
    wide = digest + hashlib.sha256(digest).digest()
    return int.from_bytes(wide, "big") % CURVE_ORDER


@dataclass(frozen=True)
class Signature:
    nonce_point: G1Point  # R
    s: int

    def to_bytes(self) -> bytes:
        return g1_to_bytes(self.nonce_point) + self.s.to_bytes(32, "big")

    @staticmethod
    def from_bytes(data: bytes) -> "Signature":
        if len(data) != 64:
            raise ValueError("Schnorr signature must be 64 bytes")
        s = int.from_bytes(data[32:], "big")
        if s >= CURVE_ORDER:
            raise ValueError("signature scalar not canonical")
        return Signature(nonce_point=g1_from_bytes(data[:32]), s=s)


@dataclass(frozen=True)
class SigningKey:
    secret: int

    @staticmethod
    def generate(rng=None) -> "SigningKey":
        return SigningKey(secret=random_scalar(rng))

    @property
    def public(self) -> "VerifyingKey":
        return VerifyingKey(point=generator_table().mul(self.secret))

    def sign(self, message: bytes, rng=None) -> Signature:
        nonce = random_scalar(rng)
        nonce_point = generator_table().mul(nonce)
        e = _challenge(nonce_point, self.public.point, message)
        s = (nonce + e * self.secret) % CURVE_ORDER
        return Signature(nonce_point=nonce_point, s=s)


@dataclass(frozen=True)
class VerifyingKey:
    point: G1Point

    def verify(self, message: bytes, signature: Signature) -> bool:
        e = _challenge(signature.nonce_point, self.point, message)
        lhs = generator_table().mul(signature.s)
        rhs = signature.nonce_point + self.point * e
        return lhs == rhs

    def to_bytes(self) -> bytes:
        return g1_to_bytes(self.point)

    @staticmethod
    def from_bytes(data: bytes) -> "VerifyingKey":
        return VerifyingKey(point=g1_from_bytes(data))

    def address(self) -> str:
        """Ethereum-style address: hash of the public key."""
        return "0x" + hashlib.sha256(b"ADDR" + self.to_bytes()).hexdigest()[:40]


def verify_batch(
    items: list[tuple[VerifyingKey, bytes, Signature]], rng=None
) -> bool:
    """Verify many (key, message, signature) triples with one MSM.

    Small-exponent batching (the same trick as the protocol's batch audit
    verification): for random 128-bit rho_i,

        g1^{sum rho_i s_i} == sum rho_i R_i + sum rho_i e_i pk_i

    holds iff every signature verifies, except with probability ~2^-128.
    One n-term MSM replaces n independent verifications — this is how a
    block full of signed transactions is validated efficiently.
    """
    import secrets

    from .bn254.msm import multi_scalar_mul

    if not items:
        return True
    weights = [1] + [
        (secrets.randbits(128) if rng is None else rng.getrandbits(128)) | 1
        for _ in range(len(items) - 1)
    ]
    combined_s = 0
    points: list[G1Point] = []
    scalars: list[int] = []
    for weight, (key, message, signature) in zip(weights, items):
        e = _challenge(signature.nonce_point, key.point, message)
        combined_s = (combined_s + weight * signature.s) % CURVE_ORDER
        points.append(signature.nonce_point)
        scalars.append(weight)
        points.append(key.point)
        scalars.append(weight * e % CURVE_ORDER)
    lhs = generator_table().mul(combined_s)
    rhs = multi_scalar_mul(points, scalars)
    return lhs == rhs
