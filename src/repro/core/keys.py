"""Key generation (paper Section V-B, "Initialize").

The data owner samples the secret key ``sk = (x, alpha)`` and publishes

    pk = (epsilon = g2^x,  delta = g2^(alpha * x),  {g1^(alpha^j)},
          g2,  e(g1, epsilon),  H)

on the blockchain.  The powers of alpha run up to ``s - 1`` so that the
storage provider can both build the KZG witness (degree s-2 quotient) *and*
validate the authenticators it receives (degree s-1 commitment) — the paper
lists s-1 powers in Initialize and s powers in the Audit section; we keep
the larger set and account for it in the Fig. 4 size model.

``e(g1, epsilon)`` is only carried when on-chain privacy is enabled: it is
the fixed base of the Sigma commitment ``R`` — this is exactly the constant
size gap between the two bars of the paper's Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from ..crypto.bn254 import (
    CURVE_ORDER,
    FP_BYTES,
    G1_COMPRESSED_BYTES,
    G2_COMPRESSED_BYTES,
    GT_COMPRESSED_BYTES,
    DeserializationError,
    G1Point,
    G2Point,
    GTFixedBase,
    g1_from_bytes,
    g1_to_bytes,
    g2_from_bytes,
    g2_to_bytes,
    gt_from_bytes,
    gt_to_bytes,
    pairing,
)
from ..crypto.bn254.fields import Fp12
from ..crypto.field import random_scalar


@dataclass(frozen=True)
class SecretKey:
    """sk = (x, alpha).  Never leaves the data owner."""

    x: int
    alpha: int


@dataclass(frozen=True)
class PublicKey:
    """The on-chain public key (one per storage contract)."""

    epsilon: G2Point                 # g2^x
    delta: G2Point                   # g2^(alpha x)
    powers: tuple[G1Point, ...]      # g1^(alpha^j), j = 0..s-1
    pairing_base: Fp12 | None        # e(g1, epsilon); present iff private mode

    @property
    def s(self) -> int:
        return len(self.powers)

    @property
    def supports_privacy(self) -> bool:
        return self.pairing_base is not None

    def byte_size(self, include_name: bool = True) -> int:
        """On-chain footprint in bytes — the quantity plotted in Fig. 4."""
        size = 2 * G2_COMPRESSED_BYTES + len(self.powers) * G1_COMPRESSED_BYTES
        if self.pairing_base is not None:
            size += GT_COMPRESSED_BYTES
        if include_name:
            size += FP_BYTES  # the file identifier `name` is also recorded
        return size

    def to_bytes(self) -> bytes:
        parts = [
            len(self.powers).to_bytes(4, "big"),
            b"\x01" if self.pairing_base is not None else b"\x00",
            g2_to_bytes(self.epsilon),
            g2_to_bytes(self.delta),
        ]
        parts.extend(g1_to_bytes(power) for power in self.powers)
        if self.pairing_base is not None:
            parts.append(gt_to_bytes(self.pairing_base))
        return b"".join(parts)

    @staticmethod
    def from_bytes(data: bytes) -> "PublicKey":
        """Decode exactly what :meth:`to_bytes` writes: a count s >= 1, a flag
        of 0 or 1, and nothing after the last element."""
        if len(data) < 5:
            raise DeserializationError("public key header must be 5 bytes")
        count = int.from_bytes(data[:4], "big")
        flag = data[4]
        if count < 1:
            raise DeserializationError("public key must carry at least one power")
        if flag not in (0, 1):
            raise DeserializationError(f"public key flag must be 0 or 1, not {flag}")
        expected = 5 + 2 * G2_COMPRESSED_BYTES + count * G1_COMPRESSED_BYTES
        if flag:
            expected += GT_COMPRESSED_BYTES
        if len(data) != expected:
            raise DeserializationError(
                f"public key with s={count} must be {expected} bytes, not {len(data)}"
            )
        offset = 5
        epsilon = g2_from_bytes(data[offset : offset + G2_COMPRESSED_BYTES])
        offset += G2_COMPRESSED_BYTES
        delta = g2_from_bytes(data[offset : offset + G2_COMPRESSED_BYTES])
        offset += G2_COMPRESSED_BYTES
        powers = []
        for _ in range(count):
            powers.append(g1_from_bytes(data[offset : offset + G1_COMPRESSED_BYTES]))
            offset += G1_COMPRESSED_BYTES
        base = None
        if flag:
            base = gt_from_bytes(data[offset : offset + GT_COMPRESSED_BYTES])
        return PublicKey(
            epsilon=epsilon, delta=delta, powers=tuple(powers), pairing_base=base
        )


@cache
def pairing_generator_table() -> GTFixedBase:
    """The one comb over ``e(g1, g2)``, built on first use (about two
    variable-base powers): key generation raises it to ``x`` for
    ``pairing_base``."""
    return GTFixedBase(pairing(G1Point.generator(), G2Point.generator()))


@dataclass(frozen=True)
class KeyPair:
    secret: SecretKey
    public: PublicKey


def generate_keypair(
    s: int, private_auditing: bool = True, rng=None
) -> KeyPair:
    """Sample sk = (x, alpha) and derive the public key with s alpha-powers."""
    if s < 1:
        raise ValueError("s must be >= 1")
    x = random_scalar(rng)
    alpha = random_scalar(rng)
    g1 = G1Point.generator()
    g2 = G2Point.generator()
    epsilon = g2 * x
    delta = g2 * (alpha * x % CURVE_ORDER)
    powers = []
    power_of_alpha = 1
    for _ in range(s):
        powers.append(g1 * power_of_alpha)
        power_of_alpha = power_of_alpha * alpha % CURVE_ORDER
    # e(g1, g2^x) = e(g1, g2)^x: the same canonical Fp12 element.
    base = pairing_generator_table().pow(x) if private_auditing else None
    return KeyPair(
        secret=SecretKey(x=x, alpha=alpha),
        public=PublicKey(
            epsilon=epsilon, delta=delta, powers=tuple(powers), pairing_base=base
        ),
    )


def validate_public_key(public: PublicKey) -> bool:
    """Structural consistency check a provider runs before signing on.

    Confirms the published powers really are consecutive powers of a single
    alpha under the same x as epsilon/delta:

        e(g1^(alpha^(j+1)), epsilon) == e(g1^(alpha^j), delta / ... )

    Concretely we check e(powers[j+1], epsilon) == e(powers[j], delta)
    pair-by-pair, since delta = epsilon^alpha, and that powers[0] == g1.
    """
    if public.powers[0] != G1Point.generator():
        return False
    from ..crypto.bn254 import pairing_check

    for j in range(len(public.powers) - 1):
        if not pairing_check(
            [(public.powers[j + 1], public.epsilon), (-public.powers[j], public.delta)]
        ):
            return False
    if public.pairing_base is not None:
        if public.pairing_base != pairing(G1Point.generator(), public.epsilon):
            return False
    return True


def validate_public_key_batched(public: PublicKey, rng=None) -> bool:
    """Randomised one-shot variant of :func:`validate_public_key`.

    Takes a random linear combination of all the pairwise checks so the
    whole key is validated with a single product-pairing — the difference
    between O(s) and O(1) pairings for the provider during Initialize.
    """
    if public.powers[0] != G1Point.generator():
        return False
    from ..crypto.bn254 import multi_scalar_mul, pairing_check

    count = len(public.powers) - 1
    if count == 0:
        combined_ok = True
    else:
        weights = [random_scalar(rng) for _ in range(count)]
        lhs = multi_scalar_mul(list(public.powers[1:]), weights)
        rhs = multi_scalar_mul(list(public.powers[:-1]), weights)
        combined_ok = pairing_check([(lhs, public.epsilon), (-rhs, public.delta)])
    if not combined_ok:
        return False
    if public.pairing_base is not None:
        return public.pairing_base == pairing(G1Point.generator(), public.epsilon)
    return True
