"""Canonical byte encodings for BN254 group elements.

These encodings produce exactly the element sizes the paper reports in
Section VII-A (|p| = |G1| = 256 bits, |G2| = 512 bits, |GT| = 1536 bits):

* **G1 compressed, 32 bytes** — big-endian x with two spare top bits
  (p < 2^254): bit 255 = infinity flag, bit 254 = y sign.
* **G2 compressed, 64 bytes** — Fp2 x as c0 || c1, flags in c0's top bits.
* **GT compressed, 192 bytes** — T2 torus compression of the unitary element
  ``g = g0 + g1*w`` to the single Fp6 value ``m = (1 + g0)/g1``; this is what
  lets the private proof fit in 288 bytes (3 x 32 + 192) instead of 480.

Uncompressed variants (64 / 128 / 384 bytes) are provided for completeness
and for hashing GT elements canonically.
"""

from __future__ import annotations

from .constants import FIELD_MODULUS as P
from .constants import (
    FP_BYTES,
    G1_COMPRESSED_BYTES,
    G2_COMPRESSED_BYTES,
    GT_COMPRESSED_BYTES,
)
from .curve import G1Point, G2Point, TWIST_B
from .fields import Fp2, Fp6, Fp12, fp_sqrt
from .kernel import active

_INFINITY_FLAG = 0x80
_SIGN_FLAG = 0x40


class DeserializationError(ValueError):
    """Raised when bytes do not decode to a valid group element."""


def _int_to_bytes(value: int) -> bytes:
    return value.to_bytes(FP_BYTES, "big")


def _int_from_bytes(data: bytes) -> int:
    value = int.from_bytes(data, "big")
    if value >= P:
        raise DeserializationError("field element not canonical (>= p)")
    return value


def _sign_fp(y: int) -> int:
    return 1 if y > P - y else 0


# --------------------------------------------------------------------------
# G1
# --------------------------------------------------------------------------


def g1_to_bytes(point: G1Point) -> bytes:
    """Compressed 32-byte encoding."""
    if point.is_infinity():
        return bytes([_INFINITY_FLAG]) + bytes(FP_BYTES - 1)
    x, y = point.to_affine()
    data = bytearray(_int_to_bytes(x))
    if _sign_fp(y):
        data[0] |= _SIGN_FLAG
    return bytes(data)


def g1_from_bytes(data: bytes) -> G1Point:
    if len(data) != G1_COMPRESSED_BYTES:
        raise DeserializationError(f"G1 point must be {G1_COMPRESSED_BYTES} bytes")
    flags = data[0] & 0xC0
    if flags & _INFINITY_FLAG:
        if any(data[1:]) or data[0] != _INFINITY_FLAG:
            raise DeserializationError("malformed infinity encoding")
        return G1Point.infinity()
    body = bytes([data[0] & 0x3F]) + data[1:]
    x = _int_from_bytes(body)
    y2 = (x * x * x + 3) % P
    y = fp_sqrt(y2)
    if y is None:
        raise DeserializationError("x coordinate not on curve")
    if _sign_fp(y) != (1 if flags & _SIGN_FLAG else 0):
        y = P - y
    return G1Point(x, y)


def g1_to_bytes_uncompressed(point: G1Point) -> bytes:
    if point.is_infinity():
        return bytes(2 * FP_BYTES)
    x, y = point.to_affine()
    return _int_to_bytes(x) + _int_to_bytes(y)


# --------------------------------------------------------------------------
# G2
# --------------------------------------------------------------------------


def g2_to_bytes(point: G2Point) -> bytes:
    """Compressed 64-byte encoding (x.c0 || x.c1 with flags)."""
    if point.is_infinity():
        return bytes([_INFINITY_FLAG]) + bytes(G2_COMPRESSED_BYTES - 1)
    x, y = point.to_affine()
    data = bytearray(_int_to_bytes(x.c0) + _int_to_bytes(x.c1))
    if y.sign():
        data[0] |= _SIGN_FLAG
    return bytes(data)


def g2_from_bytes(data: bytes, check_subgroup: bool = False) -> G2Point:
    if len(data) != G2_COMPRESSED_BYTES:
        raise DeserializationError(f"G2 point must be {G2_COMPRESSED_BYTES} bytes")
    flags = data[0] & 0xC0
    if flags & _INFINITY_FLAG:
        if any(data[1:]) or data[0] != _INFINITY_FLAG:
            raise DeserializationError("malformed infinity encoding")
        return G2Point.infinity()
    body = bytes([data[0] & 0x3F]) + data[1:FP_BYTES]
    c0 = _int_from_bytes(body)
    c1 = _int_from_bytes(data[FP_BYTES:])
    x = Fp2(c0, c1)
    y2 = x.square() * x + TWIST_B
    y = y2.sqrt()
    if y is None:
        raise DeserializationError("x coordinate not on twist")
    if y.sign() != (1 if flags & _SIGN_FLAG else 0):
        y = -y
    point = G2Point(x, y)
    if check_subgroup and not point.is_in_subgroup():
        raise DeserializationError("point not in the r-order subgroup")
    return point


def g2_to_bytes_uncompressed(point: G2Point) -> bytes:
    if point.is_infinity():
        return bytes(4 * FP_BYTES)
    x, y = point.to_affine()
    return b"".join(
        _int_to_bytes(c) for c in (x.c0, x.c1, y.c0, y.c1)
    )


# --------------------------------------------------------------------------
# Fp6 / GT
# --------------------------------------------------------------------------


def fp6_to_bytes(element: Fp6) -> bytes:
    return b"".join(
        _int_to_bytes(c)
        for c in (
            element.c0.c0,
            element.c0.c1,
            element.c1.c0,
            element.c1.c1,
            element.c2.c0,
            element.c2.c1,
        )
    )


def fp6_from_bytes(data: bytes) -> Fp6:
    if len(data) != 6 * FP_BYTES:
        raise DeserializationError("Fp6 element must be 192 bytes")
    coeffs = [
        _int_from_bytes(data[i * FP_BYTES : (i + 1) * FP_BYTES]) for i in range(6)
    ]
    return Fp6(Fp2(coeffs[0], coeffs[1]), Fp2(coeffs[2], coeffs[3]), Fp2(coeffs[4], coeffs[5]))


_V = Fp6(Fp2.zero(), Fp2.one(), Fp2.zero())


def gt_to_bytes(element: Fp12) -> bytes:
    """Torus-compressed 192-byte encoding of a unitary GT element.

    The compression map is ``m = (1 + g0) / g1`` for ``g = g0 + g1*w``; the
    identity (where ``g1 = 0``) gets the reserved all-zero encoding, which no
    compressible element can produce (``m = 0`` would force ``g1 = 0``).

    The native kernel encodes when it is in use; an element it refuses goes
    to :func:`_gt_to_bytes_ref`, which raises with the reference's error.
    """
    kernel = active()
    if kernel is not None:
        encoded = kernel.gt_compress(element._flat12())
        if encoded is not None:
            return encoded
    return _gt_to_bytes_ref(element)


def _gt_to_bytes_ref(element: Fp12) -> bytes:
    if element.is_one():
        return bytes(GT_COMPRESSED_BYTES)
    if element.c1.is_zero():
        raise ValueError("element is not torus-compressible (g1 == 0, g != 1)")
    m = (Fp6.one() + element.c0) * element.c1.inverse()
    return fp6_to_bytes(m)


def gt_from_bytes(data: bytes) -> Fp12:
    """Inverse of :func:`gt_to_bytes`: ``g = (m + w) / (m - w)``.

    Decompressed elements are unitary by construction.  The native kernel
    decodes when it is in use; bytes it refuses go to
    :func:`_gt_from_bytes_ref`, which raises with the reference's error.
    """
    kernel = active()
    if kernel is not None and len(data) == GT_COMPRESSED_BYTES:
        flat = kernel.gt_decompress(data)
        if flat is not None:
            return Fp12._from_flat12(flat)
    return _gt_from_bytes_ref(data)


def _gt_from_bytes_ref(data: bytes) -> Fp12:
    if len(data) != GT_COMPRESSED_BYTES:
        raise DeserializationError(f"GT element must be {GT_COMPRESSED_BYTES} bytes")
    if not any(data):
        return Fp12.one()
    m = fp6_from_bytes(data)
    denominator = m.square() - _V
    if denominator.is_zero():
        raise DeserializationError("degenerate torus element")
    inv = denominator.inverse()
    g0 = (m.square() + _V) * inv
    g1 = (m + m) * inv
    return Fp12(g0, g1)


def gt_to_bytes_uncompressed(element: Fp12) -> bytes:
    return fp6_to_bytes(element.c0) + fp6_to_bytes(element.c1)
