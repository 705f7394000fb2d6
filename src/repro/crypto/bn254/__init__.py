"""Pure-Python BN254 (alt_bn128) pairing group.

This is the drop-in replacement for the Cloudflare ``bn256`` Go library used
by the paper's prototype: same curve, same security level, same element
sizes.  Public surface:

* :class:`G1Point`, :class:`G2Point` — group arithmetic,
* :func:`pairing`, :func:`pairing_product`, :func:`pairing_check` — the
  optimal-ate pairing and EVM-style product checks,
* :func:`multi_scalar_mul` — interleaved-wNAF MSM,
* :func:`hash_to_g1`, :func:`hash_gt_to_scalar` — the paper's oracles H, H',
* ``*_to_bytes`` / ``*_from_bytes`` — canonical encodings with the byte
  sizes the paper's proof accounting relies on.
"""

from .constants import (
    ATE_LOOP_COUNT,
    BN_T,
    CURVE_ORDER,
    FIELD_MODULUS,
    FP_BYTES,
    G1_COMPRESSED_BYTES,
    G1_UNCOMPRESSED_BYTES,
    G2_COMPRESSED_BYTES,
    G2_UNCOMPRESSED_BYTES,
    GT_COMPRESSED_BYTES,
    GT_UNCOMPRESSED_BYTES,
)
from .curve import G1Point, G2Point, TWIST_B
from .fields import Fp2, Fp6, Fp12, fp_sqrt
from .gt import GTFixedBase, gt_multi_pow, gt_pow
from .hash_to_curve import hash_gt_to_scalar, hash_to_g1, hash_to_scalar
from .msm import (
    FixedBaseMul,
    multi_scalar_mul,
    multi_scalar_mul_naive,
    wnaf_table_g1,
)
from .precompute import PROCESS_CACHE, CacheStats, PrecomputeCache
from .pairing import (
    G2Prepared,
    final_exponentiation,
    miller_loop,
    miller_loop_product,
    pairing,
    pairing_check,
    pairing_product,
    prepare_g2,
)
from .serialization import (
    DeserializationError,
    g1_from_bytes,
    g1_to_bytes,
    g1_to_bytes_uncompressed,
    g2_from_bytes,
    g2_to_bytes,
    g2_to_bytes_uncompressed,
    gt_from_bytes,
    gt_to_bytes,
    gt_to_bytes_uncompressed,
)

__all__ = [
    "ATE_LOOP_COUNT",
    "BN_T",
    "CURVE_ORDER",
    "FIELD_MODULUS",
    "FP_BYTES",
    "G1_COMPRESSED_BYTES",
    "G1_UNCOMPRESSED_BYTES",
    "G2_COMPRESSED_BYTES",
    "G2_UNCOMPRESSED_BYTES",
    "GT_COMPRESSED_BYTES",
    "GT_UNCOMPRESSED_BYTES",
    "CacheStats",
    "DeserializationError",
    "FixedBaseMul",
    "Fp2",
    "Fp6",
    "Fp12",
    "G1Point",
    "G2Point",
    "G2Prepared",
    "GTFixedBase",
    "PROCESS_CACHE",
    "PrecomputeCache",
    "TWIST_B",
    "final_exponentiation",
    "fp_sqrt",
    "g1_from_bytes",
    "g1_to_bytes",
    "g1_to_bytes_uncompressed",
    "g2_from_bytes",
    "g2_to_bytes",
    "g2_to_bytes_uncompressed",
    "gt_from_bytes",
    "gt_to_bytes",
    "gt_to_bytes_uncompressed",
    "gt_multi_pow",
    "gt_pow",
    "hash_gt_to_scalar",
    "hash_to_g1",
    "hash_to_scalar",
    "miller_loop",
    "miller_loop_product",
    "multi_scalar_mul",
    "multi_scalar_mul_naive",
    "pairing",
    "pairing_check",
    "pairing_product",
    "prepare_g2",
    "wnaf_table_g1",
]
