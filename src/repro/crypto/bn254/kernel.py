"""The native BN254 kernel behind the crypto package's inner loops.

``bn254_kernel.c`` is a 4x64-bit Montgomery ``Fp`` with the Fp2 / Fp6 /
Fp12 tower of :mod:`.fields`, and whole loops on top of it: the shared
Miller loop over prepared lines and the preparation of those lines, the
final exponentiation, the two GT exponentiation chains, the G1 wNAF
chain (recoding included), fixed-base and table-building chains, the
generic G1 and G2 scalar multiplications of ``G1Point.__mul__`` /
``G2Point.__mul__``, the Fp and Fp2 square roots behind point
decompression and hashing to G1, and the T2-torus compression and
decompression of GT behind the 288-byte proof.  Its last section is byte
work: SHA-256 and HMAC-SHA256, the Feistel cycle walk of
``FeistelPrp.sample_indices`` and the wide digests of ``Prf.scalars``, so
expanding a fresh challenge is one call each.  :func:`repro.native.load_library`
builds it once per host; :func:`backend` opens it on first use and keeps
it only when a known-answer probe finds every entry point equal to its
pure-Python reference, else the references run and the reason is
recorded.  Nothing else selects the backend.

The dispatching functions in :mod:`.pairing`, :mod:`.gt`, :mod:`.msm`,
:mod:`.curve`, :mod:`.fields`, :mod:`.serialization` and
:mod:`repro.crypto.prf` ask :func:`active` and run their
pure-Python reference when it returns ``None``.  Results are
bit-identical either way, Jacobian triples included.  Field elements
cross the boundary as 32-byte little-endian canonical integers; tables
the kernel owns (prepared lines, cached wNAF tables, fixed-base tables)
stay in its Montgomery form as opaque ``bytes``, which
:func:`decode_montgomery` reads back in pure Python.  ``ctypes`` releases
the GIL for every call and the kernel keeps no mutable static state, so
lane threads run it concurrently.
"""

from __future__ import annotations

import ctypes
import hashlib
import hmac
import threading
from array import array
from dataclasses import dataclass
from typing import Sequence

from ... import native
from .constants import BN_T, CURVE_ORDER, FIELD_MODULUS, GLV_BETA

#: The kernel source shipped beside this module (``setup.py`` package data).
SOURCE = "bn254_kernel.c"

_FP = 32
_FP12 = 12 * _FP
#: 2^-256 mod p: a Montgomery-form value times this is the field element.
_R_INV = pow(1 << 256, -1, FIELD_MODULUS)

_PTR = ctypes.c_void_p
_SIZE = ctypes.c_size_t
_UINT = ctypes.c_uint
_INT = ctypes.c_int
_SIGNATURES = {
    "bn_to_montgomery": ([_PTR, _PTR, _SIZE], None),
    "bn_from_montgomery": ([_PTR, _PTR, _SIZE], None),
    "bn_fp_sqrt": ([_PTR, _PTR], _INT),
    "bn_fp2_sqrt": ([_PTR, _PTR], _INT),
    "bn_g2_prepare": ([_PTR, _PTR, _SIZE, _PTR, _PTR], _INT),
    "bn_miller_loop": ([_PTR, _PTR, _SIZE, _PTR, _SIZE, _PTR], _INT),
    "bn_final_exponentiation": ([_PTR, _PTR, ctypes.c_uint64, _PTR], _INT),
    "bn_gt_multi_pow": ([_PTR, _PTR, _SIZE, _SIZE, _PTR], _INT),
    "bn_gt_fixed_table": ([_PTR, _UINT, _UINT, _PTR], None),
    "bn_gt_fixed_pow": ([_PTR, _UINT, _UINT, _PTR, _PTR], None),
    "bn_g1_wnaf_tables": ([_PTR, _SIZE, _SIZE, _PTR], _INT),
    "bn_wnaf": ([_PTR, _UINT, _PTR], _SIZE),
    "bn_g1_wnaf_msm": (
        [_PTR, _SIZE, _SIZE, _PTR, _SIZE, _PTR, _PTR, _SIZE, _PTR, _PTR], _INT
    ),
    "bn_g1_fixed_table": ([_PTR, _UINT, _SIZE, _PTR], _INT),
    "bn_g1_fixed_mul": ([_PTR, _UINT, _SIZE, _PTR, _PTR], None),
    "bn_g1_mul": ([_PTR, _PTR, _PTR], None),
    "bn_g2_mul": ([_PTR, _PTR, _PTR], None),
    "bn_gt_compress": ([_PTR, _PTR], _INT),
    "bn_gt_decompress": ([_PTR, _PTR], _INT),
    "bn_sha256": ([_PTR, _SIZE, _PTR], None),
    "bn_hmac_sha256": ([_PTR, _SIZE, _PTR, _SIZE, _PTR], None),
    "bn_prp_sample": ([_PTR, _SIZE, ctypes.c_uint64, _UINT, _SIZE, _PTR], None),
    "bn_prf_wide": ([_PTR, _SIZE, _SIZE, _PTR], None),
}


def _pack(values: Sequence[int]) -> bytes:
    return b"".join([value.to_bytes(_FP, "little") for value in values])


def _unpack(raw: bytes) -> tuple[int, ...]:
    return tuple(
        int.from_bytes(raw[i : i + _FP], "little") for i in range(0, len(raw), _FP)
    )


def decode_montgomery(raw: bytes) -> tuple[int, ...]:
    """The field elements a Montgomery-form kernel buffer holds, decoded in
    pure Python (value * 2^-256 mod p), so a table or line buffer the kernel
    made stays readable on the reference path."""
    return tuple(v * _R_INV % FIELD_MODULUS for v in _unpack(raw))


def _recodable(scalars: Sequence[int], widths: Sequence[int]) -> None:
    """The C recoder's bounds: scalars in [0, 2^255), so at most 256 digits,
    and widths 2..8, so every digit fits an int8."""
    if any(not 0 <= s < 1 << 255 for s in scalars) or any(
        not 2 <= w <= 8 for w in widths
    ):
        raise ValueError("wNAF recoding needs 0 <= scalar < 2^255 and 2 <= width <= 8")


def _allocated(status: int, entry: str) -> None:
    """Entry points that cannot meet a zero inverse fail only in malloc."""
    if status:
        raise MemoryError(f"{entry}: out of memory")


class Kernel:
    """Typed entry points of one loaded ``bn254_kernel`` library.

    Arguments and results are ints and tuples in the formats of the
    pure-Python references; ``lines`` and ``table`` buffers are the
    kernel's own Montgomery-form bytes.
    """

    def __init__(self, lib) -> None:
        # Imported here: fields dispatches its square roots through this module.
        from .fields import _FROB1, _FROB2

        for name, (argtypes, restype) in _SIGNATURES.items():
            function = getattr(lib, name)
            function.argtypes = argtypes
            function.restype = restype
        self._lib = lib
        self._frobenius = self.to_montgomery(
            [c for gamma in (*_FROB1, *_FROB2) for c in (gamma.c0, gamma.c1)]
        )
        self._beta = self.to_montgomery([GLV_BETA])

    def to_montgomery(self, values: Sequence[int]) -> bytes:
        out = ctypes.create_string_buffer(len(values) * _FP)
        self._lib.bn_to_montgomery(_pack(values), out, len(values))
        return out.raw

    def from_montgomery(self, raw: bytes) -> tuple[int, ...]:
        out = ctypes.create_string_buffer(len(raw))
        self._lib.bn_from_montgomery(raw, out, len(raw) // _FP)
        return _unpack(out.raw)

    # -- square roots ------------------------------------------------------

    def fp_sqrt(self, a: int) -> int | None:
        """``fields._fp_sqrt_ref`` for a canonical ``a``."""
        out = ctypes.create_string_buffer(_FP)
        if self._lib.bn_fp_sqrt(a.to_bytes(_FP, "little"), out):
            return None
        return int.from_bytes(out.raw, "little")

    def fp2_sqrt(self, c0: int, c1: int) -> tuple[int, int] | None:
        """``Fp2._sqrt_ref`` for canonical ``c0 + c1 u``, as (c0, c1)."""
        out = ctypes.create_string_buffer(2 * _FP)
        if self._lib.bn_fp2_sqrt(_pack((c0, c1)), out):
            return None
        return _unpack(out.raw)

    # -- pairing -----------------------------------------------------------

    def g2_prepare(self, coordinates: Sequence[int], bits: bytes) -> bytes | None:
        """Miller-loop lines of the affine twist point ``coordinates`` (x.c0,
        x.c1, y.c0, y.c1) over the ate schedule ``bits``, in the layout
        :meth:`miller_loop` reads; ``None`` where the reference divides by
        zero."""
        steps = len(bits) + sum(bits) + 2
        out = ctypes.create_string_buffer(steps * 4 * _FP)
        if self._lib.bn_g2_prepare(
            _pack(coordinates), bits, len(bits), self._frobenius, out
        ):
            return None
        return out.raw

    def miller_loop(self, points: Sequence[int], lines: bytes, bits: bytes) -> tuple:
        """Shared Miller chain: ``points`` is x0, y0, x1, y1, ..; ``lines``
        the pairs' prepared lines back to back."""
        out = ctypes.create_string_buffer(_FP12)
        status = self._lib.bn_miller_loop(
            _pack(points), lines, len(points) // 2, bits, len(bits), out
        )
        _allocated(status, "bn_miller_loop")
        return _unpack(out.raw)

    def final_exponentiation(self, flat: Sequence[int]) -> tuple | None:
        """``None`` when ``flat`` is zero (no inverse)."""
        out = ctypes.create_string_buffer(_FP12)
        if self._lib.bn_final_exponentiation(_pack(flat), self._frobenius, BN_T, out):
            return None
        return _unpack(out.raw)

    # -- GT ----------------------------------------------------------------

    def gt_multi_pow(self, flats: Sequence[Sequence[int]], nafs: Sequence[list[int]]) -> tuple:
        top = max(len(naf) for naf in nafs)
        digits = array("b")
        for naf in nafs:
            digits.extend(naf)
            digits.extend([0] * (top - len(naf)))
        out = ctypes.create_string_buffer(_FP12)
        status = self._lib.bn_gt_multi_pow(
            _pack([v for flat in flats for v in flat]), digits.tobytes(),
            len(flats), top, out,
        )
        _allocated(status, "bn_gt_multi_pow")
        return _unpack(out.raw)

    def gt_fixed_table(self, flat: Sequence[int], teeth: int, columns: int) -> bytes:
        """The comb of ``gt._gt_fixed_table_ref``: 2^teeth - 1 Montgomery
        Fp12 entries."""
        out = ctypes.create_string_buffer(((1 << teeth) - 1) * _FP12)
        self._lib.bn_gt_fixed_table(_pack(flat), teeth, columns, out)
        return out.raw

    def gt_fixed_pow(self, table: bytes, teeth: int, columns: int, exponent: int) -> tuple:
        """``gt._gt_fixed_pow_ref`` for 0 < exponent < 2^(teeth * columns)."""
        out = ctypes.create_string_buffer(_FP12)
        self._lib.bn_gt_fixed_pow(
            table, teeth, columns, exponent.to_bytes(_FP, "little"), out
        )
        return _unpack(out.raw)

    # -- G1 ----------------------------------------------------------------

    def wnaf(self, scalar: int, width: int) -> list[int]:
        """``curve._wnaf(scalar, width)`` for 0 <= scalar < 2^255."""
        _recodable((scalar,), (width,))
        out = ctypes.create_string_buffer(256)
        count = self._lib.bn_wnaf(scalar.to_bytes(_FP, "little"), width, out)
        return list(array("b", out.raw[:count]))

    def g1_wnaf_table(self, triple: Sequence[int], size: int) -> bytes | None:
        """Affine odd multiples of a Jacobian point, as Montgomery (x, y)
        pairs; ``None`` for the identity."""
        out = ctypes.create_string_buffer(2 * size * _FP)
        if self._lib.bn_g1_wnaf_tables(_pack(triple), 1, size, out):
            return None
        return out.raw

    def g1_wnaf_msm(
        self,
        coordinates: Sequence[int],
        size: int,
        cached: bytes,
        streams: array,
        halves: Sequence[int],
    ) -> tuple[int, int, int]:
        """The interleaved chain over the tables of the Jacobian points
        ``coordinates`` (x0, y0, z0, x1, ..; built here, ``size`` entries
        each), then the ``cached`` Montgomery entries.  ``streams`` holds a
        (first entry, flags, width) row per non-negative scalar in
        ``halves``, which the kernel recodes."""
        _recodable(halves, streams[2::3])
        out = ctypes.create_string_buffer(3 * _FP)
        status = self._lib.bn_g1_wnaf_msm(
            _pack(coordinates), len(coordinates) // 3, size,
            cached, len(cached) // (2 * _FP),
            streams.tobytes(), _pack(halves), len(halves),
            self._beta, out,
        )
        _allocated(status, "bn_g1_wnaf_msm")
        return _unpack(out.raw)

    def g1_fixed_table(self, triple: Sequence[int], window: int, rows: int) -> bytes:
        out = ctypes.create_string_buffer(2 * rows * ((1 << window) - 1) * _FP)
        status = self._lib.bn_g1_fixed_table(_pack(triple), window, rows, out)
        _allocated(status, "bn_g1_fixed_table")
        return out.raw

    def g1_fixed_mul(self, table: bytes, window: int, rows: int, scalar: int) -> tuple:
        out = ctypes.create_string_buffer(3 * _FP)
        self._lib.bn_g1_fixed_mul(
            table, window, rows, scalar.to_bytes(_FP, "little"), out
        )
        return _unpack(out.raw)

    # -- generic scalar multiplication -------------------------------------

    def g1_mul(self, triple: Sequence[int], scalar: int) -> tuple[int, int, int]:
        """``G1Point.__mul__``'s chain for a finite point, 0 < scalar < r."""
        out = ctypes.create_string_buffer(3 * _FP)
        self._lib.bn_g1_mul(_pack(triple), scalar.to_bytes(_FP, "little"), out)
        return _unpack(out.raw)

    def g2_mul(self, coordinates: Sequence[int], scalar: int) -> tuple[int, ...]:
        """``G2Point.__mul__``'s chain; ``coordinates`` are x.c0, x.c1, y.c0,
        y.c1, z.c0, z.c1 of a finite point, 0 < scalar < r."""
        out = ctypes.create_string_buffer(6 * _FP)
        self._lib.bn_g2_mul(_pack(coordinates), scalar.to_bytes(_FP, "little"), out)
        return _unpack(out.raw)

    # -- the GT codec ------------------------------------------------------

    def gt_compress(self, flat: Sequence[int]) -> bytes | None:
        """``serialization._gt_to_bytes_ref``'s 192 bytes for the Fp12
        ``flat``; ``None`` where the reference raises."""
        out = ctypes.create_string_buffer(6 * _FP)
        if self._lib.bn_gt_compress(_pack(flat), out):
            return None
        return out.raw

    def gt_decompress(self, data: bytes) -> tuple[int, ...] | None:
        """``serialization._gt_from_bytes_ref`` of 192 bytes, as its
        ``_flat12``; ``None`` where the reference raises."""
        if len(data) != 6 * _FP:
            raise ValueError("a torus-compressed GT element is 192 bytes")
        out = ctypes.create_string_buffer(_FP12)
        if self._lib.bn_gt_decompress(bytes(data), out):
            return None
        return _unpack(out.raw)

    # -- hashing and challenge expansion -----------------------------------

    def sha256(self, data: bytes) -> bytes:
        out = ctypes.create_string_buffer(32)
        self._lib.bn_sha256(bytes(data), len(data), out)
        return out.raw

    def hmac_sha256(self, key: bytes, message: bytes) -> bytes:
        out = ctypes.create_string_buffer(32)
        self._lib.bn_hmac_sha256(bytes(key), len(key), bytes(message), len(message), out)
        return out.raw

    def prp_sample(self, key: bytes, domain: int, half_bits: int, count: int) -> list[int]:
        """``FeistelPrp._sample_indices_ref(count)`` for 0 <= count <=
        domain and half_bits <= 32 (every value fits 64 bits).  A start
        outside the domain could sit on a cycle that never enters it."""
        if not (
            0 <= count <= domain < 1 << 64
            and 1 <= half_bits <= 32
            and domain <= 1 << 2 * half_bits
        ):
            raise ValueError(
                "the walk needs 0 <= count <= domain < 2^64, domain <= "
                "2^(2 half_bits) and 1 <= half_bits <= 32"
            )
        out = ctypes.create_string_buffer(8 * count)
        self._lib.bn_prp_sample(bytes(key), len(key), domain, half_bits, count, out)
        return array("Q", out.raw).tolist()

    def prf_wide(self, key: bytes, count: int) -> list[bytes]:
        """The 64-byte digests ``Prf.scalar`` reduces mod r, for indices
        0..count-1."""
        out = ctypes.create_string_buffer(64 * count)
        self._lib.bn_prf_wide(bytes(key), len(key), count, out)
        raw = out.raw
        return [raw[i : i + 64] for i in range(0, len(raw), 64)]


@dataclass(frozen=True)
class Backend:
    """The BN254 inner loops this process runs, and why.

    ``name`` is ``native`` (the C kernel) or ``python`` (the references),
    with ``reason`` saying why the kernel is not in use.
    """

    name: str
    kernel: Kernel | None = None
    reason: str = ""

    def describe(self) -> str:
        return f"{self.name} ({self.reason})" if self.reason else self.name


def _probe_agrees(kernel: Kernel) -> bool:
    """Known answer: every entry point equals its pure-Python reference on
    a small input, and the GT comb at its production shape (about 75 ms of
    reference arithmetic, once per process).

    It runs under ``_backend_lock``, so nothing here may ask :func:`active`
    (the lock is not reentrant): the references are the ``_ref`` functions,
    and ``G2Prepared`` builds nothing until a Miller loop asks for it."""
    # The references' modules import this one.
    from ..prf import FeistelPrp, Prf
    from .curve import G1Point, G2Point, _wnaf, _wnaf_mul_ref
    from .fields import Fp2, _fp_sqrt_ref
    from .gt import COLUMNS, TEETH, _gt_fixed_pow_ref, _gt_fixed_table_ref, _gt_multi_pow_ref
    from .msm import (
        _fixed_mul_g1_ref,
        _fixed_table_g1_ref,
        _msm_wnaf_g1_native,
        _msm_wnaf_g1_ref,
        _wnaf_table_g1_ref,
    )
    from .pairing import (
        _ATE_SCHEDULE,
        G2Prepared,
        _final_exponentiation_ref,
        _miller_loop_native,
        _miller_loop_ref,
        _prepare_ref,
    )
    from .serialization import _gt_from_bytes_ref, _gt_to_bytes_ref

    g1 = G1Point.generator()
    g2 = G2Point.generator()
    # ``*`` would ask for the backend being chosen here: the references run.
    point = _wnaf_mul_ref(g1, 5)  # Jacobian: z != 1
    triple = (point.x, point.y, point.z)
    twist = _wnaf_mul_ref(g2, 5)
    live = [(*point.to_affine(), G2Prepared(g2))]
    # The reference loop runs first, on the reference lines.
    miller = _miller_loop_ref(live)
    target = _final_exponentiation_ref(miller)
    xq, yq = twist.to_affine()
    lines = kernel.g2_prepare((xq.c0, xq.c1, yq.c0, yq.c1), _ATE_SCHEDULE)
    exponent = 0x9E3779B97F4A7C15
    bases = [target._flat12(), miller._flat12()]
    nafs = [_wnaf(exponent, 4), _wnaf(exponent >> 17, 4)]
    # The one comb shape production builds.  The exponent sets tooth
    # c % TEETH of every column c and every tooth of the top column, so each
    # column's step multiplies and the all-teeth entry is read.
    gt_comb = _gt_fixed_table_ref(bases[0], TEETH, COLUMNS)
    native_gt_comb = kernel.gt_fixed_table(bases[0], TEETH, COLUMNS)
    comb_exponent = sum(
        1 << COLUMNS * (c % TEETH) + c for c in range(COLUMNS - 1)
    ) + sum(1 << COLUMNS * t + COLUMNS - 1 for t in range(TEETH))
    # Width 4 built here, width 6 cached in the kernel's form.
    pairs = [(point, exponent << 100), (g1, 0x9E3779B17F4A7C15 << 60)]
    native_tables = [None, kernel.g1_wnaf_table((g1.x, g1.y, g1.z), 16)]
    tables = [None, _wnaf_table_g1_ref(g1, 6)]
    comb = _fixed_table_g1_ref(triple, 3, 4)
    native_comb = kernel.g1_fixed_table(triple, 3, 4)
    # Digits +-1, +-3, +-5 and +-7 all occur, so every table entry is read.
    scalar = 0x9E3779B17F4A7C15
    g1_product = _wnaf_mul_ref(point, scalar)
    g2_product = _wnaf_mul_ref(twist, scalar)
    # A key longer than one SHA-256 block is hashed first; a domain of 677
    # walks cycles (its Feistel width is 4,096).
    long_key = bytes(range(65))
    prp = FeistelPrp(long_key[:16], 677)
    torus = _gt_to_bytes_ref(target)
    # Residues 4 and 3 + 0u (every Fp element is a square in Fp2), and the
    # non-residues -1 and xi = 9 + u.
    return (
        _miller_loop_native(kernel, live) == miller._flat12()
        and lines is not None
        and decode_montgomery(lines)
        == tuple(v for s, c in _prepare_ref(xq, yq) for v in (s.c0, s.c1, c.c0, c.c1))
        and kernel.final_exponentiation(miller._flat12()) == target._flat12()
        and kernel.gt_multi_pow(bases, nafs) == _gt_multi_pow_ref(bases, nafs)
        and kernel.from_montgomery(native_gt_comb)
        == tuple(v for entry in gt_comb for v in entry)
        and kernel.gt_fixed_pow(native_gt_comb, TEETH, COLUMNS, comb_exponent)
        == _gt_fixed_pow_ref(gt_comb, TEETH, COLUMNS, comb_exponent)
        and kernel.g1_wnaf_table(triple, 8) is not None
        and decode_montgomery(kernel.g1_wnaf_table(triple, 8))
        == tuple(v for entry in _wnaf_table_g1_ref(point, 5) for v in entry)
        and all(kernel.wnaf(scalar, w) == _wnaf(scalar, w) for w in (4, 6))
        and _msm_wnaf_g1_native(kernel, pairs, 4, native_tables)
        == _msm_wnaf_g1_ref(pairs, 4, tables)
        and kernel.from_montgomery(native_comb)
        == tuple(v for row in comb for entry in row for v in entry)
        and kernel.g1_fixed_mul(native_comb, 3, 4, 0xABC)
        == _fixed_mul_g1_ref(comb, 3, 0xABC)
        and kernel.g1_mul(triple, scalar)
        == (g1_product.x, g1_product.y, g1_product.z)
        and kernel.g2_mul(
            [c for f in (twist.x, twist.y, twist.z) for c in (f.c0, f.c1)], scalar
        )
        == tuple(c for f in (g2_product.x, g2_product.y, g2_product.z) for c in (f.c0, f.c1))
        and all(kernel.fp_sqrt(a) == _fp_sqrt_ref(a) for a in (4, FIELD_MODULUS - 1))
        and all(
            kernel.fp2_sqrt(a.c0, a.c1)
            == (None if (root := a._sqrt_ref()) is None else (root.c0, root.c1))
            for a in (Fp2(3, 0), Fp2(9, 1))
        )
        and kernel.gt_compress(target._flat12()) == torus
        and kernel.gt_decompress(torus) == _gt_from_bytes_ref(torus)._flat12()
        and kernel.gt_decompress(bytes([0xFF]) * 192) is None
        and kernel.sha256(long_key) == hashlib.sha256(long_key).digest()
        and kernel.hmac_sha256(long_key, b"probe")
        == hmac.new(long_key, b"probe", hashlib.sha256).digest()
        and kernel.prp_sample(prp.key, prp.domain, prp.half_bits, 8)
        == prp._sample_indices_ref(8)
        and [int.from_bytes(w, "big") % CURVE_ORDER for w in kernel.prf_wide(long_key, 2)]
        == Prf(long_key)._scalars_ref(2)
    )


def _select_backend() -> Backend:
    try:
        lib = native.load_library(__package__, SOURCE)
    except native.NativeUnavailable as exc:
        return Backend("python", reason=str(exc))
    kernel = Kernel(lib)
    if not _probe_agrees(kernel):
        return Backend(
            "python", reason="known-answer probe disagrees with the pure-Python reference"
        )
    return Backend("native", kernel)


#: The process's backend, chosen on first use (building the kernel is file
#: and process work, which importing must not do).  Tests patch it.
_backend: Backend | None = None
_backend_lock = threading.Lock()


def backend() -> Backend:
    """The inner loops this process runs: the C kernel when it builds and
    passes the probe, else the pure-Python references with the reason."""
    global _backend
    chosen = _backend
    if chosen is None:
        with _backend_lock:
            if _backend is None:
                _backend = _select_backend()
            chosen = _backend
    return chosen


def active() -> Kernel | None:
    """The kernel when the native backend is in use, else ``None``."""
    return backend().kernel
