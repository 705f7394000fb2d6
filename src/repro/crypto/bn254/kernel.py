"""The native BN254 kernel behind the crypto package's inner loops.

``bn254_kernel.c`` is a 4x64-bit Montgomery ``Fp`` with the Fp2 / Fp6 /
Fp12 tower of :mod:`.fields`, and whole loops on top of it: the shared
Miller loop over prepared lines, the final exponentiation, the three GT
exponentiation chains, the G1 wNAF, fixed-base and table-building chains,
and the generic G1 and G2 scalar multiplications of ``G1Point.__mul__`` /
``G2Point.__mul__``.  :func:`repro.native.load_library` builds it once per
host; :func:`backend` opens it on first use and keeps it only when a
known-answer probe finds every entry point equal to its pure-Python
reference, else the references run and the reason is recorded.  Nothing
else selects the backend.

The dispatching functions in :mod:`.pairing`, :mod:`.gt`, :mod:`.msm` and
:mod:`.curve` ask :func:`active` and run their pure-Python reference when
it returns ``None``.  Results are bit-identical either way, Jacobian
triples included.  Field elements cross the boundary as 32-byte
little-endian canonical integers; tables the kernel owns (prepared lines,
fixed-base windows) stay in its Montgomery form as opaque ``bytes``.
``ctypes`` releases the GIL for every call and the kernel keeps no mutable
static state, so lane threads run it concurrently.
"""

from __future__ import annotations

import ctypes
import threading
from array import array
from dataclasses import dataclass
from typing import Sequence

from ... import native
from .constants import BN_T, GLV_BETA
from .fields import _FROB1, _FROB2

#: The kernel source shipped beside this module (``setup.py`` package data).
SOURCE = "bn254_kernel.c"

_FP = 32
_FP12 = 12 * _FP

_PTR = ctypes.c_void_p
_SIZE = ctypes.c_size_t
_UINT = ctypes.c_uint
_INT = ctypes.c_int
_SIGNATURES = {
    "bn_to_montgomery": ([_PTR, _PTR, _SIZE], None),
    "bn_from_montgomery": ([_PTR, _PTR, _SIZE], None),
    "bn_miller_loop": ([_PTR, _PTR, _SIZE, _PTR, _SIZE, _PTR], _INT),
    "bn_final_exponentiation": ([_PTR, _PTR, ctypes.c_uint64, _PTR], _INT),
    "bn_gt_pow": ([_PTR, _PTR, _PTR], None),
    "bn_gt_multi_pow": ([_PTR, _PTR, _SIZE, _SIZE, _PTR], _INT),
    "bn_gt_fixed_table": ([_PTR, _UINT, _SIZE, _PTR], None),
    "bn_gt_fixed_pow": ([_PTR, _UINT, _SIZE, _PTR, _PTR], None),
    "bn_g1_wnaf_tables": ([_PTR, _SIZE, _SIZE, _PTR], _INT),
    "bn_g1_wnaf_msm": (
        [_PTR, _SIZE, _SIZE, _PTR, _SIZE, _PTR, _SIZE, _PTR, _PTR, _PTR], _INT
    ),
    "bn_g1_fixed_table": ([_PTR, _UINT, _SIZE, _PTR], _INT),
    "bn_g1_fixed_mul": ([_PTR, _UINT, _SIZE, _PTR, _PTR], None),
    "bn_g1_mul": ([_PTR, _PTR, _PTR], None),
    "bn_g2_mul": ([_PTR, _PTR, _PTR], None),
}


def _pack(values: Sequence[int]) -> bytes:
    return b"".join([value.to_bytes(_FP, "little") for value in values])


def _unpack(raw: bytes) -> tuple[int, ...]:
    return tuple(
        int.from_bytes(raw[i : i + _FP], "little") for i in range(0, len(raw), _FP)
    )


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

    # -- pairing -----------------------------------------------------------

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

    def gt_pow(self, flat: Sequence[int], exponent: int) -> tuple:
        out = ctypes.create_string_buffer(_FP12)
        self._lib.bn_gt_pow(_pack(flat), exponent.to_bytes(_FP, "little"), out)
        return _unpack(out.raw)

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

    def gt_fixed_table(self, flat: Sequence[int], window: int, rows: int) -> bytes:
        out = ctypes.create_string_buffer(rows * ((1 << window) - 1) * _FP12)
        self._lib.bn_gt_fixed_table(_pack(flat), window, rows, out)
        return out.raw

    def gt_fixed_pow(self, table: bytes, window: int, rows: int, exponent: int) -> tuple:
        out = ctypes.create_string_buffer(_FP12)
        self._lib.bn_gt_fixed_pow(
            table, window, rows, exponent.to_bytes(_FP, "little"), out
        )
        return _unpack(out.raw)

    # -- G1 ----------------------------------------------------------------

    def g1_wnaf_table(self, triple: Sequence[int], size: int) -> list[tuple[int, int]] | None:
        """Affine odd multiples of a Jacobian point; ``None`` for the identity."""
        out = ctypes.create_string_buffer(2 * size * _FP)
        if self._lib.bn_g1_wnaf_tables(_pack(triple), 1, size, out):
            return None
        flat = _unpack(out.raw)
        return list(zip(flat[0::2], flat[1::2]))

    def g1_wnaf_msm(
        self,
        triples: Sequence[Sequence[int]],
        size: int,
        cached: Sequence[int],
        streams: array,
        digits: array,
    ) -> tuple[int, int, int]:
        """The interleaved chain over the tables of ``triples`` (built here,
        ``size`` entries each) then the ``cached`` affine entries."""
        out = ctypes.create_string_buffer(3 * _FP)
        status = self._lib.bn_g1_wnaf_msm(
            _pack([v for triple in triples for v in triple]), len(triples), size,
            _pack(cached), len(cached) // 2,
            streams.tobytes(), len(streams) // 4,
            digits.tobytes(), self._beta, out,
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
    a small input (about 50 ms of reference arithmetic, once per process)."""
    # The references' modules import this one.
    from .curve import G1Point, G2Point, _wnaf_mul_ref
    from .gt import (
        _gt_fixed_pow_ref,
        _gt_fixed_table_ref,
        _gt_multi_pow_ref,
        _gt_pow_ref,
        _naf4,
    )
    from .msm import (
        _fixed_mul_g1_ref,
        _fixed_table_g1_ref,
        _msm_wnaf_g1_native,
        _msm_wnaf_g1_ref,
        _wnaf_table_g1_ref,
    )
    from .pairing import (
        G2Prepared,
        _final_exponentiation_ref,
        _miller_loop_native,
        _miller_loop_ref,
    )

    g1 = G1Point.generator()
    g2 = G2Point.generator()
    # ``*`` would ask for the backend being chosen here: the references run.
    point = _wnaf_mul_ref(g1, 5)  # Jacobian: z != 1
    triple = (point.x, point.y, point.z)
    twist = _wnaf_mul_ref(g2, 5)
    live = [(*point.to_affine(), G2Prepared(g2))]
    miller = _miller_loop_ref(live)
    target = _final_exponentiation_ref(miller)
    exponent = 0x9E3779B97F4A7C15
    bases = [target._flat12(), miller._flat12()]
    nafs = [_naf4(exponent), _naf4(exponent >> 17)]
    windows = _gt_fixed_table_ref(bases[0], 3, 2)
    native_windows = kernel.gt_fixed_table(bases[0], 3, 2)
    pairs = [(point, exponent << 100), (g1, 3)]
    tables = [None, _wnaf_table_g1_ref(g1, 5)]
    comb = _fixed_table_g1_ref(triple, 3, 4)
    native_comb = kernel.g1_fixed_table(triple, 3, 4)
    # Digits +-1, +-3, +-5 and +-7 all occur, so every table entry is read.
    scalar = 0x9E3779B17F4A7C15
    g1_product = _wnaf_mul_ref(point, scalar)
    g2_product = _wnaf_mul_ref(twist, scalar)
    return (
        _miller_loop_native(kernel, live) == miller._flat12()
        and kernel.final_exponentiation(miller._flat12()) == target._flat12()
        and kernel.gt_pow(bases[1], exponent) == _gt_pow_ref(bases[1], exponent)
        and kernel.gt_multi_pow(bases, nafs) == _gt_multi_pow_ref(bases, nafs)
        and kernel.from_montgomery(native_windows)
        == tuple(v for row in windows for entry in row for v in entry)
        and kernel.gt_fixed_pow(native_windows, 3, 2, 0b101110)
        == _gt_fixed_pow_ref(windows, 3, 0b101110)
        and kernel.g1_wnaf_table(triple, 8) == _wnaf_table_g1_ref(point, 5)
        and _msm_wnaf_g1_native(kernel, pairs, 4, tables)
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
