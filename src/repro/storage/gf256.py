"""GF(2^8) arithmetic with numpy-vectorised helpers.

The erasure-coding layer works over the field GF(256) with the standard
Reed-Solomon reduction polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D).
Log/antilog tables give O(1) multiplication; the numpy paths operate on
whole shards at once, which is what makes megabyte-scale erasure coding
practical in pure Python.

Bulk shard arithmetic goes through a precomputed 256x256 product table:
``scalar * vector`` is a single ``take`` gather along the scalar's table
row — no log/antilog index arithmetic, no zero-masking pass, no per-element
Python.  The log-table scalar helpers stay as the reference the
differential tests check the table path against.

:func:`gf_matmul`, the erasure codec's one bulk operation, runs in
``gf256_kernel.c`` when :mod:`repro.native` can build it and a known-answer
probe of every loop this CPU can run agrees with :func:`gf_matmul_ref`:
the best of a row-blocked split-nibble loop for AVX2 or SSSE3 (four output
rows per pass over the inputs) and a scalar table loop.  Otherwise it runs
the numpy table-gather loop.  All produce the same bytes; :func:`backend`
names the one that runs and :func:`selectable` lists them all.
"""

from __future__ import annotations

import ctypes
import random
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import native

REDUCING_POLY = 0x11D
GENERATOR = 2

# Build exp/log tables once at import.
_EXP = np.zeros(512, dtype=np.uint8)
_LOG = np.zeros(256, dtype=np.int32)
_value = 1
for _power in range(255):
    _EXP[_power] = _value
    _LOG[_value] = _power
    _value <<= 1
    if _value & 0x100:
        _value ^= REDUCING_POLY
_EXP[255:510] = _EXP[:255]  # wraparound so exp lookups never need mod

# Full 256x256 product table (64 KiB): row a is the map x -> a*x.  Built
# once from the log/antilog tables; rows/columns for 0 stay all-zero.
_MUL_TABLE = np.zeros((256, 256), dtype=np.uint8)
_nonzero = np.arange(1, 256)
_MUL_TABLE[1:, 1:] = _EXP[_LOG[_nonzero][:, None] + _LOG[_nonzero][None, :]]


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return int(_EXP[int(_LOG[a]) + int(_LOG[b])])


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(256)")
    return int(_EXP[255 - int(_LOG[a])])


def gf_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return int(_EXP[(int(_LOG[a]) - int(_LOG[b])) % 255])


def gf_pow(a: int, exponent: int) -> int:
    if a == 0:
        return 0 if exponent else 1
    return int(_EXP[(int(_LOG[a]) * exponent) % 255])


def gf_mul_vector(scalar: int, vector: np.ndarray) -> np.ndarray:
    """scalar * vector over GF(256): one gather along the product-table row."""
    return _MUL_TABLE[scalar].take(vector)


def gf_mul_vector_ref(scalar: int, vector: np.ndarray) -> np.ndarray:
    """Log-table reference for :func:`gf_mul_vector` (differential tests)."""
    out = np.zeros_like(vector)
    for index, value in enumerate(vector):
        out[index] = gf_mul(scalar, int(value))
    return out


@dataclass(frozen=True)
class Backend:
    """The row loop :func:`gf_matmul` runs, and why.

    ``name`` is ``native-avx2``, ``native-ssse3`` or ``native-scalar`` (one
    of the C kernel's loops, by instruction set) or ``numpy`` (the
    table-gather loop), with ``reason`` saying why the kernel is not in use.
    """

    name: str
    matmul: Callable[[np.ndarray, np.ndarray, np.ndarray], None]
    reason: str = ""

    def describe(self) -> str:
        return f"{self.name} ({self.reason})" if self.reason else self.name


def _matmul_numpy(coefficients: np.ndarray, shards: np.ndarray, out: np.ndarray) -> None:
    for accumulator, row in zip(out, coefficients.tolist()):
        for coefficient, shard in zip(row, shards):
            if coefficient == 1:
                accumulator ^= shard
            elif coefficient:
                accumulator ^= _MUL_TABLE[coefficient].take(shard)


#: The kernel's loops by the ``isa`` value ``gf_matmul`` takes, as
#: ``gf_kernel_isa`` numbers them (``GF_SCALAR``, ``GF_SSSE3``, ``GF_AVX2``).
_ISA_NAMES = ("native-scalar", "native-ssse3", "native-avx2")


def _native_loops(lib) -> list[Backend]:
    """The kernel's loops this CPU can run, best first."""
    lib.gf_kernel_isa.argtypes = []
    lib.gf_kernel_isa.restype = ctypes.c_int
    kernel = lib.gf_matmul
    kernel.argtypes = [
        ctypes.c_int, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t,
        ctypes.c_size_t, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p,
    ]
    kernel.restype = None
    table = _MUL_TABLE.ctypes.data  # module-lifetime array: the pointer stays valid

    def loop(isa: int) -> Backend:
        def matmul(coefficients: np.ndarray, shards: np.ndarray, out: np.ndarray) -> None:
            rows, k = coefficients.shape
            kernel(isa, table, coefficients.ctypes.data, rows, k,
                   shards.ctypes.data, shards.shape[1], out.ctypes.data)

        return Backend(_ISA_NAMES[isa], matmul)

    return [loop(isa) for isa in range(lib.gf_kernel_isa(), -1, -1)]


def _probe_agrees(matmul) -> bool:
    """Known answer: a loop equals :func:`gf_matmul_ref` on shapes that cover
    the row blocks' edges (1, 3, 4 and 5 rows), the 16- and 32-byte bodies
    and their scalar tails, k = 1, and coefficients 0 and 1."""
    # stdlib random: numpy.random would cost this process ~2 MB of RSS.
    rng = random.Random(0x11D)
    shapes = ((5, 4, 37), (4, 3, 32), (3, 2, 33), (1, 1, 31), (4, 1, 16), (1, 2, 5))
    for rows, k, length in shapes:
        coefficients = bytearray(rng.randbytes(rows * k))
        if rows * k > 2:
            coefficients[:2] = b"\x00\x01"
        matrix = np.frombuffer(bytes(coefficients), dtype=np.uint8).reshape(rows, k)
        shards = np.frombuffer(rng.randbytes(k * length), dtype=np.uint8).reshape(k, length)
        out = np.zeros((rows, length), dtype=np.uint8)
        matmul(matrix, shards, out)
        if not np.array_equal(out, gf_matmul_ref(matrix.tolist(), shards)):
            return False
    return True


def selectable() -> list[Backend]:
    """Every loop this host may run, best first: the kernel's loops for this
    CPU when the kernel builds and each passes the probe, then numpy.  When
    the kernel is out, the one numpy entry carries the reason.  The
    differential tests and the crypto-speed bench compare them all."""
    try:
        lib = native.load_library(__package__, "gf256_kernel.c")
    except native.NativeUnavailable as exc:
        return [Backend("numpy", _matmul_numpy, str(exc))]
    loops = _native_loops(lib)
    for loop in loops:
        if not _probe_agrees(loop.matmul):
            return [Backend(
                "numpy", _matmul_numpy,
                f"known-answer probe: {loop.name} disagrees with gf_matmul_ref",
            )]
    return [*loops, Backend("numpy", _matmul_numpy)]


def _select_backend() -> Backend:
    return selectable()[0]


#: The process's backend, chosen on first use (building the kernel is file
#: and process work, which importing must not do).  Tests patch it.
_backend: Backend | None = None
_backend_lock = threading.Lock()


def backend() -> Backend:
    """The row loop this process runs: the best kernel loop for this CPU when
    the kernel builds and every loop passes the probe, else the numpy
    fallback with the reason."""
    global _backend
    with _backend_lock:
        if _backend is None:
            _backend = _select_backend()
        return _backend


def gf_matmul(matrix: list[list[int]] | np.ndarray, shards: np.ndarray) -> np.ndarray:
    """Matrix (rows x k) times shard stack (k x length) over GF(256).

    ``matrix`` is a nested list or a uint8 array.  Reported under the
    ``gf256.encode`` / ``gf256.decode`` HOTPATH legs by the erasure codec
    that drives it.
    """
    shards = np.ascontiguousarray(shards, dtype=np.uint8)
    k, length = shards.shape
    coefficients = np.ascontiguousarray(
        np.asarray(matrix, dtype=np.uint8).reshape(len(matrix), k)
    )
    out = np.zeros((len(coefficients), length), dtype=np.uint8)
    backend().matmul(coefficients, shards, out)
    return out


def gf_matmul_ref(matrix: list[list[int]], shards: np.ndarray) -> np.ndarray:
    """Per-element reference for :func:`gf_matmul` (differential tests)."""
    rows = len(matrix)
    _, length = shards.shape
    out = np.zeros((rows, length), dtype=np.uint8)
    for row_index, row in enumerate(matrix):
        for position in range(length):
            value = 0
            for coefficient, shard in zip(row, shards):
                value ^= gf_mul(coefficient, int(shard[position]))
            out[row_index][position] = value
    return out


def gf_matrix_invert(matrix: list[list[int]] | np.ndarray) -> np.ndarray:
    """Gauss-Jordan inversion over GF(256); raises on singular input.

    Each pivot step is whole-matrix row operations through ``_MUL_TABLE``:
    scale the pivot row, then clear its column from every other row with
    one (n x 2n) gather.  An inverse is unique, so this equals any other
    correct elimination.  Returns an (n x n) uint8 array.
    """
    square = np.asarray(matrix, dtype=np.uint8)
    n = len(square)
    if square.shape != (n, n):
        raise ValueError(f"need a square matrix, got shape {square.shape}")
    augmented = np.concatenate([square, np.eye(n, dtype=np.uint8)], axis=1)
    for col in range(n):
        candidates = np.flatnonzero(augmented[col:, col])
        if not candidates.size:
            raise ValueError("singular matrix over GF(256)")
        pivot = col + int(candidates[0])
        if pivot != col:
            augmented[[col, pivot]] = augmented[[pivot, col]]
        augmented[col] = _MUL_TABLE[gf_inv(int(augmented[col, col]))].take(augmented[col])
        factors = augmented[:, col].copy()
        factors[col] = 0
        augmented ^= _MUL_TABLE[np.ix_(factors, augmented[col])]
    return augmented[:, n:].copy()
