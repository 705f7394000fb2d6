"""Multi-scalar multiplication (interleaved wNAF) and the G1 fixed-base comb.

Proof generation is MSM-bound: the aggregated authenticator is a k-term MSM
over the challenged chunks' sigmas and the KZG witness is an (s-1)-term MSM
over the public powers of alpha.  Every MSM, of any size, runs one
algorithm, bit-identical to the naive reference (exact mod-p arithmetic
commutes with re-association): interleaved signed wNAF (Straus), one shared
doubling chain plus per-point odd-multiple tables, batch-normalized to
affine so every add is a mixed add.  On G1 the scalars are GLV-split, so
the chain is half as long and both halves read the same table (the second
through the endomorphism phi).

``bench_ablation_msm`` and ``bench_crypto_speed`` quantify the win over
naive double-and-add.

The G1 references here run on plain (x, y, z) int triples, z == 0 for
infinity, through the one Python copy of the group law and of the wNAF
recoder in :mod:`.curve` (``_jac_double``, ``_jac_add``,
``_jac_add_affine``, ``_to_affine_batch_raw``, ``_wnaf``); the
``G1Point`` methods wrap the same functions.

The G1 wNAF chain with its wNAF recoding, its table builds and the G1
comb of :class:`FixedBaseMul` run in the native kernel (:mod:`.kernel`)
when it is in use, on the same formulas in the same order, so even the
Jacobian triples equal those of the ``_ref`` functions here; GLV
splitting and the G2 chain stay in Python.  Cached tables are held in the
kernel's Montgomery bytes there (:func:`msm_table_g1`), and the reference
chain decodes them when it meets one.
"""

from __future__ import annotations

from array import array
from functools import cache
from typing import Sequence, TypeVar

from ...obs.hotpath import profiled
from .constants import (
    CURVE_ORDER,
    FIELD_MODULUS as P,
    GLV_A1,
    GLV_A2,
    GLV_B1,
    GLV_B2,
    GLV_BETA,
)
from .curve import (
    G1Point,
    G2Point,
    _jac_add,
    _jac_add_affine,
    _jac_double,
    _to_affine_batch_raw,
    _wnaf,
)
from .kernel import Kernel, active, decode_montgomery

PointT = TypeVar("PointT", G1Point, G2Point)
#: A G1 wNAF table: affine (x, y) pairs, or the kernel's Montgomery bytes.
Table = list[tuple[int, int]] | bytes

_EMPTY_MSM_MESSAGE = (
    "multi_scalar_mul over zero points is ambiguous (the function is "
    "duck-typed over G1 and G2); pass identity=G1Point.infinity() or "
    "identity=G2Point.infinity() to state which group's identity you want"
)


def _glv_split(k: int) -> tuple[int, int]:
    """GLV decomposition: k = k1 + k2*lambda (mod r), |k1|,|k2| < 2^127.

    Babai rounding against the short lattice vectors (GLV_A1, GLV_B1),
    (GLV_A2, GLV_B2); the halved scalar length halves the G1 MSM's
    doubling chain (phi costs one Fp mult per table entry).
    """
    c1 = (2 * GLV_B2 * k + CURVE_ORDER) // (2 * CURVE_ORDER)
    c2 = (-2 * GLV_B1 * k + CURVE_ORDER) // (2 * CURVE_ORDER)
    return k - c1 * GLV_A1 - c2 * GLV_A2, -c1 * GLV_B1 - c2 * GLV_B2


@profiled("bn254.msm")
def multi_scalar_mul(
    points: Sequence[PointT],
    scalars: Sequence[int],
    identity: PointT | None = None,
    tables: Sequence[Table | None] | None = None,
) -> PointT:
    """Compute sum_i scalars[i] * points[i].

    Empty input is rejected unless the caller states which group it is
    aggregating in by passing ``identity`` (the group's infinity point),
    which is then returned.  The old behaviour of silently returning *G1*
    infinity was a footgun for G2 callers.

    ``tables`` (G1 only) reuses precomputed per-point wNAF tables:
    ``tables[i]`` is the affine odd-multiple table of ``points[i]`` (from
    :func:`wnaf_table_g1`, or :func:`msm_table_g1`'s Montgomery bytes) or
    ``None`` to build one on the fly.  The result is the exact same group
    element either way — only table reuse differs.
    """
    if len(points) != len(scalars):
        raise ValueError("points and scalars must have the same length")
    if tables is not None and len(tables) != len(points):
        raise ValueError("points, scalars and tables must have equal length")
    if not points:
        if identity is None:
            raise ValueError(_EMPTY_MSM_MESSAGE)
        return identity
    reduced = [s % CURVE_ORDER for s in scalars]
    kept = [
        (p, s, t)
        for p, s, t in zip(points, reduced, tables or [None] * len(points))
        if s and not p.is_infinity()
    ]
    if not kept:
        return type(points[0]).infinity()
    pairs = [(p, s) for p, s, _ in kept]
    is_g1 = isinstance(pairs[0][0], G1Point)
    if len(pairs) == 1 and not is_g1:
        # A lone G1 term stays on the GLV wNAF path below (on the kernel
        # ~0.11 ms against ~0.15 ms for ``point * scalar``, and its table
        # may be cached).
        return pairs[0][0] * pairs[0][1]
    # Width 5 pays for its doubled tables once enough streams share the
    # doubling chain (measured crossover ~16 points).
    width = 5 if len(pairs) >= 16 else 4
    if is_g1:
        return _msm_wnaf_g1(pairs, width=width, tables=[t for _, _, t in kept])
    return _msm_wnaf(pairs, width=width)


def _msm_wnaf(pairs: list[tuple[G2Point, int]], width: int) -> G2Point:
    """G2 interleaved signed wNAF: shared doubling chain, mixed adds."""
    table_size = 1 << (width - 2)
    flat: list[G2Point] = []
    for point, _ in pairs:
        step = point.double()
        entry = point
        flat.append(entry)
        for _ in range(table_size - 1):
            entry = entry + step
            flat.append(entry)
    affine = G2Point.to_affine_batch(flat)
    nafs = [_wnaf(scalar, width) for _, scalar in pairs]
    top = max(len(naf) for naf in nafs)
    result = G2Point.infinity()
    for bit in range(top - 1, -1, -1):
        if not result.is_infinity():
            result = result.double()
        for j, naf in enumerate(nafs):
            if bit >= len(naf):
                continue
            d = naf[bit]
            if d == 0:
                continue
            if d > 0:
                ax, ay = affine[j * table_size + (d - 1) // 2]
                result = result.add_affine(ax, ay)
            else:
                ax, ay = affine[j * table_size + (-d - 1) // 2]
                result = result.add_affine(ax, -ay)
    return result


def wnaf_table_g1(point: G1Point, width: int) -> list[tuple[int, int]]:
    """Affine odd multiples P, 3P, .., (2^(width-1)-1)P of a G1 point.

    The cacheable half of the wNAF MSM: fixed points (block digests,
    authenticators, the generator) reuse these across epochs via
    :class:`~repro.crypto.bn254.precompute.PrecomputeCache`, which keeps
    them in :func:`msm_table_g1`'s form.
    """
    return _table_pairs(msm_table_g1(point, width))


def msm_table_g1(point: G1Point, width: int) -> Table:
    """:func:`wnaf_table_g1` in the form the MSM reads without converting:
    the kernel's Montgomery bytes when it is in use, else affine pairs."""
    kernel = active()
    if kernel is not None:
        table = kernel.g1_wnaf_table((point.x, point.y, point.z), 1 << (width - 2))
        if table is not None:
            return table
    # Also the kernel's answer for the identity: the reference raises.
    return _wnaf_table_g1_ref(point, width)


def _table_pairs(table: Table) -> list[tuple[int, int]]:
    """A wNAF table as affine int pairs, whichever form it is held in."""
    if isinstance(table, bytes):
        flat = decode_montgomery(table)
        return list(zip(flat[0::2], flat[1::2]))
    return table


def _wnaf_table_g1_ref(point: G1Point, width: int) -> list[tuple[int, int]]:
    entry = (point.x, point.y, point.z)
    step = _jac_double(*entry)
    flat = [entry]
    for _ in range((1 << (width - 2)) - 1):
        flat.append(_jac_add(*flat[-1], *step))
    return _to_affine_batch_raw(flat)


def _msm_wnaf_g1(
    pairs: list[tuple[G1Point, int]],
    width: int,
    tables: list[Table | None],
) -> G1Point:
    """G1 interleaved wNAF: GLV-split scalars on a half-length shared
    doubling chain, raw-int Jacobian kernels, batch-normalized tables.

    ``tables`` supplies precomputed odd-multiple tables for a subset of
    the points (entry ``None`` = build here).  Cached tables may be wider
    than ``width``; each digit stream uses its own table's width.
    """
    kernel = active()
    if kernel is not None:
        x, y, z = _msm_wnaf_g1_native(kernel, pairs, width, tables)
    else:
        x, y, z = _msm_wnaf_g1_ref(pairs, width, tables)
    if z == 0:
        return G1Point.infinity()
    return G1Point._raw(x, y, z)


def _msm_wnaf_g1_native(
    kernel: Kernel,
    pairs: list[tuple[G1Point, int]],
    width: int,
    tables: list[Table | None],
) -> tuple[int, int, int]:
    """Python GLV-splits the scalars; the kernel recodes the halves, builds
    the missing tables and runs the chain.  Table entries are numbered
    built tables first, then the cached ones, in pair order."""
    table_size = 1 << (width - 2)
    built: list[int] = []  # x, y, z of each point whose table is built
    cached: list[bytes] = []
    next_built, next_cached = 0, tables.count(None) * table_size
    streams = array("q")
    halves: list[int] = []
    for (point, scalar), table in zip(pairs, tables):
        if table is None:
            first, w = next_built, width
            next_built += table_size
            built.extend((point.x, point.y, point.z))
        else:
            if not isinstance(table, bytes):
                table = kernel.to_montgomery([v for entry in table for v in entry])
            size = len(table) // 64  # one (x, y) entry is 64 bytes
            first, w = next_cached, size.bit_length() + 1
            next_cached += size
            cached.append(table)
        # Stream flags: 1 = read the table through phi, 2 = negated.
        for k, phi in zip(_glv_split(scalar), (0, 1)):
            if k:
                streams.extend((first, phi | (2 if k < 0 else 0), w))
                halves.append(abs(k))
    if not halves:
        return 0, 1, 0
    return kernel.g1_wnaf_msm(built, table_size, b"".join(cached), streams, halves)


def _msm_wnaf_g1_ref(
    pairs: list[tuple[G1Point, int]],
    width: int,
    tables: list[Table | None],
) -> tuple[int, int, int]:
    table_size = 1 << (width - 2)
    flat: list[tuple[int, int, int]] = []
    build_indices: list[int] = []
    for j, (point, _) in enumerate(pairs):
        if tables[j] is not None:
            continue
        build_indices.append(j)
        entry = (point.x, point.y, point.z)
        step = _jac_double(*entry)
        flat.append(entry)
        for _ in range(table_size - 1):
            entry = _jac_add(*entry, *step)
            flat.append(entry)
    affine = _to_affine_batch_raw(flat) if flat else []
    built: dict[int, list[tuple[int, int]]] = {
        j: affine[k * table_size : (k + 1) * table_size]
        for k, j in enumerate(build_indices)
    }
    # One digit stream per GLV half-scalar; phi maps the shared table by
    # one Fp mult per entry (x -> beta*x), so k2 rides the same chain.
    streams: list[tuple[list[tuple[int, int]], bool, list[int]]] = []
    for j, (_, scalar) in enumerate(pairs):
        base_tab = built.get(j) or _table_pairs(tables[j])
        w = len(base_tab).bit_length() + 1  # 2^(w-2) entries -> width w
        k1, k2 = _glv_split(scalar)
        if k1:
            streams.append((base_tab, k1 < 0, _wnaf(abs(k1), w)))
        if k2:
            phi_tab = [(GLV_BETA * x % P, y) for x, y in base_tab]
            streams.append((phi_tab, k2 < 0, _wnaf(abs(k2), w)))
    if not streams:
        return 0, 1, 0
    top = max(len(naf) for _, _, naf in streams)
    rx = ry = rz = 0
    for bit in range(top - 1, -1, -1):
        if rz:
            rx, ry, rz = _jac_double(rx, ry, rz)
        for tab, neg, naf in streams:
            if bit >= len(naf):
                continue
            d = naf[bit]
            if d == 0:
                continue
            ax, ay = tab[(d - 1) // 2 if d > 0 else (-d - 1) // 2]
            if (d < 0) != neg:
                ay = P - ay
            rx, ry, rz = _jac_add_affine(rx, ry, rz, ax, ay)
    return rx, ry, rz


class FixedBaseMul:
    """Fixed-base scalar multiplication over G1 with a precomputed comb.

    Authenticator generation performs one ``g1 * M_i(alpha)`` per chunk with
    the *same* base; amortising the precomputation brings the per-chunk cost
    from ~256 doublings down to ~64 mixed additions.

    The table is built with Jacobian adds, then normalized to affine in one
    Montgomery simultaneous inversion, so every lookup during :meth:`mul`
    feeds a cheap mixed add.
    """

    def __init__(self, base: G1Point, window: int = 4):
        if window < 1 or window > 8:
            raise ValueError("window must be between 1 and 8")
        self.base = base
        self.window = window
        self._kernel: Kernel | None = None
        if base.is_infinity():
            self._table: list[list[tuple[int, int]]] | bytes = []
            return
        self._rows = (CURVE_ORDER.bit_length() + window - 1) // window
        # One representation, fixed here: the kernel's Montgomery buffer
        # when the kernel is in use, else rows of affine int pairs.
        self._kernel = active()
        raw_base = (base.x, base.y, base.z)
        if self._kernel is not None:
            self._table = self._kernel.g1_fixed_table(raw_base, window, self._rows)
        else:
            self._table = _fixed_table_g1_ref(raw_base, window, self._rows)

    @profiled("bn254.msm")
    def mul(self, scalar: int) -> G1Point:
        scalar %= CURVE_ORDER
        if not self._table:
            return G1Point.infinity()
        # The per-chunk authenticator path runs this thousands of times
        # per epoch.
        if self._kernel is not None:
            x, y, z = self._kernel.g1_fixed_mul(
                self._table, self.window, self._rows, scalar
            )
        else:
            x, y, z = _fixed_mul_g1_ref(self._table, self.window, scalar)
        if z == 0:
            return G1Point.infinity()
        return G1Point._raw(x, y, z)


def _fixed_table_g1_ref(
    raw_base: tuple[int, int, int], window: int, rows: int
) -> list[list[tuple[int, int]]]:
    """Jacobian comb rows over raw ints, normalized in one inversion."""
    size = (1 << window) - 1
    raw_flat: list[tuple[int, int, int]] = []
    for _ in range(rows):
        raw_entry = raw_base
        raw_flat.append(raw_entry)
        for _ in range(size - 1):
            raw_entry = _jac_add(*raw_entry, *raw_base)
            raw_flat.append(raw_entry)
        for _ in range(window):
            raw_base = _jac_double(*raw_base)
    affine = _to_affine_batch_raw(raw_flat)
    return [affine[r * size : (r + 1) * size] for r in range(rows)]


def _fixed_mul_g1_ref(
    table: list[list[tuple[int, int]]], window: int, scalar: int
) -> tuple[int, int, int]:
    """One mixed add per nonzero window digit, low digit first."""
    mask = (1 << window) - 1
    rx = ry = rz = 0
    row_index = 0
    while scalar:
        digit = scalar & mask
        if digit:
            ax, ay = table[row_index][digit - 1]
            rx, ry, rz = _jac_add_affine(rx, ry, rz, ax, ay)
        scalar >>= window
        row_index += 1
    return rx, ry, rz


@cache
def generator_table() -> FixedBaseMul:
    """The one comb table over ``g1``, built on first use: authenticator
    generation and Schnorr multiply it."""
    return FixedBaseMul(G1Point.generator())


def multi_scalar_mul_naive(
    points: Sequence[PointT],
    scalars: Sequence[int],
    identity: PointT | None = None,
) -> PointT:
    """Reference implementation: independent scalar mults, summed.

    Kept for correctness testing and the MSM ablation benchmark.  Follows
    the same empty-input contract as :func:`multi_scalar_mul`.
    """
    if len(points) != len(scalars):
        raise ValueError("points and scalars must have the same length")
    if not points:
        if identity is None:
            raise ValueError(_EMPTY_MSM_MESSAGE)
        return identity
    result = type(points[0]).infinity()
    for point, scalar in zip(points, scalars):
        result = result + point * scalar
    return result
