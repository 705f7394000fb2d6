"""Fixed-base precomputation cache shared across audits.

Every audit round re-multiplies the *same* bases: the public powers
``g1^{alpha^j}`` (the (s-1)-term KZG-witness MSM), the per-contract GT base
``e(g1, epsilon)`` (the Sigma-protocol masking), the global generator
``g1`` and the per-file block digests ``H(name || i)``.  This module builds
their tables once and shares them across every audit that touches the same
base — the amortization trick Audita/Cumulus-style batch auditing systems
rely on.

A process has one :class:`PrecomputeCache`, :data:`PROCESS_CACHE` below: a
memo of pure functions of group elements that every prover and verifier in
``repro.core`` reads directly, so a hit or a miss can change no byte of any
proof or verdict.  The parallel engine's prover threads and concurrent
lane threads all share it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .curve import G1Point, G2Point
from .fields import Fp12
from .gt import GTFixedBase
from .msm import Table, msm_table_g1, multi_scalar_mul
from .pairing import G2Prepared


@dataclass
class CacheStats:
    """Hit/miss counters (the precompute ablation reads these).  Advisory:
    unsynchronised, so threads sharing the process cache may lose a count."""

    hits: int = 0
    misses: int = 0


@dataclass
class PrecomputeCache:
    """Registry of fixed-base tables and digest points.

    Keys are the group elements themselves (all BN254 element classes are
    hashable by affine coordinates), so two public keys sharing the same
    ``e(g1, epsilon)`` — e.g. many files outsourced under one owner key —
    transparently share one table.
    """

    #: Width of cached per-point wNAF tables (authenticators, digests):
    #: with the build amortized away, wider digits keep winning until the
    #: phi-table map and NAF sparsity flatten out around width 6.
    wnaf_width: int = 6
    stats: CacheStats = field(default_factory=CacheStats)
    _gt: dict[Fp12, GTFixedBase] = field(default_factory=dict)
    _digests: dict[tuple[int, int], G1Point] = field(default_factory=dict)
    _prepared: dict[G2Point, G2Prepared] = field(default_factory=dict)
    _wnaf: dict[G1Point, Table] = field(default_factory=dict)

    # -- GT fixed-base contexts (Sigma-protocol masking) --------------------

    def gt_context(self, base: Fp12) -> GTFixedBase:
        """Comb over a pairing output, shared across proofs."""
        table = self._gt.get(base)
        if table is None:
            self.stats.misses += 1
            table = self._gt[base] = GTFixedBase(base)
        else:
            self.stats.hits += 1
        return table

    # -- prepared Miller-loop lines (verifier G2 arguments) ------------------

    def prepared_g2(self, point: G2Point) -> G2Prepared:
        """P-independent Miller-loop line coefficients, shared across every
        pairing against the same G2 point (owner keys are fixed per
        contract, so the warm verify path pays zero Fp2 inversions)."""
        prepared = self._prepared.get(point)
        if prepared is None:
            self.stats.misses += 1
            prepared = self._prepared[point] = G2Prepared(point)
        else:
            self.stats.hits += 1
        return prepared

    # -- cached wNAF tables (fixed points in variable-base MSMs) -------------

    def g1_wnaf_table(self, point: G1Point) -> Table:
        """Odd-multiple table for a fixed G1 point, shared across epochs, in
        the form the MSM reads without converting (the kernel's Montgomery
        bytes when it is in use, as ``GTFixedBase`` keeps its comb)."""
        table = self._wnaf.get(point)
        if table is None:
            self.stats.misses += 1
            table = self._wnaf[point] = msm_table_g1(point, self.wnaf_width)
        else:
            self.stats.hits += 1
        return table

    def wnaf_msm(
        self,
        points: Sequence[G1Point],
        scalars: Sequence[int],
        cacheable: Sequence[bool] | None = None,
        identity: G1Point | None = None,
    ) -> G1Point:
        """G1 MSM with cached tables for the fixed points.

        ``cacheable`` marks which points recur across epochs (digests,
        authenticators, the generator); unmarked points (fresh proof
        elements) get throwaway tables so the cache cannot grow without
        bound.  The result is the exact group element
        :func:`~repro.crypto.bn254.msm.multi_scalar_mul` returns.
        """
        if cacheable is None:
            tables = [
                None if p.is_infinity() else self.g1_wnaf_table(p)
                for p in points
            ]
        else:
            tables = [
                self.g1_wnaf_table(p) if use and not p.is_infinity() else None
                for p, use in zip(points, cacheable)
            ]
        return multi_scalar_mul(points, scalars, identity, tables)

    # -- per-file digest points --------------------------------------------

    def block_digest(self, name: int, index: int) -> G1Point:
        """Memoized H(name || i) — fixed per file."""
        key = (name, index)
        point = self._digests.get(key)
        if point is None:
            self.stats.misses += 1
            from ...core.authenticator import block_digest_point

            point = self._digests[key] = block_digest_point(name, index)
        else:
            self.stats.hits += 1
        return point

    # -- eviction (a retired audit instance) --------------------------------

    def forget(
        self,
        name: int,
        g1_points: Sequence[G1Point] = (),
        g2_points: Sequence[G2Point] = (),
        gt_bases: Sequence[Fp12] = (),
    ) -> None:
        """Drop file ``name``'s digest points and their wNAF tables, plus the
        tables of the listed points.  The caller lists only what no other
        user of this cache can look up.
        Eviction is never a correctness event — a forgotten entry is rebuilt
        on next use — and walks a snapshot: other threads may be inserting."""
        for key in list(self._digests):
            if key[0] == name:
                self._wnaf.pop(self._digests.pop(key, None), None)
        for point in g1_points:
            self._wnaf.pop(point, None)
        for point in g2_points:
            self._prepared.pop(point, None)
        for base in gt_bases:
            self._gt.pop(base, None)

    def clear(self) -> None:
        """Back to a cold cache with zeroed counters (test isolation)."""
        self.stats = CacheStats()
        for entries in (self._gt, self._digests, self._prepared, self._wnaf):
            entries.clear()


#: The process's one cache.
PROCESS_CACHE = PrecomputeCache()
