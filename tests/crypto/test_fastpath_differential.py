"""Randomized differential suite for the raw-speed crypto paths.

Every optimisation in the BN254 hot path (the interleaved wNAF MSM, cached
wNAF tables, prepared Miller-loop lines, memoized affine coordinates) must
return the *exact* group element the slow reference produces — proofs are
hashed into the chain, so "close" is not a thing.  These tests drive the
fast and reference paths over the same randomized inputs, with the edge
scalars {0, 1, order-1, duplicate points, all-identical points} the issue
calls out, over both G1 and G2.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.bn254 import (
    CURVE_ORDER,
    G1Point,
    G2Point,
    PrecomputeCache,
    multi_scalar_mul,
    multi_scalar_mul_naive,
    pairing,
    pairing_check,
    wnaf_table_g1,
)
from repro.crypto.bn254.pairing import G2Prepared, prepare_g2

G1 = G1Point.generator()
G2 = G2Point.generator()

EDGE_SCALARS = (0, 1, 2, CURVE_ORDER - 1, CURVE_ORDER, CURVE_ORDER + 5)


def _random_scalars(rng: random.Random, count: int) -> list[int]:
    """Mix of edge scalars and full-width random ones."""
    pool = list(EDGE_SCALARS) + [rng.randrange(CURVE_ORDER) for _ in range(4)]
    return [rng.choice(pool) for _ in range(count)]


class TestMSMDifferential:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("count", [1, 3, 17, 64])
    def test_g1_fast_vs_naive(self, seed, count):
        rng = random.Random(1000 * seed + count)
        points = [G1 * rng.randrange(1, CURVE_ORDER) for _ in range(count)]
        scalars = _random_scalars(rng, count)
        assert multi_scalar_mul(points, scalars) == multi_scalar_mul_naive(
            points, scalars
        )

    @pytest.mark.parametrize("seed", range(2))
    def test_g2_fast_vs_naive(self, seed):
        rng = random.Random(seed + 77)
        points = [G2 * rng.randrange(1, 2**40) for _ in range(9)]
        scalars = _random_scalars(rng, 9)
        assert multi_scalar_mul(points, scalars) == multi_scalar_mul_naive(
            points, scalars
        )

    def test_edge_scalars_exactly(self):
        points = [G1 * (i + 1) for i in range(len(EDGE_SCALARS))]
        expected = multi_scalar_mul_naive(points, list(EDGE_SCALARS))
        assert multi_scalar_mul(points, list(EDGE_SCALARS)) == expected

    def test_duplicate_points(self):
        point = G1 * 123457
        points = [point] * 8 + [G1 * 99]
        scalars = [3, 0, CURVE_ORDER - 1, 1, 7, 7, 2**200, 5, 11]
        assert multi_scalar_mul(points, scalars) == multi_scalar_mul_naive(
            points, scalars
        )

    def test_all_identical_points(self):
        point = G2 * 31337
        scalars = [CURVE_ORDER - 1, 1, 0, 2, 2]
        assert multi_scalar_mul([point] * 5, scalars) == point * (
            sum(scalars) % CURVE_ORDER
        )

    def test_infinity_points_mixed_in(self):
        points = [G1, G1Point.infinity(), G1 * 5, G1Point.infinity()]
        scalars = [7, CURVE_ORDER - 1, 3, 12]
        assert multi_scalar_mul(points, scalars) == G1 * (7 + 15)


class TestCachedWnafTables:
    """multi_scalar_mul(tables=...) with precomputed wNAF tables == naive."""

    @pytest.mark.parametrize("width", [2, 4, 6])
    def test_tables_match_naive(self, width):
        rng = random.Random(width)
        points = [G1 * rng.randrange(1, CURVE_ORDER) for _ in range(7)]
        scalars = _random_scalars(rng, 7)
        tables = [wnaf_table_g1(p, width) for p in points]
        assert multi_scalar_mul(
            points, scalars, tables=tables
        ) == multi_scalar_mul_naive(points, scalars)

    def test_mixed_cached_and_uncached(self):
        rng = random.Random(5)
        points = [G1 * rng.randrange(1, CURVE_ORDER) for _ in range(6)]
        scalars = _random_scalars(rng, 6)
        tables = [
            wnaf_table_g1(p, 6) if i % 2 == 0 else None
            for i, p in enumerate(points)
        ]
        assert multi_scalar_mul(
            points, scalars, tables=tables
        ) == multi_scalar_mul_naive(points, scalars)

    def test_tables_with_infinity_zero_scalar_and_lone_survivor(self):
        """Mixed ``None``/table entries next to a point at infinity and a
        zero scalar; dropping those can leave one term, with or without
        its table."""
        points = [G1 * 11, G1Point.infinity(), G1 * 13, G1 * 17]
        tables = [wnaf_table_g1(points[0], 6), None, None, wnaf_table_g1(points[3], 4)]
        for scalars in (
            [CURVE_ORDER - 2, 9, 0, 2**130 + 1],
            [5, 9, 0, 0],          # lone survivor has a table
            [0, 9, 2**200, 0],     # lone survivor has none
            [0, 9, 0, 0],          # nothing survives
        ):
            assert multi_scalar_mul(
                points, scalars, tables=tables
            ) == multi_scalar_mul_naive(points, scalars)

    def test_tables_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multi_scalar_mul([G1, G1 * 2], [1, 2], tables=[None])

    def test_empty_input_with_tables_follows_identity_contract(self):
        with pytest.raises(ValueError):
            multi_scalar_mul([], [], tables=[])
        assert multi_scalar_mul(
            [], [], identity=G1Point.infinity(), tables=[]
        ).is_infinity()

    def test_cache_wnaf_msm_matches(self):
        cache = PrecomputeCache()
        rng = random.Random(17)
        points = [G1 * rng.randrange(1, CURVE_ORDER) for _ in range(8)]
        scalars = _random_scalars(rng, 8)
        first = cache.wnaf_msm(points, scalars)
        again = cache.wnaf_msm(points, scalars)  # warm-path: tables cached
        expected = multi_scalar_mul_naive(points, scalars)
        assert first == expected and again == expected


class TestPreparedPairing:
    """Prepared-G2 Miller lines give the same pairing as the direct path."""

    @pytest.mark.parametrize("seed", range(3))
    def test_prepared_equals_direct(self, seed):
        rng = random.Random(seed + 400)
        p = G1 * rng.randrange(1, CURVE_ORDER)
        q = G2 * rng.randrange(1, CURVE_ORDER)
        assert pairing(p, prepare_g2(q)) == pairing(p, q)

    def test_prepared_infinity(self):
        prepared = prepare_g2(G2Point.infinity())
        assert pairing(G1 * 7, prepared) == pairing(G1 * 7, G2Point.infinity())

    def test_prepare_is_idempotent(self):
        prepared = prepare_g2(G2 * 9)
        assert prepare_g2(prepared) is prepared

    def test_state_roundtrip(self):
        """A prepared point's state is a pure function of the point: a
        second build equals the first, whose lines a pairing has already
        used, and pairs the same — so threads that race to build one cache
        entry store equal values."""
        prepared = G2Prepared(G2 * 1234567)
        used = pairing(G1 * 3, prepared)
        again = G2Prepared(G2 * 1234567)
        assert again.infinity == prepared.infinity
        assert again.coeffs == prepared.coeffs
        assert pairing(G1 * 3, again) == used == pairing(G1 * 3, G2 * 1234567)

    def test_pairing_check_with_prepared_mix(self):
        # e(aP, Q) * e(-P, aQ) == 1, with one leg prepared and one raw.
        a = 987654321
        assert pairing_check(
            [(G1 * a, prepare_g2(G2)), (-G1, G2 * a)]
        )
        assert not pairing_check([(G1 * a, prepare_g2(G2)), (-G1, G2 * (a + 1))])

    def test_cache_prepared_g2_reuses_instance(self):
        cache = PrecomputeCache()
        q = G2 * 42
        first = cache.prepared_g2(q)
        assert cache.prepared_g2(q) is first


class TestAffineBatchAndHashMemo:
    """to_affine_batch and the memoized-hash satellite."""

    def test_g1_batch_matches_scalar_path(self):
        rng = random.Random(8)
        points = [G1 * rng.randrange(1, CURVE_ORDER) for _ in range(9)]
        # Fresh copies so no point carries a memoized affine form in.
        fresh = [G1Point(p.x, p.y, p.z) for p in points]
        assert G1Point.to_affine_batch(fresh) == [p.to_affine() for p in points]

    def test_g2_batch_matches_scalar_path(self):
        rng = random.Random(9)
        points = [G2 * rng.randrange(1, 2**48) for _ in range(5)]
        fresh = [G2Point(p.x, p.y, p.z) for p in points]
        assert G2Point.to_affine_batch(fresh) == [p.to_affine() for p in points]

    def test_batch_rejects_infinity(self):
        with pytest.raises(ValueError, match="infinity"):
            G1Point.to_affine_batch([G1, G1Point.infinity()])

    @pytest.mark.parametrize("cls, gen", [(G1Point, G1), (G2Point, G2)])
    def test_hash_memoizes_affine_form(self, cls, gen):
        # Regression for the satellite: hashing must not re-run a modular
        # inversion per call.  After the first hash the affine form is
        # memoized, and repeated to_affine calls return the same tuple
        # object (no recomputation).
        point = gen * 123456789  # Jacobian, z != 1
        assert point._affine is None
        hash(point)
        memo = point._affine
        assert memo is not None
        hash(point)
        hash(point)
        assert point.to_affine() is memo

    def test_hashing_large_point_set_does_no_per_call_inversions(self):
        points = [G1 * (i + 2) for i in range(32)]
        for p in points:
            hash(p)
        memos = [p._affine for p in points]
        # Re-hashing the whole set must leave every memo untouched.
        for p in points:
            hash(p)
            hash(p)
        assert [p._affine for p in points] == memos
        assert all(m is n for m, n in zip(memos, [p._affine for p in points]))
