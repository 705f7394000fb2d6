"""Multi-scalar multiplication: the wNAF chain vs naive, fixed-base tables."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.bn254 import CURVE_ORDER, G1Point, G2Point
from repro.crypto.bn254.msm import (
    FixedBaseMul,
    multi_scalar_mul,
    multi_scalar_mul_naive,
)

G1 = G1Point.generator()

scalars = st.integers(min_value=0, max_value=CURVE_ORDER - 1)


@settings(max_examples=8, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=12))
def test_pippenger_matches_naive(scalar_list):
    """The one MSM algorithm (interleaved wNAF; the id predates it) agrees
    with independent scalar multiplications."""
    points = [G1 * (i + 1) for i in range(len(scalar_list))]
    assert multi_scalar_mul(points, scalar_list) == multi_scalar_mul_naive(
        points, scalar_list
    )


def test_empty_input_requires_explicit_identity():
    """The old G1-infinity default silently mis-typed empty G2 aggregations."""
    with pytest.raises(ValueError, match="identity"):
        multi_scalar_mul([], [])
    with pytest.raises(ValueError, match="identity"):
        multi_scalar_mul_naive([], [])


def test_empty_input_with_identity():
    g1_id = multi_scalar_mul([], [], identity=G1Point.infinity())
    assert isinstance(g1_id, G1Point) and g1_id.is_infinity()
    g2_id = multi_scalar_mul([], [], identity=G2Point.infinity())
    assert isinstance(g2_id, G2Point) and g2_id.is_infinity()
    naive = multi_scalar_mul_naive([], [], identity=G2Point.infinity())
    assert isinstance(naive, G2Point) and naive.is_infinity()


def test_all_zero_scalars():
    points = [G1, G1 * 2]
    assert multi_scalar_mul(points, [0, 0]).is_infinity()


def test_single_pair():
    assert multi_scalar_mul([G1], [7]) == G1 * 7


def test_includes_infinity_points():
    points = [G1, G1Point.infinity(), G1 * 3]
    assert multi_scalar_mul(points, [2, 5, 1]) == G1 * 5


def test_scalars_reduced_mod_order():
    assert multi_scalar_mul([G1], [CURVE_ORDER + 3]) == G1 * 3


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        multi_scalar_mul([G1], [1, 2])


def test_large_msm():
    count = 64
    points = [G1 * (3 * i + 1) for i in range(count)]
    values = [(7 * i + 11) for i in range(count)]
    expected_scalar = sum((3 * i + 1) * (7 * i + 11) for i in range(count))
    assert multi_scalar_mul(points, values) == G1 * expected_scalar


def test_g2_msm():
    g2 = G2Point.generator()
    points = [g2, g2 * 2, g2 * 3]
    assert multi_scalar_mul(points, [1, 1, 1]) == g2 * 6


class TestFixedBase:
    def test_matches_direct(self):
        table = FixedBaseMul(G1)
        for scalar in (1, 2, 255, 2**64 + 17, CURVE_ORDER - 1):
            assert table.mul(scalar) == G1 * scalar

    def test_zero(self):
        assert FixedBaseMul(G1).mul(0).is_infinity()

    def test_window_bounds(self):
        with pytest.raises(ValueError):
            FixedBaseMul(G1, window=0)
        with pytest.raises(ValueError):
            FixedBaseMul(G1, window=9)

    def test_wider_window(self):
        table = FixedBaseMul(G1, window=6)
        assert table.mul(123456789) == G1 * 123456789
