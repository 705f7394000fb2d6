"""Persistent precompute store: roundtrips, rejection, cache wiring.

The on-disk store must never be able to take the auditor down: a missing,
truncated, corrupted or version-mismatched file reads as a cache miss and
the table is rebuilt from scratch.  And what it *does* serve back must be
the exact tables the cache would have built — verified here by comparing
group-element outputs across a fresh process-simulating cache reload.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto.bn254 import (
    CURVE_ORDER,
    G1Point,
    G2Point,
    PrecomputeCache,
    PrecomputeStore,
    multi_scalar_mul_naive,
    pairing,
)
from repro.crypto.bn254.fields import Fp12
from repro.crypto.bn254.store import MAGIC
from repro.durable import FORMAT_VERSION, HEADER_LEN, publish

G1 = G1Point.generator()
G2 = G2Point.generator()


class TestStoreRoundtrip:
    def test_save_then_load(self, tmp_path):
        store = PrecomputeStore(tmp_path)
        payload = [(1, 2), (3, 4)]
        store.save("wnaf", b"key-a", payload)
        assert store.load("wnaf", b"key-a") == payload
        assert store.saves == 1 and store.loads == 1 and store.rejects == 0

    def test_missing_file_is_none(self, tmp_path):
        store = PrecomputeStore(tmp_path)
        assert store.load("wnaf", b"never-saved") is None
        assert store.rejects == 0

    def test_kinds_do_not_collide(self, tmp_path):
        store = PrecomputeStore(tmp_path)
        store.save("wnaf", b"k", [1])
        store.save("gt", b"k", [2])
        assert store.load("wnaf", b"k") == [1]
        assert store.load("gt", b"k") == [2]

    def test_creates_directory(self, tmp_path):
        nested = tmp_path / "a" / "b"
        PrecomputeStore(nested).save("wnaf", b"k", [1])
        assert PrecomputeStore(nested).load("wnaf", b"k") == [1]


class TestStoreRejection:
    """Malformed files are ignored — never raised, never unpickled."""

    def _file(self, store, kind=b"wnaf"):
        paths = list(store.directory.glob("*.bin"))
        assert len(paths) == 1
        return paths[0]

    def test_corrupted_payload_rejected(self, tmp_path):
        store = PrecomputeStore(tmp_path)
        store.save("wnaf", b"k", [(1, 2)])
        path = self._file(store)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a payload byte -> checksum mismatch
        path.write_bytes(bytes(blob))
        assert store.load("wnaf", b"k") is None
        assert store.rejects == 1

    def test_version_mismatch_rejected(self, tmp_path):
        store = PrecomputeStore(tmp_path)
        store.save("wnaf", b"k", [(1, 2)])
        path = self._file(store)
        blob = bytearray(path.read_bytes())
        future = (FORMAT_VERSION + 1).to_bytes(2, "big")
        blob[len(MAGIC) : len(MAGIC) + 2] = future
        path.write_bytes(bytes(blob))
        assert store.load("wnaf", b"k") is None
        assert store.rejects == 1

    def test_truncated_file_rejected(self, tmp_path):
        store = PrecomputeStore(tmp_path)
        store.save("wnaf", b"k", [(1, 2)])
        path = self._file(store)
        path.write_bytes(path.read_bytes()[: HEADER_LEN - 5])
        assert store.load("wnaf", b"k") is None
        assert store.rejects == 1

    def test_wrong_magic_rejected(self, tmp_path):
        store = PrecomputeStore(tmp_path)
        store.save("wnaf", b"k", [(1, 2)])
        path = self._file(store)
        blob = path.read_bytes()
        path.write_bytes(b"XXXXXXXX" + blob[8:])
        assert store.load("wnaf", b"k") is None

    def test_checksummed_garbage_with_bad_pickle_rejected(self, tmp_path):
        # Valid header + checksum over a non-pickle payload: the unpickle
        # failure itself must read as a miss.
        store = PrecomputeStore(tmp_path)
        payload = b"\x00not a pickle"
        publish(store._path("wnaf", b"k"), MAGIC, payload)
        assert store.load("wnaf", b"k") is None

    def test_corrupted_store_degrades_to_cold_start(self, tmp_path):
        """A cache backed by a trashed store still computes correct results."""
        store = PrecomputeStore(tmp_path)
        warm = PrecomputeCache(store=store)
        point = G1 * 424242
        warm.g1_wnaf_table(point)
        for path in tmp_path.glob("*.bin"):
            path.write_bytes(b"garbage" * 10)
        reloaded = PrecomputeCache(store=PrecomputeStore(tmp_path))
        scalars = [7, CURVE_ORDER - 1]
        points = [point, G1 * 5]
        assert reloaded.wnaf_msm(points, scalars) == multi_scalar_mul_naive(
            points, scalars
        )


class TestCachePersistence:
    """A second cache instance over the same directory starts warm and
    serves the exact same group elements."""

    def test_wnaf_tables_persist(self, tmp_path):
        rng = random.Random(3)
        points = [G1 * rng.randrange(1, CURVE_ORDER) for _ in range(4)]
        scalars = [rng.randrange(CURVE_ORDER) for _ in range(4)]

        first = PrecomputeCache(store=PrecomputeStore(tmp_path))
        cold = first.wnaf_msm(points, scalars)
        assert first.store.saves > 0

        second = PrecomputeCache(store=PrecomputeStore(tmp_path))
        warm = second.wnaf_msm(points, scalars)
        assert warm == cold == multi_scalar_mul_naive(points, scalars)
        # Every table came off disk: loads counted, nothing re-saved.
        assert second.store.loads == len(points)
        assert second.store.saves == 0

    def test_prepared_g2_lines_persist(self, tmp_path):
        q = G2 * 987654321
        p = G1 * 13

        first = PrecomputeCache(store=PrecomputeStore(tmp_path))
        direct = pairing(p, first.prepared_g2(q))

        second = PrecomputeCache(store=PrecomputeStore(tmp_path))
        restored = pairing(p, second.prepared_g2(q))
        assert restored == direct == pairing(p, q)
        assert second.store.loads == 1

    def test_gt_tables_persist(self, tmp_path):
        base = pairing(G1, G2)
        exponent = 123456789123456789

        first = PrecomputeCache(store=PrecomputeStore(tmp_path))
        cold = first.gt_context(base).pow(exponent)

        second = PrecomputeCache(store=PrecomputeStore(tmp_path))
        warm = second.gt_context(base).pow(exponent)
        assert warm == cold
        assert second.store.loads == 1

    def test_storeless_cache_unaffected(self):
        cache = PrecomputeCache()
        assert cache.store is None
        table = cache.g1_wnaf_table(G1 * 3)
        assert cache.g1_wnaf_table(G1 * 3) is table

    def test_width_change_is_a_different_key(self, tmp_path):
        PrecomputeCache(
            store=PrecomputeStore(tmp_path), wnaf_width=5
        ).g1_wnaf_table(G1 * 3)
        wider = PrecomputeCache(store=PrecomputeStore(tmp_path), wnaf_width=6)
        wider.g1_wnaf_table(G1 * 3)
        # Second cache found no table for its width: it saved a fresh one.
        assert wider.store.saves == 1
