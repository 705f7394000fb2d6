"""The native BN254 kernel: differential, sharing, loader, probe, packaging.

Every inner loop behind ``repro.crypto.bn254`` runs whichever backend
``kernel.backend()`` chose.  The properties below run each dispatching
function on the pure-Python references and on the chosen backend over the
same inputs and require equal *raw* values: Jacobian ``(x, y, z)`` triples
on G1 (chain state hashes them) and canonical ``Fp12`` coefficients on the
pairing and GT side.  On a host without a compiler both sides are the
references.
"""

from __future__ import annotations

import shutil
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.crypto.bn254 import (
    CURVE_ORDER,
    FixedBaseMul,
    G1Point,
    G2Point,
    G2Prepared,
    GTFixedBase,
    final_exponentiation,
    gt_multi_pow,
    gt_pow,
    kernel,
    miller_loop_product,
    multi_scalar_mul,
    pairing,
    wnaf_table_g1,
)
from repro.crypto.bn254.msm import _wnaf_table_g1_ref

PYTHON = kernel.Backend("python")
G1 = G1Point.generator()
G2 = G2Point.generator()
GT = pairing(G1, G2)
GT_BASES = (GT, GT.conjugate(), pairing(G1 * 3, G2 * 5))
GT_WINDOWS = (1, 3, 5)


def _on_both(run):
    """``run()`` on the references, then on the process's backend."""
    chosen = kernel.backend()
    results = []
    for backend in (PYTHON, chosen):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "_backend", backend)
            results.append(run())
    return results


def _triple(point: G1Point) -> tuple[int, int, int]:
    return point.x, point.y, point.z


scalars = st.one_of(
    st.sampled_from([0, 1, 2, CURVE_ORDER - 1]), st.integers(0, CURVE_ORDER - 1)
)
exponents = st.one_of(
    st.sampled_from([0, 1, CURVE_ORDER - 1, CURVE_ORDER]),
    st.integers(0, 2**128),
    st.integers(0, CURVE_ORDER - 1),
)
g1_points = st.integers(1, CURVE_ORDER - 1).map(lambda k: G1 * k)
g1_or_identity = st.one_of(g1_points, st.just(G1Point.infinity()))


# --------------------------------------------------------------------- #
# G1: the wNAF chain, its tables, the fixed-base comb                   #
# --------------------------------------------------------------------- #

@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_wnaf_msm_triples_match(data):
    """Uncached, cached (widths 2 / 4 / 6) and mixed tables, a lone term,
    the identity and zero scalars mixed in."""
    count = data.draw(st.integers(1, 6))
    points = data.draw(st.lists(g1_or_identity, min_size=count, max_size=count))
    terms = data.draw(st.lists(scalars, min_size=count, max_size=count))
    widths = data.draw(
        st.lists(st.sampled_from([None, 2, 4, 6]), min_size=count, max_size=count)
    )
    tables = [
        None if width is None or p.is_infinity() else _wnaf_table_g1_ref(p, width)
        for p, width in zip(points, widths)
    ]
    reference, chosen = _on_both(
        lambda: _triple(
            multi_scalar_mul(points, terms, identity=G1Point.infinity(), tables=tables)
        )
    )
    assert chosen == reference


@settings(max_examples=10, deadline=None)
@given(point=g1_points, width=st.sampled_from([2, 4, 5, 6]))
def test_wnaf_tables_match(point, width):
    reference, chosen = _on_both(lambda: wnaf_table_g1(point, width))
    assert chosen == reference


def test_identity_wnaf_table_raises_on_both():
    for backend in (PYTHON, kernel.backend()):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "_backend", backend)
            with pytest.raises(ValueError):
                wnaf_table_g1(G1Point.infinity(), 4)


@settings(max_examples=10, deadline=None)
@given(
    base=g1_points,
    window=st.integers(1, 5),
    terms=st.lists(scalars, min_size=1, max_size=4),
)
def test_fixed_base_triples_match(base, window, terms):
    reference, chosen = _on_both(
        lambda: [_triple(FixedBaseMul(base, window).mul(s)) for s in terms]
    )
    assert chosen == reference


# --------------------------------------------------------------------- #
# Pairing: the shared Miller chain and the final exponentiation         #
# --------------------------------------------------------------------- #

@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_miller_loop_product_and_final_exponentiation_match(data):
    """1-4 pairs over prepared and raw G2 arguments, with an identity pair
    on either side mixed in."""
    count = data.draw(st.integers(1, 4))
    pairs: list = []
    for _ in range(count):
        q = G2 * data.draw(st.integers(1, 2**64))
        pairs.append(
            (data.draw(g1_or_identity), G2Prepared(q) if data.draw(st.booleans()) else q)
        )
    if data.draw(st.booleans()):
        pairs.append((G1 * 7, G2Point.infinity()))

    def run():
        f = miller_loop_product(pairs)
        return f._flat12(), final_exponentiation(f)._flat12()

    reference, chosen = _on_both(run)
    assert chosen == reference


def test_prepared_lines_are_encoded_once():
    chosen = kernel.backend()
    prepared = G2Prepared(G2 * 5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_backend", chosen)
        first = miller_loop_product([(G1, prepared)])
        lines = prepared._lines
        second = miller_loop_product([(G1 * 2, prepared)])
        assert prepared._lines is lines
    if chosen.kernel is None:
        assert lines is None
    else:
        assert isinstance(lines, bytes) and len(lines) == 128 * len(prepared.coeffs)
    assert first != second
    assert G2Prepared._from_state(*prepared._state())._lines is None


# --------------------------------------------------------------------- #
# GT: variable base, shared multi-pow chain, fixed-base windows         #
# --------------------------------------------------------------------- #

@settings(max_examples=15, deadline=None)
@given(items=st.lists(st.tuples(st.sampled_from(GT_BASES), exponents), max_size=4))
def test_gt_pow_and_multi_pow_match(items):
    reference, chosen = _on_both(
        lambda: (
            gt_multi_pow(items)._flat12(),
            [gt_pow(base, exponent)._flat12() for base, exponent in items],
        )
    )
    assert chosen == reference


@pytest.fixture(scope="module")
def gt_tables():
    """One window table per window on each backend, built once (the
    reference build costs ~80 ms at window 5)."""
    return _on_both(lambda: {window: GTFixedBase(GT, window) for window in GT_WINDOWS})


@settings(max_examples=20, deadline=None)
@given(window=st.sampled_from(GT_WINDOWS), exponent=exponents)
def test_gt_fixed_base_pow_matches(gt_tables, window, exponent):
    reference, chosen = (tables[window].pow(exponent)._flat12() for tables in gt_tables)
    assert chosen == reference


def test_gt_table_has_one_representation_and_stores_the_reference_format(gt_tables):
    reference, chosen = gt_tables
    native_in_use = kernel.backend().kernel is not None
    for window in GT_WINDOWS:
        assert chosen[window].stored_table() == reference[window].stored_table()
        assert isinstance(reference[window]._table, list)
        assert isinstance(chosen[window]._table, bytes if native_in_use else list)
    stored = reference[5].stored_table()
    assert all(
        isinstance(entry, tuple) and len(entry) == 12 for row in stored for entry in row
    )
    reopened = _on_both(lambda: GTFixedBase._from_table(GT, 5, stored).pow(12345))
    assert reopened[0] == reopened[1] == reference[5].pow(12345)


# --------------------------------------------------------------------- #
# Shared tables across threads (ctypes releases the GIL)                #
# --------------------------------------------------------------------- #

def test_threads_sharing_tables_agree_with_one_thread():
    prepared = G2Prepared(G2 * 11)
    window = GTFixedBase(GT, 4)
    points = [G1 * (i + 2) for i in range(4)]

    def work(i):
        f = final_exponentiation(miller_loop_product([(points[i % 4], prepared)]))
        msm = multi_scalar_mul(points, [i + 1, 2, 3, 4])
        return f._flat12(), window.pow(i + 1)._flat12(), _triple(msm)

    expected = [work(i) for i in range(8)]
    prepared._lines = None  # the threads race to encode the lines
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == expected


# --------------------------------------------------------------------- #
# Loader and probe                                                      #
# --------------------------------------------------------------------- #

def test_kernel_builds_and_is_chosen_wherever_a_compiler_exists(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
    selected = kernel._select_backend()
    if shutil.which("cc") is None:
        assert selected.name == "python" and "no C compiler" in selected.reason
        return
    assert selected.name == "native" and selected.describe() == "native"
    assert len(list(tmp_path.glob("bn254_kernel-*.so"))) == 1
    # A second load opens the cached file instead of rebuilding it.
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    assert kernel._select_backend().name == "native"


def test_no_compiler_falls_back_to_python(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    selected = kernel._select_backend()
    assert selected.kernel is None
    assert selected.describe() == "python (no C compiler: cc is not on PATH)"
    assert not list(tmp_path.iterdir())


def test_failed_build_falls_back_to_python(tmp_path, monkeypatch):
    broken = tmp_path / "cc"
    broken.write_text("#!/bin/sh\necho 'cc: internal error' >&2\nexit 3\n")
    broken.chmod(0o755)
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(native.shutil, "which", lambda name: str(broken))
    selected = kernel._select_backend()
    assert selected.kernel is None
    assert selected.describe() == "python (cc failed (exit 3): cc: internal error)"
    assert not list((tmp_path / "cache").iterdir())  # nothing half-built left


def test_missing_source_falls_back_to_python(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(kernel, "SOURCE", "absent.c")
    selected = kernel._select_backend()
    assert selected.kernel is None
    assert selected.reason.startswith("kernel source absent.c is not installed")


def test_probe_disagreement_falls_back_to_python(monkeypatch):
    """A library whose entry points return without writing: every result
    reads as zero, and the probe refuses it."""
    fake = types.SimpleNamespace(
        **{name: (lambda *args: 0) for name in kernel._SIGNATURES}
    )
    monkeypatch.setattr(native, "load_library", lambda package, filename: fake)
    selected = kernel._select_backend()
    assert selected.kernel is None
    assert selected.reason == "known-answer probe disagrees with the pure-Python reference"


# --------------------------------------------------------------------- #
# Packaging                                                             #
# --------------------------------------------------------------------- #

def test_kernel_source_ships_as_package_data():
    """``setup.py`` declaring it is checked, for every ``.c`` under
    src/repro, by tests/storage/test_gf256_kernel.py."""
    source = resources.files("repro.crypto.bn254").joinpath(kernel.SOURCE)
    assert b"bn_miller_loop" in source.read_bytes()
