"""The suites that pin BN254 results, run again on both backends.

``test_fastpath_differential.py``, ``test_pairing.py`` and ``test_msm.py``
run where they are collected on the process's backend (the native kernel
wherever a compiler exists).  Their test functions and classes are
collected here a second time under the ``crypto_backend`` fixture, once
on the pure-Python references and once on the chosen backend, so both
stay pinned without renaming any original test id.

The differentials below cover what a new key costs: G2 line preparation,
both square roots (and the decoders and ``hash_to_g1`` built on them) and
the kernel's wNAF recoding, each against its pure-Python reference.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.bn254 import (
    CURVE_ORDER,
    FIELD_MODULUS as P,
    DeserializationError,
    Fp2,
    G1Point,
    G2Point,
    G2Prepared,
    fp_sqrt,
    g1_from_bytes,
    g2_from_bytes,
    hash_to_g1,
    kernel,
    miller_loop_product,
    multi_scalar_mul,
)
from repro.crypto.bn254.fields import _fp_sqrt_ref
from repro.crypto.bn254.msm import _msm_wnaf_g1_ref, _wnaf, _wnaf_table_g1_ref
from repro.crypto.bn254.pairing import _prepare_ref

import test_fastpath_differential
import test_msm
import test_pairing

pytestmark = pytest.mark.usefixtures("crypto_backend")

for _module in (test_fastpath_differential, test_pairing, test_msm):
    globals().update(
        (name, value)
        for name, value in vars(_module).items()
        if name.startswith(("test_", "Test"))
    )


# --------------------------------------------------------------------- #
# The per-key entry points: line preparation, square roots, decoding,   #
# hashing to G1 and the recoded wNAF chain, against their references     #
# --------------------------------------------------------------------- #

#: The backend the process chose, captured before any test patches it.
CHOSEN = kernel.backend()
G1 = G1Point.generator()
G2 = G2Point.generator()

field_elements = st.one_of(
    st.sampled_from([0, 1, 4, P - 1]), st.integers(0, P - 1)
)
flag_bits = st.sampled_from([0x00, 0x40, 0x80, 0xC0])
#: Random strings, plus canonical x coordinates under random flag bits
#: (about half of which are on the curve).
g1_encodings = st.one_of(
    st.binary(min_size=32, max_size=32),
    st.tuples(field_elements, flag_bits).map(
        lambda t: (t[0] | t[1] << 248).to_bytes(32, "big")
    ),
)
g2_encodings = st.one_of(
    st.binary(min_size=64, max_size=64),
    st.tuples(field_elements, field_elements, flag_bits).map(
        lambda t: (t[0] | t[2] << 248).to_bytes(32, "big") + t[1].to_bytes(32, "big")
    ),
)


def _on(backend, run):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_backend", backend)
        return run()


def _reference(run):
    """``run()`` on the pure-Python references."""
    return _on(kernel.Backend("python"), run)


@settings(max_examples=5, deadline=None)
@given(k=st.integers(1, CURVE_ORDER - 1))
def test_prepared_lines_and_coeffs_match_the_reference(crypto_backend, k):
    q = G2 * k
    reference = _prepare_ref(*q.to_affine())
    prepared = G2Prepared(q)
    native = crypto_backend.kernel
    if native is not None:
        flat = [v for slope, c in reference for v in (slope.c0, slope.c1, c.c0, c.c1)]
        assert prepared.native_lines(native) == native.to_montgomery(flat)
    # Decoded from the kernel's lines, or computed by the reference.
    assert prepared.coeffs == reference


def test_a_point_prepared_on_one_backend_pairs_on_the_other(crypto_backend):
    """Lines the kernel made feed the reference loop (decoded), and
    coefficients the reference made feed the kernel's (prepared there)."""
    python = kernel.Backend("python")
    for first, second in ((CHOSEN, python), (python, CHOSEN)):
        prepared = G2Prepared(G2 * 7)
        pair = [(G1 * 3, prepared)]
        made = _on(first, lambda: miller_loop_product(pair)._flat12())
        assert _on(second, lambda: miller_loop_product(pair)._flat12()) == made
        assert made == _reference(lambda: miller_loop_product([(G1 * 3, G2 * 7)])._flat12())


def test_a_step_dividing_by_zero_raises_on_both(crypto_backend):
    """A twist point with y = 0 (off the curve) has no tangent line."""
    degenerate = G2Prepared(G2Point(Fp2(5), Fp2(0)))
    with pytest.raises(ZeroDivisionError):
        miller_loop_product([(G1, degenerate)])


@settings(max_examples=25, deadline=None)
@given(a=field_elements, b=field_elements)
def test_square_roots_match_the_reference(crypto_backend, a, b):
    """Residues (the squares), non-residues, 0 and p - 1: the same root, or
    the same ``None``."""
    for value in (a, a * a % P):
        assert fp_sqrt(value) == _fp_sqrt_ref(value)
    for element in (Fp2(a, b), Fp2(a, b).square()):
        assert element.sqrt() == element._sqrt_ref()
    assert Fp2(a, b).square().sqrt() is not None


def test_square_root_edge_cases_match_the_reference(crypto_backend):
    assert fp_sqrt(0) == 0 and fp_sqrt(P - 1) is None
    assert Fp2(0, 0).sqrt() == Fp2.zero()
    assert Fp2(9, 1).sqrt() is None  # xi is a non-residue
    for value in (0, 1, 4, P - 1, P + 4):
        assert fp_sqrt(value) == _fp_sqrt_ref(value)
    for element in (Fp2(P - 1, 0), Fp2(0, 1), Fp2(0, P - 1), Fp2(9, 1)):
        assert element.sqrt() == element._sqrt_ref()


@settings(max_examples=20, deadline=None)
@given(message=st.binary(max_size=48))
def test_hash_to_g1_matches_the_reference(crypto_backend, message):
    produced = hash_to_g1(message)
    expected = _reference(lambda: hash_to_g1(message))
    assert (produced.x, produced.y, produced.z) == (expected.x, expected.y, expected.z)


def _decoded(decoder, data):
    """The raw coordinates of the decoded point, or the error message."""
    try:
        point = decoder(data)
    except DeserializationError as exc:
        return str(exc)
    if isinstance(point, G1Point):
        return point.x, point.y, point.z
    return tuple(c for f in (point.x, point.y, point.z) for c in (f.c0, f.c1))


@settings(max_examples=60, deadline=None)
@given(g1_data=g1_encodings, g2_data=g2_encodings)
def test_decoders_accept_and_reject_alike(crypto_backend, g1_data, g2_data):
    for decoder, data in ((g1_from_bytes, g1_data), (g2_from_bytes, g2_data)):
        assert _decoded(decoder, data) == _reference(lambda: _decoded(decoder, data))


@pytest.mark.skipif(CHOSEN.kernel is None, reason=CHOSEN.describe())
@settings(max_examples=40, deadline=None)
@given(scalar=st.integers(0, 2**255 - 1), width=st.sampled_from([4, 5, 6]))
def test_kernel_recoding_is_msm_wnaf(crypto_backend, scalar, width):
    assert CHOSEN.kernel.wnaf(scalar, width) == _wnaf(scalar, width)


@pytest.mark.skipif(CHOSEN.kernel is None, reason=CHOSEN.describe())
def test_kernel_recoding_refuses_what_its_digits_cannot_hold(crypto_backend):
    for scalar, width in ((1 << 255, 4), (-1, 4), (5, 1), (5, 9)):
        with pytest.raises(ValueError):
            CHOSEN.kernel.wnaf(scalar, width)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_msm_triples_match_with_cached_tables_mixed_in(crypto_backend, data):
    """Tables built in the MSM, cached as affine pairs, and cached in the
    kernel's Montgomery form (read by the reference after decoding)."""
    count = data.draw(st.integers(1, 5))
    points = [G1 * data.draw(st.integers(1, CURVE_ORDER - 1)) for _ in range(count)]
    terms = data.draw(
        st.lists(st.integers(0, CURVE_ORDER - 1), min_size=count, max_size=count)
    )
    forms = data.draw(
        st.lists(
            st.sampled_from([None, ("pairs", 4), ("pairs", 6), ("kernel", 5), ("kernel", 6)]),
            min_size=count,
            max_size=count,
        )
    )
    tables, reference_tables = [], []
    for point, form in zip(points, forms):
        if form is None:
            tables.append(None)
            reference_tables.append(None)
            continue
        kind, width = form
        pairs = _wnaf_table_g1_ref(point, width)
        reference_tables.append(pairs)
        if kind == "kernel" and CHOSEN.kernel is not None:
            triple = (point.x, point.y, point.z)
            tables.append(CHOSEN.kernel.g1_wnaf_table(triple, 1 << (width - 2)))
        else:
            tables.append(pairs)
    produced = multi_scalar_mul(points, terms, identity=G1Point.infinity(), tables=tables)
    kept = [(p, s, t) for p, s, t in zip(points, terms, reference_tables) if s]
    if not kept:
        assert produced.is_infinity()
        return
    expected = _msm_wnaf_g1_ref([(p, s) for p, s, _ in kept], 4, [t for *_, t in kept])
    assert (produced.x, produced.y, produced.z) == expected
