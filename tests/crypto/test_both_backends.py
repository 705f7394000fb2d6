"""The suites that pin BN254 results, run again on both backends.

``test_fastpath_differential.py``, ``test_pairing.py`` and ``test_msm.py``
run where they are collected on the process's backend (the native kernel
wherever a compiler exists).  Their test functions and classes are
collected here a second time under the ``crypto_backend`` fixture, once
on the pure-Python references and once on the chosen backend, so both
stay pinned without renaming any original test id.

The differentials below cover what a new key costs: G2 line preparation,
both square roots (their windowed powers on residues and non-residues,
and the decoders and ``hash_to_g1`` built on them) and
the kernel's wNAF recoding, each against its pure-Python reference.  Then
what each audit costs: the challenge expansion (the Feistel PRP walk and
the PRF, over the kernel's SHA-256 / HMAC-SHA256, which are checked
against the published vectors) and the GT torus codec of the 288-byte
proof, refusals included.
"""

from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.bn254 import (
    CURVE_ORDER,
    FIELD_MODULUS as P,
    DeserializationError,
    Fp2,
    Fp6,
    Fp12,
    G1Point,
    G2Point,
    G2Prepared,
    fp_sqrt,
    g1_from_bytes,
    g2_from_bytes,
    gt_from_bytes,
    gt_to_bytes,
    hash_to_g1,
    kernel,
    miller_loop_product,
    multi_scalar_mul,
    pairing,
)
from repro.crypto.bn254.fields import _fp_sqrt_ref
from repro.crypto.bn254.msm import _msm_wnaf_g1_ref, _wnaf, _wnaf_table_g1_ref
from repro.crypto.bn254.pairing import _prepare_ref
from repro.crypto.prf import FeistelPrp, Prf

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


@settings(max_examples=25, deadline=None)
@given(a=st.integers(1, P - 1), b=field_elements)
def test_windowed_powers_give_the_reference_roots(crypto_backend, a, b):
    """The kernel's square roots raise to their constant exponents over
    4-bit windows: residues a^2, non-residues -a^2 (-1 is one, as p = 3
    mod 4) and xi * a^2 in Fp2 (xi = 9 + u is one), 0 and p - 1 give the
    references' roots and refusals."""
    square = a * a % P
    assert fp_sqrt(square) == _fp_sqrt_ref(square) is not None
    assert fp_sqrt(P - square) == _fp_sqrt_ref(P - square) is None
    for value in (0, P - 1):
        assert fp_sqrt(value) == _fp_sqrt_ref(value)
    residue = Fp2(a, b).square()
    xi = Fp2(9, 1)
    assert residue.sqrt() == residue._sqrt_ref() is not None
    assert (xi * residue).sqrt() == (xi * residue)._sqrt_ref() is None
    for element in (xi, Fp2(0, 0), Fp2(P - 1, 0), Fp2(P - 1, P - 1)):
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


# --------------------------------------------------------------------- #
# The per-audit entry points: challenge expansion over the kernel's     #
# SHA-256 / HMAC, and the GT torus codec, against their references      #
# --------------------------------------------------------------------- #

#: FIPS 180-4 examples (one block, two blocks, 896 bits, a million "a").
SHA256_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
    (
        b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
        b"hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
    ),
    (b"a" * 1_000_000, "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
]

#: RFC 4231 test cases 1-7 (case 5's output is truncated to 128 bits;
#: cases 6 and 7 use a 131-byte key, hashed first).
HMAC_VECTORS = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    (b"\x0c" * 20, b"Test With Truncation", "a3b6167473100ee06e0c796c2955552b"),
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    (b"\xaa" * 131,
     b"This is a test using a larger than block-size key and a larger than "
     b"block-size data. The key needs to be hashed before being used by the "
     b"HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
]


def _hashers():
    """(sha256, hmac_sha256) of the references, then of the kernel."""
    yield (
        lambda data: hashlib.sha256(data).digest(),
        lambda key, data: hmac.new(key, data, hashlib.sha256).digest(),
    )
    if CHOSEN.kernel is not None:
        yield CHOSEN.kernel.sha256, CHOSEN.kernel.hmac_sha256


def test_sha256_and_hmac_meet_the_published_vectors(crypto_backend):
    for sha256, hmac_sha256 in _hashers():
        for message, digest in SHA256_VECTORS:
            assert sha256(message).hex() == digest
        for key, message, digest in HMAC_VECTORS:
            assert hmac_sha256(key, message).hex().startswith(digest)


@pytest.mark.skipif(CHOSEN.kernel is None, reason=CHOSEN.describe())
@settings(max_examples=60, deadline=None)
@given(key=st.binary(max_size=200), message=st.binary(max_size=200))
def test_kernel_sha256_and_hmac_match_hashlib(crypto_backend, key, message):
    """Every padding case: tails of 0-63 bytes, 55 / 56 (one block or two),
    and keys up to, at and past the 64-byte block."""
    assert CHOSEN.kernel.sha256(message) == hashlib.sha256(message).digest()
    assert CHOSEN.kernel.hmac_sha256(key, message) == hmac.new(
        key, message, hashlib.sha256
    ).digest()


#: Feistel domains 1-5,000, with every power of two and its neighbours
#: (where the walk's width steps up).
prp_domains = st.one_of(
    st.integers(1, 5000),
    st.sampled_from(
        sorted({2**j + d for j in range(13) for d in (-1, 0, 1)} - {0} | {5000})
    ),
)
#: The seed lengths a challenge uses (16 and 32), one block, and one past it.
expansion_keys = st.sampled_from([16, 32, 64, 65]).flatmap(
    lambda size: st.binary(min_size=size, max_size=size)
)


@settings(max_examples=60, deadline=None)
@given(key=expansion_keys, domain=prp_domains, count=st.integers(-1, 40))
def test_prp_samples_match_the_reference(crypto_backend, key, domain, count):
    """``count`` past the domain is clamped, and a negative one is empty."""
    prp = FeistelPrp(key, domain)
    assert prp.sample_indices(count) == prp._sample_indices_ref(count)


@pytest.mark.skipif(CHOSEN.kernel is None, reason=CHOSEN.describe())
def test_kernel_walk_refuses_what_could_never_end(crypto_backend):
    """A start at or past the domain may sit on a cycle that never enters
    it, and a value past 64 bits does not fit the kernel's words; the
    buffer sizes are checked too."""
    for domain, half_bits, count in (
        (5, 2, 6), (5, 2, -1), (17, 2, 1), (5, 0, 1), (1 << 62, 33, 1), (1 << 64, 32, 1)
    ):
        with pytest.raises(ValueError):
            CHOSEN.kernel.prp_sample(b"key", domain, half_bits, count)
    with pytest.raises(ValueError):
        CHOSEN.kernel.gt_decompress(bytes(191))


@settings(max_examples=10, deadline=None)
@given(key=expansion_keys, domain=st.integers(1, 64))
def test_a_whole_small_domain_is_the_same_permutation(crypto_backend, key, domain):
    prp = FeistelPrp(key, domain)
    images = prp.sample_indices(domain)
    assert images == [prp.permute(i) for i in range(domain)]
    assert sorted(images) == list(range(domain))


@settings(max_examples=30, deadline=None)
@given(key=st.one_of(expansion_keys, st.binary(max_size=100)), count=st.integers(-1, 12))
def test_prf_scalars_match_the_reference(crypto_backend, key, count):
    prf = Prf(key)
    assert prf.scalars(count) == prf._scalars_ref(count)
    assert prf.scalars(count) == [prf.scalar(i) for i in range(count)]


GT = pairing(G1, G2)

gt_elements = st.one_of(
    st.just(Fp12.one()),
    st.integers(1, CURVE_ORDER - 1).map(lambda e: GT ** e),
)
#: Six canonical coordinates: m values that decode (to unitary elements,
#: not necessarily of order r: the codec checks no membership).
torus_encodings = st.lists(field_elements, min_size=6, max_size=6).map(
    lambda coords: b"".join(c.to_bytes(32, "big") for c in coords)
)


def _outcome(run):
    """The value, or the exception's type and message."""
    try:
        return run()
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=20, deadline=None)
@given(element=gt_elements)
def test_gt_encodings_match_the_reference(crypto_backend, element):
    encoded = gt_to_bytes(element)
    assert encoded == _reference(lambda: gt_to_bytes(element))
    decoded = gt_from_bytes(encoded)
    assert decoded == element
    assert decoded._flat12() == _reference(lambda: gt_from_bytes(encoded))._flat12()


@settings(max_examples=40, deadline=None)
@given(data=torus_encodings)
def test_gt_decoder_accepts_what_the_reference_accepts(crypto_backend, data):
    decoded = _outcome(lambda: gt_from_bytes(data)._flat12())
    assert decoded == _reference(lambda: _outcome(lambda: gt_from_bytes(data)._flat12()))
    assert gt_to_bytes(gt_from_bytes(data)) == data


def _refused_encodings():
    """Wrong lengths, then p and 2^256 - 1 in each coordinate."""
    yield b""
    yield bytes(191)
    yield bytes(193)
    for position in range(6):
        for bad in (P, 2**256 - 1):
            coords = [1, 2, 3, 4, 5, 6]
            coords[position] = bad
            yield b"".join(c.to_bytes(32, "big") for c in coords)


def test_gt_refusals_are_the_references(crypto_backend):
    """The same exception type and message on both backends; the kernel
    itself refuses (its ``None``), so no refusal is the fallback's alone."""
    native = crypto_backend.kernel
    for data in _refused_encodings():
        raised = _outcome(lambda: gt_from_bytes(data))
        assert raised[0] is DeserializationError
        assert raised == _reference(lambda: _outcome(lambda: gt_from_bytes(data)))
        if native is not None and len(data) == 192:
            assert native.gt_decompress(data) is None
    g0 = Fp6(Fp2(2), Fp2.zero(), Fp2.zero())
    for element in (Fp12(g0, Fp6.zero()), Fp12.zero()):
        raised = _outcome(lambda: gt_to_bytes(element))
        assert raised == (ValueError, "element is not torus-compressible (g1 == 0, g != 1)")
        assert raised == _reference(lambda: _outcome(lambda: gt_to_bytes(element)))
        if native is not None:
            assert native.gt_compress(element._flat12()) is None


def test_no_canonical_encoding_is_degenerate(crypto_backend):
    """The decoder refuses m^2 = v, but v is not a square in Fp6 (Euler's
    criterion gives -1), so no canonical encoding reaches that refusal;
    the branch stays on both backends as the reference wrote it."""
    v = Fp6(Fp2.zero(), Fp2.one(), Fp2.zero())
    power, base, exponent = Fp6.one(), v, (P**6 - 1) // 2
    while exponent:
        if exponent & 1:
            power = power * base
        base = base.square()
        exponent >>= 1
    assert power == -Fp6.one()
