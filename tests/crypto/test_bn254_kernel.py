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

import ast
import hashlib
import hmac
import importlib
import random
import shutil
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.chain import Blockchain, CheckpointContract, Transaction
from repro.chain.state import canonical_state_digest
from repro.core import DataOwner, StorageProvider, keys
from repro.core.authenticator import generate_authenticators
from repro.core.challenge import _expand_challenge, random_challenge
from repro.core.chunking import chunk_file
from repro.core.params import ProtocolParams
from repro.core.proof import PrivateProof
from repro.crypto.bn254 import (
    BN_T,
    CURVE_ORDER,
    FIELD_MODULUS,
    FixedBaseMul,
    Fp2,
    G1Point,
    G2Point,
    G2Prepared,
    GTFixedBase,
    final_exponentiation,
    gt_multi_pow,
    gt_pow,
    kernel,
    miller_loop_product,
    msm,
    multi_scalar_mul,
    pairing,
    wnaf_table_g1,
)
from repro.crypto.bn254.curve import (
    _jac_add,
    _jac_add_affine,
    _jac_double,
    _to_affine_batch_raw,
    _wnaf,
    _wnaf_mul_ref,
)
from repro.crypto.bn254.fields import Fp6
from repro.crypto.bn254.msm import _msm_wnaf_g1_ref, _wnaf_table_g1_ref
from repro.crypto.prf import FeistelPrp
from repro.randomness import HashChainBeacon
from repro.sim.workloads import archive_file

#: The modules (the package's ``pairing`` attribute is the function).
pairing_module = importlib.import_module("repro.crypto.bn254.pairing")
gt_module = importlib.import_module("repro.crypto.bn254.gt")

PYTHON = kernel.Backend("python")
G1 = G1Point.generator()
G2 = G2Point.generator()
GT = pairing(G1, G2)
GT_BASES = (GT, GT.conjugate(), pairing(G1 * 3, G2 * 5))


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


def _twist_triple(point: G2Point) -> tuple[int, ...]:
    return tuple(c for f in (point.x, point.y, point.z) for c in (f.c0, f.c1))


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
#: Scalars ``__mul__`` reduces mod r, multiples of r (the identity) included.
any_scalars = st.one_of(
    scalars,
    st.sampled_from([CURVE_ORDER, 5 * CURVE_ORDER, CURVE_ORDER + 7]),
    st.integers(0, 2**300),
)


# --------------------------------------------------------------------- #
# Generic scalar multiplication: G1Point.__mul__ and G2Point.__mul__    #
# --------------------------------------------------------------------- #

@settings(max_examples=40, deadline=None)
@given(point=g1_or_identity, scalar=any_scalars)
def test_g1_mul_triples_match(point, scalar):
    reference, chosen = _on_both(lambda: _triple(point * scalar))
    assert chosen == reference
    if scalar % CURVE_ORDER and not point.is_infinity():
        assert reference == _triple(_wnaf_mul_ref(point, scalar % CURVE_ORDER))
    else:
        assert reference == _triple(G1Point.infinity())


@settings(max_examples=15, deadline=None)
@given(
    point=st.one_of(
        st.integers(1, 2**64).map(lambda k: G2 * k), st.just(G2Point.infinity())
    ),
    scalar=any_scalars,
)
def test_g2_mul_triples_match(point, scalar):
    reference, chosen = _on_both(lambda: _twist_triple(point * scalar))
    assert chosen == reference
    if scalar % CURVE_ORDER and not point.is_infinity():
        assert reference == _twist_triple(_wnaf_mul_ref(point, scalar % CURVE_ORDER))
    else:
        assert reference == _twist_triple(G2Point.infinity())


def test_mul_edge_cases_match():
    """Jacobian inputs (z != 1), scalars 0, r and near r, and the identity
    in both groups; plus points of order 3 and 2 off the curve (on
    y^2 = x^3 + 1 and y^2 = x^3 - 125, which the formulas serve just as
    well), where the chain itself meets P + (-P) and a doubling at y = 0."""
    points = (G1 * 5 + G1, G1Point.infinity(), G1Point(0, 1), G1Point(5, 0))
    twists = (
        G2 * 5 + G2,
        G2Point.infinity(),
        G2Point(Fp2(0), Fp2(1)),
        G2Point(Fp2(5), Fp2(0)),
    )
    assert points[0].z != 1 and twists[0].z != G2.z
    for scalar in (0, 1, 2, 3, 7, 8, CURVE_ORDER, 3 * CURVE_ORDER, CURVE_ORDER - 1):
        reference, chosen = _on_both(
            lambda: (
                [_triple(p * scalar) for p in points],
                [_twist_triple(q * scalar) for q in twists],
            )
        )
        assert chosen == reference
        if scalar % CURVE_ORDER == 0:
            assert reference == (
                [_triple(G1Point.infinity())] * 4,
                [_twist_triple(G2Point.infinity())] * 4,
            )
    assert _triple(G1Point(0, 1) * 3) == _triple(G1Point.infinity())


@pytest.fixture()
def cold_tables():
    """The process-wide tables over g1 and e(g1, g2), built on the backend
    under test and dropped again afterwards."""
    msm.generator_table.cache_clear()
    keys.pairing_generator_table.cache_clear()
    yield
    msm.generator_table.cache_clear()
    keys.pairing_generator_table.cache_clear()


#: ``canonical_state_digest`` of the keypair and tags below, as every
#: backend computes them (and as the chains before the native ``__mul__``
#: did): the bits that reach contract state.
OWNER_DIGEST = "d0aaa06ccb0138b386efe457fcaa18e61bf72f88be4972bef7e6364355347fc2"


def test_owner_keys_and_tags_known_answer(crypto_backend, cold_tables):
    keypair = keys.generate_keypair(10, rng=random.Random(0x5EED))
    chunked = chunk_file(bytes(range(256)) * 3, ProtocolParams(s=10, k=3), name=0xF11E)
    tags = generate_authenticators(chunked, keypair)
    assert len(tags) == 3
    assert keys.pairing_generator_table()._kernel is crypto_backend.kernel
    assert canonical_state_digest((keypair, tags)).hex() == OWNER_DIGEST


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


def test_large_msm_is_the_wnaf_chain():
    """A 128-term G1 MSM, some tables cached, runs the wNAF chain the small
    ones run: on both backends its raw triple is ``_msm_wnaf_g1_ref``'s,
    not merely another Jacobian representation of the same point."""
    rng = random.Random(128)
    points = [G1 * rng.randrange(1, CURVE_ORDER) for _ in range(128)]
    terms = [rng.randrange(1, CURVE_ORDER) for _ in range(128)]
    tables = [
        _wnaf_table_g1_ref(p, (4, 6)[j % 2]) if j % 16 == 0 else None
        for j, p in enumerate(points)
    ]
    expected = _msm_wnaf_g1_ref(list(zip(points, terms)), 5, tables)
    assert _on_both(
        lambda: _triple(multi_scalar_mul(points, terms, tables=tables))
    ) == [expected, expected]


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


# --------------------------------------------------------------------- #
# GT: variable base, shared multi-pow chain, fixed-base comb            #
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


#: Exponents at the comb's seams: 0, the ends of Z_r and either side of r,
#: a negative one, and powers of two at column 31 / 32 of a row, the row
#: boundaries 64 and 224 and the top of the last tooth that r reaches.
COMB_EDGES = (
    0, 1, 2, CURVE_ORDER - 1, CURVE_ORDER, CURVE_ORDER + 1, -1,
    *(2**j for j in (31, 32, 63, 64, 223, 224, 253)),
)


@pytest.fixture(scope="module")
def gt_tables():
    """A comb over each pairing output of ``GT_BASES`` on each backend,
    built once."""
    return _on_both(lambda: [GTFixedBase(base) for base in GT_BASES])


@settings(max_examples=20, deadline=None)
@given(index=st.sampled_from(range(len(GT_BASES))), exponent=exponents)
def test_gt_fixed_base_pow_matches(gt_tables, index, exponent):
    reference, chosen = (tables[index].pow(exponent)._flat12() for tables in gt_tables)
    assert chosen == reference == gt_pow(GT_BASES[index], exponent)._flat12()


def test_gt_comb_meets_gt_pow_at_every_seam(gt_tables):
    for tables in gt_tables:
        for exponent in COMB_EDGES:
            for base, table in zip(GT_BASES, tables):
                assert table.pow(exponent) == gt_pow(base, exponent), exponent


def test_gt_table_has_one_representation_and_stores_the_reference_format(gt_tables):
    """A flat list of 255 entries, entry u - 1 the product of the teeth in
    u; the kernel's buffer is those entries Montgomery-encoded."""
    reference, chosen = gt_tables
    native = kernel.backend().kernel
    for base, ours, theirs in zip(GT_BASES, reference, chosen):
        entries = ours._table
        assert isinstance(entries, list) and len(entries) == 255
        assert all(isinstance(entry, tuple) and len(entry) == 12 for entry in entries)
        assert entries[0] == base._flat12()
        assert entries[254] == gt_pow(base, sum(1 << 32 * t for t in range(8)))._flat12()
        table = theirs._table
        if native is None:
            assert table == entries
        else:
            assert isinstance(table, bytes) and len(table) == 255 * 384
            assert native.from_montgomery(table) == tuple(
                v for entry in entries for v in entry
            )


def test_gt_comb_costs_what_lim_lee_promise(monkeypatch):
    """Counted on the references, so on no host's clock: a build is 224
    cyclotomic squarings and 247 products, a pow of r - 1 at most 31 and
    32.  The kernel runs the same chain over a 255-entry buffer."""
    counts = {"_f12mul": 0, "_f12sqr_cyclo": 0}
    for name in counts:
        real = getattr(gt_module, name)

        def counted(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(gt_module, name, counted)
    monkeypatch.setattr(kernel, "_backend", PYTHON)
    comb = GTFixedBase(GT)
    assert counts == {"_f12mul": 247, "_f12sqr_cyclo": 224}
    counts.update(dict.fromkeys(counts, 0))
    assert comb.pow(CURVE_ORDER - 1) == GT.conjugate()
    assert counts["_f12mul"] <= 32 and counts["_f12sqr_cyclo"] <= 31
    monkeypatch.undo()
    native = kernel.backend().kernel
    if native is not None:
        assert len(GTFixedBase(GT)._table) == 255 * 384


# --------------------------------------------------------------------- #
# One Python copy of each formula                                       #
# --------------------------------------------------------------------- #

#: SHA-256 of every value ``_representative_values`` produces, recorded
#: while each of these formulas still had a second Python copy.
REPRESENTATIVES_DIGEST = "0956f5207dfc8390ffe6989c7b7de413deee268d5ce34acba98bdb4d40d1f724"


def _representative_values():
    """Raw values of the Python group law, recoder and GT squaring on
    fixed-seed inputs: the ``G1Point`` methods (identity (1, 1, 0)) and the
    raw formulas (identity (0, 1, 0)) over P + P, P + (-P), identity
    operands and z = 1 / z != 1 inputs, wNAF digits at widths 2-8, and
    ``cyclotomic_square``, ``pow_t`` and ``gt_pow`` over GT elements."""
    rng = random.Random(0x0F0E)
    jacobian = [G1 * rng.randrange(2, CURVE_ORDER) for _ in range(3)]
    assert all(p.z != 1 for p in jacobian)
    affine = [G1Point(*p.to_affine()) for p in jacobian[:2]]
    points = [G1, *jacobian, *affine, G1Point.infinity(), G1Point(5, 0)]
    for p in points:
        yield _triple(p.double())
        yield _jac_double(*_triple(p))
        for q in (*points, -p):
            yield _triple(p + q)
            yield _jac_add(*_triple(p), *_triple(q))
        negated = (affine[0].x, FIELD_MODULUS - affine[0].y)
        for ax, ay in (G1.to_affine(), affine[0].to_affine(), negated):
            yield _triple(p.add_affine(ax, ay))
            yield _jac_add_affine(*_triple(p), ax, ay)
    finite = [G1Point._raw(*_triple(p)) for p in points[:6]]
    yield G1Point.to_affine_batch(finite)
    yield G1Point.to_affine_batch(finite + [G1Point._raw(*_triple(jacobian[0]))])
    yield _to_affine_batch_raw([_triple(p) for p in points[:6]])
    for scalar in (1, 2, 7, 2**254 - 1, *(rng.getrandbits(254) for _ in range(8))):
        for width in range(2, 9):
            yield _wnaf(scalar, width)
    gt = [GT, GT_BASES[2], gt_pow(GT, rng.randrange(1, CURVE_ORDER))]
    for f in gt:
        yield f.cyclotomic_square()._flat12()
        yield f.pow_t(BN_T)._flat12()
        yield f.pow_t(rng.getrandbits(64))._flat12()
        for exponent in (0, 1, CURVE_ORDER - 1, CURVE_ORDER, rng.randrange(CURVE_ORDER)):
            yield gt_pow(f, exponent)._flat12()


def test_representatives_known_answer():
    def run():
        digest = hashlib.sha256()
        for value in _representative_values():
            digest.update(repr(value).encode())
        return digest.hexdigest()

    assert _on_both(run) == [REPRESENTATIVES_DIGEST] * 2


def _definitions(root):
    """(module file name, function name) of every function under ``root``,
    methods included."""
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                yield path.name, node.name


def test_one_copy_of_each_formula():
    """The G1 group law and the wNAF recoder live in curve.py, the flat
    Fp12 product and cyclotomic square in fields.py, once each; the
    variable-base GT power is ``gt_multi_pow`` of one term, with no chain
    of its own in Python or in the kernel."""
    root = Path(kernel.__file__).parent
    homes: dict[str, list[str]] = {}
    for module, name in _definitions(root):
        homes.setdefault(name, []).append(module)
    for name in ("_wnaf", "_jac_double", "_jac_add", "_jac_add_affine", "_to_affine_batch_raw"):
        assert homes.get(name) == ["curve.py"], name
    for name in ("_f12mul", "_f12sqr_cyclo"):
        assert homes.get(name) == ["fields.py"], name
    assert "_naf4" not in homes and "_gt_pow_ref" not in homes
    assert "bn_gt_pow" not in kernel._SIGNATURES
    assert "bn_gt_pow" not in (root / kernel.SOURCE).read_text()


# --------------------------------------------------------------------- #
# Shared tables across threads (ctypes releases the GIL)                #
# --------------------------------------------------------------------- #

def test_threads_sharing_tables_agree_with_one_thread():
    prepared = G2Prepared(G2 * 11)
    comb = GTFixedBase(GT)
    points = [G1 * (i + 2) for i in range(4)]

    def work(i):
        f = final_exponentiation(miller_loop_product([(points[i % 4], prepared)]))
        msm = multi_scalar_mul(points, [i + 1, 2, 3, 4])
        return f._flat12(), comb.pow(i + 1)._flat12(), _triple(msm)

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
# A new key: decoded, prepared, hashed and audited on kernel calls      #
# --------------------------------------------------------------------- #

@pytest.mark.skipif(kernel.backend().kernel is None, reason=kernel.backend().describe())
def test_a_fresh_key_runs_no_python_crypto(params, monkeypatch):
    """Registering a new key on a CheckpointContract decodes it (both
    square roots), and auditing under it prepares its G2 lines, hashes its
    block digests and runs recoded MSMs: on the native backend none of
    that reaches the Python line steps, ``Fp2`` powers or wNAF recoder."""
    rng = random.Random(0xF4E5)
    owner = DataOwner(params, rng=rng)
    package = owner.prepare(archive_file(600, tag="fresh-key").data)
    provider = StorageProvider(rng=rng)
    assert provider.accept(package, validate=False)

    def forbidden(*args, **kwargs):
        raise AssertionError("Python crypto ran on the per-key path")

    for owner_of, name in (
        (pairing_module, "_coeff_double"),
        (pairing_module, "_coeff_add"),
        (Fp2, "__pow__"),
        (msm, "_wnaf"),
    ):
        monkeypatch.setattr(owner_of, name, forbidden)
    with pytest.raises(AssertionError):
        Fp2(3, 1) ** 2  # the patch is live
    chain = Blockchain(block_time=15.0)
    poster = chain.create_account(10.0, label="poster")
    contract = CheckpointContract(HashChainBeacon(b"fresh-key"), params)
    address = chain.deploy(contract, deployer=poster)
    receipt = chain.transact(
        Transaction(
            sender=poster,
            to=address,
            method="register_instance",
            args=(package.name, package.public.to_bytes(), package.num_chunks),
        )
    )
    assert receipt.success, receipt.error
    verifier = contract._verifier_for(package.name)  # decodes the registered bytes
    challenge = random_challenge(params, rng=rng)
    proof = provider.respond(package.name, challenge)
    assert verifier.verify_private(challenge, proof)


@pytest.mark.skipif(kernel.backend().kernel is None, reason=kernel.backend().describe())
def test_a_fresh_audit_expands_and_encodes_on_kernel_calls(params, monkeypatch):
    """A fresh challenge expanded (the Feistel walk and the PRF), a proof
    encoded to its 288 bytes and decoded back (the GT torus map both ways),
    and a verify: on the native backend none of that reaches ``hmac.new``,
    ``FeistelPrp._round`` or ``Fp6.inverse``."""
    rng = random.Random(0xE4C0)
    owner = DataOwner(params, rng=rng)
    package = owner.prepare(archive_file(600, tag="fresh-audit").data)
    provider = StorageProvider(rng=rng)
    assert provider.accept(package, validate=False)
    verifier = owner.verifier_for(package)
    challenge = random_challenge(params, rng=rng)

    def forbidden(*args, **kwargs):
        raise AssertionError("Python byte work ran on the audit path")

    for owner_of, name in ((hmac, "new"), (FeistelPrp, "_round"), (Fp6, "inverse")):
        monkeypatch.setattr(owner_of, name, forbidden)
    with pytest.raises(AssertionError):
        FeistelPrp(b"live", 5).permute(0)  # the patch is live
    _expand_challenge.cache_clear()
    expanded = challenge.expand(package.num_chunks)
    assert expanded.k == min(params.k, package.num_chunks)
    _expand_challenge.cache_clear()
    proof = provider.respond(package.name, challenge)
    decoded = PrivateProof.from_bytes(proof.to_bytes())
    assert decoded == proof
    _expand_challenge.cache_clear()
    assert verifier.verify_private(challenge, decoded)


# --------------------------------------------------------------------- #
# Loader and probe                                                      #
# --------------------------------------------------------------------- #

def test_first_use_selects_the_backend_without_deadlock(monkeypatch):
    """The probe runs under the non-reentrant ``_backend_lock``: anything
    it calls that asked :func:`kernel.active` would wait on itself."""
    chosen = kernel.backend()
    monkeypatch.setattr(kernel, "_backend", None)
    selected = []
    thread = threading.Thread(
        target=lambda: selected.append(kernel.backend()), daemon=True
    )
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive(), "backend selection deadlocked"
    assert selected[0].describe() == chosen.describe()


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


def test_probe_refuses_a_comb_fault_above_the_second_column():
    """A kernel whose comb pow errs only when a set exponent bit sits at
    column 3 or above: a probe over a 3-tooth, 2-column comb never sees
    it; the probe over the production shape must."""
    real = kernel.active()
    if real is None:
        pytest.skip("the native kernel is not in use on this host")

    class HighColumnFault:
        def __getattr__(self, name):
            return getattr(real, name)

        def gt_fixed_pow(self, table, teeth, columns, exponent):
            value = real.gt_fixed_pow(table, teeth, columns, exponent)
            high = any(
                exponent >> (columns * t + c) & 1
                for t in range(teeth)
                for c in range(3, columns)
            )
            return (value[0] ^ 1, *value[1:]) if high else value

    assert kernel._probe_agrees(real)
    assert not kernel._probe_agrees(HighColumnFault())


# --------------------------------------------------------------------- #
# Packaging                                                             #
# --------------------------------------------------------------------- #

def test_kernel_source_ships_as_package_data():
    """``setup.py`` declaring it is checked, for every ``.c`` under
    src/repro, by tests/storage/test_gf256_kernel.py."""
    source = resources.files("repro.crypto.bn254").joinpath(kernel.SOURCE)
    assert b"bn_miller_loop" in source.read_bytes()
