"""The one pairing product behind Eq. (1), Eq. (2) and batch auditing.

``verify_plain``, ``verify_private`` and ``verify_batch_grouped`` are three
callers of :func:`repro.core.verifier.pairing_product_check`; these tests
hold them to each other (a batch is accepted iff every proof is, over a
cold process cache and over one warmed by an identical run) and pin the rejection diagnostics — which reach
``reject_detail`` and therefore ``state_hash`` — to literals captured at
the commit before the three equations were folded into one.
"""

from __future__ import annotations

import ast
import dataclasses
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core import (
    BatchItem,
    Challenge,
    DataOwner,
    ProtocolParams,
    Prover,
    Verifier,
    random_challenge,
    verify_batch_grouped,
)
from repro.core.verifier import Statement, pairing_product_check
from repro.crypto.bn254 import G1Point, PROCESS_CACHE

PARAMS = ProtocolParams(s=3, k=2)

TAMPERS = ("flip-y", "swap-sigma", "sigma-infinity", "psi-infinity")


@pytest.fixture(scope="module")
def pool():
    """2 owners x 2 files: (package, challenge, private proof, plain proof)."""
    rng = random.Random(1400)
    entries = []
    for owner_index in range(2):
        owner = DataOwner(PARAMS, rng=rng)
        for file_index in range(2):
            package = owner.prepare(
                bytes([16 * owner_index + file_index + 1]) * 300,
                fresh_keypair=file_index == 0,
            )
            prover = Prover(
                package.chunked, package.public, list(package.authenticators), rng=rng
            )
            challenge = random_challenge(PARAMS, rng=rng)
            entries.append(
                (
                    package,
                    challenge,
                    prover.respond_private(challenge),
                    prover.respond_plain(challenge),
                )
            )
    return entries


def _tamper(proof, kind, y_field, other_sigma):
    if kind == "flip-y":
        return dataclasses.replace(proof, **{y_field: getattr(proof, y_field) ^ 1})
    if kind == "swap-sigma":
        return dataclasses.replace(proof, sigma=other_sigma)
    if kind == "sigma-infinity":
        return dataclasses.replace(proof, sigma=G1Point.infinity())
    return dataclasses.replace(proof, psi=G1Point.infinity())


def _cold_or_warm(cached, run):
    """``run()`` over a cold process cache, or over the cache an identical
    previous run left behind — which must answer what the cold run did."""
    PROCESS_CACHE.clear()
    cold = run()
    if not cached:
        return cold
    warm = run()
    assert warm == cold
    return warm


#: Which pool entries to audit (repeats allowed: one file, two rounds) and
#: how each is tampered with (``None`` = honest).
_PICKS = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from((None, None) + TAMPERS)),
    min_size=1,
    max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(picks=_PICKS, cached=st.booleans(), seed=st.integers(0, 2**32))
def test_batch_accepts_iff_every_private_proof_does(pool, picks, cached, seed):
    items = []
    for index, kind in picks:
        package, challenge, proof, _ = pool[index]
        if kind is not None:
            proof = _tamper(proof, kind, "y_masked", pool[index - 1][2].sigma)
        items.append(
            BatchItem(
                package.public, package.name, package.num_chunks, challenge, proof
            )
        )
    tampered = [i for i, (_, kind) in enumerate(picks) if kind is not None]

    def run():
        singles = [
            Verifier(item.public, item.name, item.num_chunks).verify_private(
                item.challenge, item.proof
            )
            for item in items
        ]
        return singles, verify_batch_grouped(items, rng=random.Random(seed))

    singles, outcome = _cold_or_warm(cached, run)
    assert [i for i, ok in enumerate(singles) if not ok] == tampered
    assert bool(outcome) == all(singles)
    assert outcome.checked == len(items)
    rejections = outcome.failures
    assert [r.index for r in rejections] == tampered
    assert [r.name for r in rejections] == [items[i].name for i in tampered]
    assert [r.reason for r in rejections] == [singles[i].reason for i in tampered]
    assert pickle.loads(pickle.dumps(outcome)) == outcome


@settings(max_examples=15, deadline=None)
@given(picks=_PICKS, cached=st.booleans(), seed=st.integers(0, 2**32))
def test_eq1_batch_accepts_iff_every_plain_proof_does(pool, picks, cached, seed):
    """The Eq. (1) twin: the same kernel with ``zeta = 1`` and no ``R``."""

    def run():
        rng = random.Random(seed)
        statements, singles = [], []
        for position, (index, kind) in enumerate(picks):
            package, challenge, _, proof = pool[index]
            if kind is not None:
                proof = _tamper(proof, kind, "y", pool[index - 1][3].sigma)
            singles.append(
                Verifier(
                    package.public, package.name, package.num_chunks
                ).verify_plain(challenge, proof)
            )
            statements.append(
                Statement(
                    package.public,
                    package.name,
                    challenge.expand(package.num_chunks),
                    proof.sigma,
                    proof.y,
                    proof.psi,
                    rho=1 if position == 0 else rng.getrandbits(128) | 1,
                )
            )
        return singles, pairing_product_check(statements)[0]

    singles, accepted = _cold_or_warm(cached, run)
    assert [not ok for ok in singles] == [kind is not None for _, kind in picks]
    assert accepted == all(singles)


class TestRejectionDiagnosticsKnownAnswers:
    """Full ``describe()`` strings captured at the parent of this change:
    labels, order and every residual fingerprint."""

    EQ1 = (
        "pairing-mismatch [Eq.1] product of pairings != 1 residuals: "
        "sigma*g2=752f6d690461, (y,chi,r*psi)*epsilon=8e8ef956883b, "
        "psi*delta=2f0765a35df5"
    )
    EQ2 = (
        "pairing-mismatch [Eq.2] product of pairings * R != 1 residuals: "
        "zeta*sigma*g2=89b39e1ad9bd, (y',chi,r*psi)*epsilon=078b85f4f135, "
        "zeta*psi*delta=a63ac33ae937, commitment-R=014f53f689b3"
    )
    #: A registered key may be degenerate (alpha = 1 gives delta == epsilon);
    #: the diagnostics still name three legs.
    EQ2_DELTA_IS_EPSILON = (
        "pairing-mismatch [Eq.2] product of pairings * R != 1 residuals: "
        "zeta*sigma*g2=89b39e1ad9bd, (y',chi,r*psi)*epsilon=eda009b260ff, "
        "zeta*psi*delta=4332de661cfd, commitment-R=014f53f689b3"
    )

    @pytest.fixture(scope="class")
    def transcript(self):
        params = ProtocolParams(s=4, k=3)
        package = DataOwner(params, rng=random.Random(1401)).prepare(
            bytes(range(200)) * 3
        )
        challenge = Challenge.from_bytes(bytes(range(48)), k=params.k)
        prover = Prover(
            package.chunked,
            package.public,
            list(package.authenticators),
            rng=random.Random(1402),  # pins the Sigma nonce
        )
        return (
            package,
            challenge,
            prover.respond_plain(challenge),
            prover.respond_private(challenge),
        )

    @pytest.mark.parametrize("cached", [False, True])
    def test_describe_strings_are_pinned(self, transcript, cached):
        package, challenge, plain, private = transcript
        verifier = Verifier(package.public, package.name, package.num_chunks)
        degenerate = Verifier(
            dataclasses.replace(package.public, delta=package.public.epsilon),
            package.name,
            package.num_chunks,
        )
        bad_plain = dataclasses.replace(plain, y=plain.y + 1)
        bad_private = dataclasses.replace(private, y_masked=private.y_masked + 1)

        def run():
            assert verifier.verify_plain(challenge, plain)
            assert verifier.verify_private(challenge, private)
            return (
                verifier.verify_plain(challenge, bad_plain).reason.describe(),
                verifier.verify_private(challenge, bad_private).reason.describe(),
                degenerate.verify_private(challenge, private).reason.describe(),
            )

        assert _cold_or_warm(cached, run) == (
            self.EQ1,
            self.EQ2,
            self.EQ2_DELTA_IS_EPSILON,
        )


def _functions(tree):
    """Every (qualified name, node) function definition in a module."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    yield name, child
                yield from walk(child, name + ".")
    return walk(tree, "")


def _own_nodes(function):
    """The nodes of ``function``'s body, nested definitions excluded."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_one_pairing_product_and_one_msm_gate():
    """The equation is written once, and so is the hot-path profiling gate:
    exactly one function in the package reads ``HOTPATH.enabled``."""
    src = Path(repro.__file__).parent
    pairing_callers = set()
    gates = []
    for path in sorted(src.rglob("*.py")):
        relative = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text())
        if relative.startswith(("core/", "engine/")):
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if callee in ("final_exponentiation", "miller_loop_product"):
                        pairing_callers.add(relative)
        for name, function in _functions(tree):
            if any(
                isinstance(node, ast.Attribute)
                and node.attr == "enabled"
                and getattr(node.value, "id", None) == "HOTPATH"
                for node in _own_nodes(function)
            ):
                gates.append(f"{relative}:{name}")
    assert pairing_callers == {"core/verifier.py"}
    assert gates == ["obs/hotpath.py:profiled.decorate.gate"]
