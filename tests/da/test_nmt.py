"""Namespaced Merkle tree properties: ordering, inclusion, absence, tamper.

The acceptance property: every chunk a sampling client accepts opened
against the committed 64-byte root at the exact sampled position under
the exact lane‖epoch namespace — and every tamper class (flipped chunk
bytes, substituted namespace, truncated path, relabeled position, lying
sibling ranges) is rejected by the stateless verifier.
"""

from __future__ import annotations

import pytest

from repro.da.nmt import (
    NAMESPACE_BYTES,
    NMT_ROOT_BYTES,
    NS_PAD,
    NamespacedMerkleTree,
    NmtAbsenceProof,
    NmtProof,
    NmtRoot,
    make_namespace,
    split_namespace,
    verify_nmt_absence,
    verify_nmt_proof,
)


def leaves_for(lane_epochs, payload=b"chunk"):
    """Sorted (namespace, data) leaves for a list of (lane, epoch) pairs."""
    return [
        (make_namespace(lane, epoch), payload + bytes([i]))
        for i, (lane, epoch) in enumerate(lane_epochs)
    ]


# --------------------------------------------------------------------- #
# Namespaces                                                            #
# --------------------------------------------------------------------- #

def test_namespace_roundtrip_and_ordering():
    ns = make_namespace(3, 7)
    assert len(ns) == NAMESPACE_BYTES
    assert split_namespace(ns) == (3, 7)
    # lane is the high half: lane ordering dominates epoch ordering.
    assert make_namespace(1, 2**40) < make_namespace(2, 0)
    assert make_namespace(0, 5) < make_namespace(0, 6)


def test_namespace_rejects_pad_and_out_of_range():
    with pytest.raises(ValueError, match="reserved for padding"):
        make_namespace(2**64 - 1, 2**64 - 1)
    with pytest.raises(ValueError, match="lane_id out of range"):
        make_namespace(2**64, 0)
    with pytest.raises(ValueError, match="epoch out of range"):
        make_namespace(0, -1)
    with pytest.raises(ValueError, match="must be"):
        split_namespace(b"\x00" * 7)


# --------------------------------------------------------------------- #
# Construction invariants                                               #
# --------------------------------------------------------------------- #

def test_empty_tree_rejected():
    with pytest.raises(ValueError, match="no leaves"):
        NamespacedMerkleTree([])


def test_ordering_invariant_enforced():
    good = leaves_for([(0, 0), (0, 1), (1, 0)])
    NamespacedMerkleTree(good)  # sorted: fine
    with pytest.raises(ValueError, match="namespace ordering violated"):
        NamespacedMerkleTree([good[2], good[0], good[1]])


def test_pad_namespace_cannot_be_a_real_leaf():
    with pytest.raises(ValueError, match="reserved for padding"):
        NamespacedMerkleTree([(NS_PAD, b"smuggled")])


def test_wrong_size_namespace_rejected():
    with pytest.raises(ValueError, match="namespace must be"):
        NamespacedMerkleTree([(b"\x00" * 8, b"x")])


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 7, 8, 9])
def test_padding_to_perfect_tree(count):
    tree = NamespacedMerkleTree(leaves_for([(0, e) for e in range(count)]))
    assert tree.num_leaves == count
    assert tree.padded_size >= count
    assert tree.padded_size & (tree.padded_size - 1) == 0  # power of two
    assert tree.depth == tree.padded_size.bit_length() - 1
    root = tree.root
    assert root.min_ns == make_namespace(0, 0)
    # max range is NS_PAD exactly when padding leaves exist.
    if tree.padded_size > count:
        assert root.max_ns == NS_PAD
    else:
        assert root.max_ns == make_namespace(0, count - 1)


# --------------------------------------------------------------------- #
# Inclusion proofs                                                      #
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 11])
def test_every_leaf_proves_and_verifies(count):
    tree = NamespacedMerkleTree(
        leaves_for([(lane, 2 * lane) for lane in range(count)])
    )
    for index in range(tree.padded_size):  # pad leaves are provable too
        proof = tree.prove(index)
        assert proof.leaf_index == index
        assert len(proof.siblings) == tree.depth
        assert verify_nmt_proof(tree.root, proof)


def test_prove_out_of_range():
    tree = NamespacedMerkleTree(leaves_for([(0, 0), (0, 1)]))
    with pytest.raises(IndexError):
        tree.prove(tree.padded_size)
    with pytest.raises(IndexError):
        tree.prove(-1)


def test_proof_json_roundtrip():
    tree = NamespacedMerkleTree(leaves_for([(0, e) for e in range(5)]))
    proof = tree.prove(3)
    restored = NmtProof.from_object(proof.to_object())
    assert restored == proof
    assert verify_nmt_proof(tree.root, restored)
    assert restored.byte_size() == proof.byte_size()


@pytest.mark.parametrize(
    "field, value",
    [
        ("leaf_index", "3"),
        ("leaf_index", None),
        ("namespace", "zz"),
        ("leaf_data", 17),
        ("siblings", 7),
        ("siblings", [["00", "00"]]),
        ("siblings", [["00", "00", "not hex"]]),
        ("directions", None),
    ],
)
def test_malformed_proof_object_names_the_field(field, value):
    obj = NamespacedMerkleTree(leaves_for([(0, 0), (0, 1)])).prove(1).to_object()
    obj[field] = value
    with pytest.raises(ValueError, match=field):
        NmtProof.from_object(obj)
    del obj[field]
    with pytest.raises(ValueError, match=field):
        NmtProof.from_object(obj)


def test_root_wire_roundtrip():
    tree = NamespacedMerkleTree(leaves_for([(4, 2), (4, 3)]))
    root = tree.root
    encoded = root.to_bytes()
    assert len(encoded) == NMT_ROOT_BYTES
    assert NmtRoot.from_bytes(encoded) == root
    with pytest.raises(ValueError, match="must be"):
        NmtRoot.from_bytes(encoded[:-1])


# --------------------------------------------------------------------- #
# Tamper classes                                                        #
# --------------------------------------------------------------------- #

@pytest.fixture()
def tree_and_proof():
    tree = NamespacedMerkleTree(leaves_for([(1, e) for e in range(6)]))
    return tree, tree.prove(2)


def _mutate(proof: NmtProof, **changes) -> NmtProof:
    fields = {
        "leaf_index": proof.leaf_index,
        "namespace": proof.namespace,
        "leaf_data": proof.leaf_data,
        "siblings": proof.siblings,
        "directions": proof.directions,
    }
    fields.update(changes)
    return NmtProof(**fields)


def test_flipped_chunk_data_rejected(tree_and_proof):
    tree, proof = tree_and_proof
    data = bytearray(proof.leaf_data)
    data[0] ^= 0x01
    assert not verify_nmt_proof(tree.root, _mutate(proof, leaf_data=bytes(data)))


def test_wrong_namespace_rejected(tree_and_proof):
    tree, proof = tree_and_proof
    assert not verify_nmt_proof(
        tree.root, _mutate(proof, namespace=make_namespace(9, 9))
    )


def test_truncated_proof_rejected(tree_and_proof):
    tree, proof = tree_and_proof
    truncated = _mutate(
        proof,
        siblings=proof.siblings[:-1],
        directions=proof.directions[:-1],
    )
    assert not verify_nmt_proof(tree.root, truncated)
    # Mismatched sibling/direction counts are rejected outright.
    assert not verify_nmt_proof(
        tree.root, _mutate(proof, siblings=proof.siblings[:-1])
    )


def test_relabeled_position_rejected(tree_and_proof):
    """A prover cannot serve chunk 2 under the name of sampled index 5."""
    tree, proof = tree_and_proof
    assert not verify_nmt_proof(tree.root, _mutate(proof, leaf_index=5))


def test_position_swap_between_real_leaves_rejected():
    tree = NamespacedMerkleTree(leaves_for([(1, e) for e in range(4)]))
    stolen = tree.prove(1)
    # Claim leaf 1's path belongs to index 2 by relabeling + redirecting:
    # directions no longer encode the claimed index, or the digest walk
    # lands elsewhere. Either way the verifier refuses.
    forged = _mutate(stolen, leaf_index=2)
    assert not verify_nmt_proof(tree.root, forged)
    forged = _mutate(stolen, leaf_index=2, directions=(False, True))
    assert not verify_nmt_proof(tree.root, forged)


def test_tampered_sibling_digest_rejected(tree_and_proof):
    tree, proof = tree_and_proof
    mn, mx, digest = proof.siblings[0]
    bad = ((mn, mx, bytes(32)),) + proof.siblings[1:]
    assert not verify_nmt_proof(tree.root, _mutate(proof, siblings=bad))


def test_lying_sibling_ranges_rejected(tree_and_proof):
    """Digest-correct trees that misreport ranges are still rejected."""
    tree, proof = tree_and_proof
    mn, mx, digest = proof.siblings[-1]
    # Claim the last sibling's range undercuts ours (ordering violation).
    bad = proof.siblings[:-1] + ((b"\x00" * 16, b"\x00" * 16, digest),)
    tampered = _mutate(proof, siblings=bad)
    # proof at index 2 has a final right-side sibling; range check fires
    # before the digest comparison could.
    assert not verify_nmt_proof(tree.root, tampered)
    # Inverted (min > max) ranges are malformed outright.
    bad = ((mx, mn, digest),) if mx != mn else None
    if bad is not None:
        tampered = _mutate(proof, siblings=bad + proof.siblings[1:])
        assert not verify_nmt_proof(tree.root, tampered)


def test_proof_against_wrong_root_rejected():
    tree_a = NamespacedMerkleTree(leaves_for([(0, e) for e in range(4)]))
    tree_b = NamespacedMerkleTree(
        leaves_for([(0, e) for e in range(4)], payload=b"other")
    )
    proof = tree_a.prove(0)
    assert verify_nmt_proof(tree_a.root, proof)
    assert not verify_nmt_proof(tree_b.root, proof)


# --------------------------------------------------------------------- #
# Absence proofs                                                        #
# --------------------------------------------------------------------- #

def test_absence_in_a_gap_verifies():
    tree = NamespacedMerkleTree(leaves_for([(0, 0), (0, 2), (0, 5)]))
    for lane, epoch in [(0, 1), (0, 3), (0, 4)]:
        absent = make_namespace(lane, epoch)
        proof = tree.prove_absence(absent)
        assert verify_nmt_absence(tree.root, proof)
        assert proof.left is not None and proof.right is not None
        assert proof.left.leaf_index + 1 == proof.right.leaf_index


def test_absence_below_the_committed_range():
    tree = NamespacedMerkleTree(leaves_for([(2, 0), (2, 1)]))
    proof = tree.prove_absence(make_namespace(1, 99))
    assert proof.left is None and proof.right is not None
    assert proof.right.leaf_index == 0
    assert verify_nmt_absence(tree.root, proof)


def test_absence_above_the_range_straddles_padding():
    tree = NamespacedMerkleTree(leaves_for([(0, 0), (0, 1), (0, 2)]))
    # 3 leaves pad to 4: the straddle's right side is a pad leaf.
    proof = tree.prove_absence(make_namespace(0, 9))
    assert proof.right is not None
    assert proof.right.namespace == NS_PAD
    assert verify_nmt_absence(tree.root, proof)


def test_absence_above_a_full_tree_uses_the_root_bound():
    tree = NamespacedMerkleTree(leaves_for([(0, e) for e in range(4)]))
    proof = tree.prove_absence(make_namespace(7, 7))
    assert proof.right is None and proof.left is None
    assert verify_nmt_absence(tree.root, proof)
    # The same empty proof fails against a root whose range covers it.
    taller = NamespacedMerkleTree(leaves_for([(7, e) for e in range(8)]))
    assert not verify_nmt_absence(taller.root, proof)


def test_absence_of_a_present_namespace_refused():
    tree = NamespacedMerkleTree(leaves_for([(0, 0), (0, 1)]))
    with pytest.raises(ValueError, match="namespace is present"):
        tree.prove_absence(make_namespace(0, 1))
    with pytest.raises(ValueError, match="padding namespace"):
        tree.prove_absence(NS_PAD)


def test_forged_absence_of_a_present_namespace_rejected():
    """A straddle built from non-adjacent leaves does not verify."""
    tree = NamespacedMerkleTree(leaves_for([(0, 0), (0, 1), (0, 2), (0, 3)]))
    forged = NmtAbsenceProof(
        namespace=make_namespace(0, 1),  # actually present at index 1
        left=tree.prove(0),
        right=tree.prove(2),
    )
    assert not verify_nmt_absence(tree.root, forged)


def test_absence_proof_sides_must_really_straddle():
    tree = NamespacedMerkleTree(leaves_for([(0, 0), (0, 2), (0, 4), (0, 6)]))
    honest = tree.prove_absence(make_namespace(0, 3))
    # Shifting the straddle one position left breaks adjacency/range.
    shifted = NmtAbsenceProof(
        namespace=honest.namespace,
        left=tree.prove(0),
        right=tree.prove(1),
    )
    assert not verify_nmt_absence(tree.root, shifted)
