"""Namespaced Merkle tree (NMT): range-carrying commitments over DA chunks.

The STORAGE_V0 blob-commitment construction: every node carries the
``(min_namespace, max_namespace)`` range of the leaves below it in
addition to its digest, and the builder enforces that leaves arrive in
non-decreasing namespace order.  That ordering invariant is what turns
the tree into a *queryable* commitment — a verifier can check not just
"this chunk is committed" (inclusion) but "no chunk with this namespace
is committed at all" (absence), both against the same 64-byte root.

Layout decisions, all of which verifiers re-check:

* **Namespace** = ``lane_id(8) || epoch(8)`` big-endian (16 bytes), so one
  tree can commit several lanes'/epochs' chunk sets side by side while a
  light client addresses exactly its own.  ``0xff * 16`` is reserved for
  padding and can never be a real namespace.
* **Perfect tree**: leaves are padded with ``(NS_PAD, b"")`` up to the
  next power of two.  Every authentication path therefore has exactly
  ``depth`` steps and the path's direction bits *are* the leaf index in
  binary — verifiers recompute the index from the directions and reject
  proofs that claim a different position.  That position-binding is what
  makes absence proofs sound: adjacency (``left.index + 1 ==
  right.index``) is checked cryptographically, not taken on faith.
* **Domain separation** mirrors :mod:`repro.crypto.merkle`: leaf hashes
  are ``SHA256(0x00 || ns || data)``, node hashes
  ``SHA256(0x01 || l.min || l.max || l.digest || r.min || r.max || r.digest)``.

Hashing only — nothing here touches the pairing layer, which is the point:
a sampling light client verifies chunks at hash speed.
"""

from __future__ import annotations

import hashlib
import operator
from bisect import bisect_right
from dataclasses import dataclass

NAMESPACE_BYTES = 16

#: Reserved padding namespace: compares greater than every real namespace.
NS_PAD = b"\xff" * NAMESPACE_BYTES

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"

#: Wire size of one serialized :class:`NmtRoot` (min || max || digest).
NMT_ROOT_BYTES = 2 * NAMESPACE_BYTES + 32


def make_namespace(lane_id: int, epoch: int) -> bytes:
    """The 16-byte ``lane || epoch`` namespace of one lane's epoch chunks."""
    if not 0 <= lane_id < 2**64:
        raise ValueError("lane_id out of range for an 8-byte namespace half")
    if not 0 <= epoch < 2**64:
        raise ValueError("epoch out of range for an 8-byte namespace half")
    namespace = lane_id.to_bytes(8, "big") + epoch.to_bytes(8, "big")
    if namespace == NS_PAD:
        raise ValueError("namespace reserved for padding")
    return namespace


def split_namespace(namespace: bytes) -> tuple[int, int]:
    """Inverse of :func:`make_namespace`: ``(lane_id, epoch)``."""
    if len(namespace) != NAMESPACE_BYTES:
        raise ValueError(f"namespace must be {NAMESPACE_BYTES} bytes")
    return (
        int.from_bytes(namespace[:8], "big"),
        int.from_bytes(namespace[8:], "big"),
    )


def _hash_leaf(namespace: bytes, data: bytes) -> bytes:
    return hashlib.sha256(_LEAF_PREFIX + namespace + data).digest()


#: One leaf or interior node: ``(min_ns, max_ns, digest)``, the same
#: triple a proof carries per sibling.
Node = tuple[bytes, bytes, bytes]


def _hash_node(left: Node, right: Node) -> Node:
    digest = hashlib.sha256(b"".join((_NODE_PREFIX, *left, *right))).digest()
    return (left[0], right[1], digest)


@dataclass(frozen=True)
class NmtRoot:
    """The 64-byte commitment: full namespace range plus root digest."""

    min_ns: bytes
    max_ns: bytes
    digest: bytes

    def __post_init__(self) -> None:
        if len(self.min_ns) != NAMESPACE_BYTES or len(self.max_ns) != NAMESPACE_BYTES:
            raise ValueError("root namespace bounds must be namespace-sized")
        if len(self.digest) != 32:
            raise ValueError("root digest must be 32 bytes")

    def to_bytes(self) -> bytes:
        return self.min_ns + self.max_ns + self.digest

    @staticmethod
    def from_bytes(data: bytes) -> "NmtRoot":
        if len(data) != NMT_ROOT_BYTES:
            raise ValueError(f"NMT root must be {NMT_ROOT_BYTES} bytes")
        return NmtRoot(
            min_ns=bytes(data[:NAMESPACE_BYTES]),
            max_ns=bytes(data[NAMESPACE_BYTES : 2 * NAMESPACE_BYTES]),
            digest=bytes(data[2 * NAMESPACE_BYTES :]),
        )


@dataclass(frozen=True)
class NmtProof:
    """Authentication path for one chunk, position-bound.

    ``siblings[i]`` is the sibling's ``(min_ns, max_ns, digest)`` triple at
    depth ``i`` (leaf side first); ``directions[i]`` is True when the
    running node is the *right* child — so the direction bits read off as
    the little-endian binary expansion of ``leaf_index``, which verifiers
    enforce.
    """

    leaf_index: int
    namespace: bytes
    leaf_data: bytes
    siblings: tuple[tuple[bytes, bytes, bytes], ...]
    directions: tuple[bool, ...]

    def byte_size(self) -> int:
        """Wire size: what a sampling client downloads besides the chunk."""
        per_sibling = 2 * NAMESPACE_BYTES + 32
        return (
            8
            + NAMESPACE_BYTES
            + len(self.leaf_data)
            + per_sibling * len(self.siblings)
            + len(self.directions)
        )

    def to_object(self) -> dict:
        """JSON-friendly form (hex strings), for the RPC surface."""
        return {
            "leaf_index": self.leaf_index,
            "namespace": self.namespace.hex(),
            "leaf_data": self.leaf_data.hex(),
            "siblings": [
                [mn.hex(), mx.hex(), digest.hex()]
                for mn, mx, digest in self.siblings
            ],
            "directions": list(self.directions),
        }

    @staticmethod
    def from_object(obj: dict) -> "NmtProof":
        """Inverse of :meth:`to_object`.  A missing key, a wrong type or a
        bad hex string raises one ``ValueError`` naming the field."""

        def decoded(key, decode):
            try:
                return decode(obj[key])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"NMT proof field {key!r}: {exc!r}") from None

        return NmtProof(
            leaf_index=decoded("leaf_index", operator.index),
            namespace=decoded("namespace", bytes.fromhex),
            leaf_data=decoded("leaf_data", bytes.fromhex),
            siblings=decoded("siblings", lambda rows: tuple(
                (bytes.fromhex(mn), bytes.fromhex(mx), bytes.fromhex(digest))
                for mn, mx, digest in rows
            )),
            directions=decoded("directions", lambda bits: tuple(map(bool, bits))),
        )


@dataclass(frozen=True)
class NmtAbsenceProof:
    """Proof that no leaf carries ``namespace``.

    ``right`` opens the *first* leaf whose namespace sorts strictly above
    the absent one; ``left`` opens its immediate predecessor (omitted when
    ``right`` sits at index 0).  Both are position-bound, so the verifier
    can check they really straddle the queried namespace with nothing in
    between.  ``right`` may be None only when the namespace sorts above
    the whole committed range — then the root's ``max_ns`` alone decides.
    """

    namespace: bytes
    right: NmtProof | None
    left: NmtProof | None


class NamespacedMerkleTree:
    """NMT over ``(namespace, chunk)`` leaves, padded to a perfect tree."""

    def __init__(self, leaves: list[tuple[bytes, bytes]]):
        if not leaves:
            raise ValueError("cannot build an NMT with no leaves")
        previous: bytes | None = None
        for namespace, _ in leaves:
            if len(namespace) != NAMESPACE_BYTES:
                raise ValueError(
                    f"namespace must be {NAMESPACE_BYTES} bytes"
                )
            if namespace == NS_PAD:
                raise ValueError("namespace reserved for padding")
            if previous is not None and namespace < previous:
                raise ValueError(
                    "namespace ordering violated: leaves must be sorted"
                )
            previous = namespace
        self.num_leaves = len(leaves)
        padded_size = 1
        while padded_size < len(leaves):
            padded_size *= 2
        self._leaves: list[tuple[bytes, bytes]] = list(leaves) + [
            (NS_PAD, b"") for _ in range(padded_size - len(leaves))
        ]
        level = [(ns, ns, _hash_leaf(ns, data)) for ns, data in self._leaves]
        self.levels: list[list[Node]] = [level]
        while len(level) > 1:
            level = list(map(_hash_node, level[::2], level[1::2]))
            self.levels.append(level)

    @property
    def padded_size(self) -> int:
        return len(self._leaves)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def root(self) -> NmtRoot:
        return NmtRoot(*self.levels[-1][0])

    def prove(self, leaf_index: int) -> NmtProof:
        """Position-bound inclusion proof (pad leaves are provable too)."""
        if not 0 <= leaf_index < self.padded_size:
            raise IndexError(f"leaf {leaf_index} out of range")
        namespace, data = self._leaves[leaf_index]
        siblings = []
        directions = []
        index = leaf_index
        for level in self.levels[:-1]:
            siblings.append(level[index ^ 1])
            directions.append(bool(index & 1))
            index >>= 1
        return NmtProof(
            leaf_index=leaf_index,
            namespace=namespace,
            leaf_data=data,
            siblings=tuple(siblings),
            directions=tuple(directions),
        )

    def prove_absence(self, namespace: bytes) -> NmtAbsenceProof:
        """Straddle proof that ``namespace`` is committed nowhere."""
        if len(namespace) != NAMESPACE_BYTES:
            raise ValueError(f"namespace must be {NAMESPACE_BYTES} bytes")
        if namespace == NS_PAD:
            raise ValueError("padding namespace has no absence proof")
        ordered = [ns for ns, _ in self._leaves]
        pivot = bisect_right(ordered, namespace)
        if pivot and ordered[pivot - 1] == namespace:
            raise ValueError("namespace is present; prove inclusion instead")
        if pivot == self.padded_size:
            # Above the whole committed range (only reachable when the
            # real leaf count is an exact power of two: no pad leaves).
            return NmtAbsenceProof(namespace=namespace, right=None, left=None)
        right = self.prove(pivot)
        left = self.prove(pivot - 1) if pivot else None
        return NmtAbsenceProof(namespace=namespace, right=right, left=left)


def _index_of(directions: tuple[bool, ...]) -> int:
    """The leaf index a direction path encodes (perfect trees only)."""
    index = 0
    for depth, is_right in enumerate(directions):
        if is_right:
            index |= 1 << depth
    return index


def verify_nmt_proof(root: NmtRoot, proof: NmtProof) -> bool:
    """Stateless inclusion check: digest, namespace ranges AND position.

    Beyond the ordinary digest walk, this enforces the two NMT-specific
    invariants a sampling client relies on:

    * every step's sibling range must respect the left-to-right namespace
      ordering (a tree that lies about ranges is rejected even if its
      digests chain correctly), and
    * the direction bits must encode exactly ``proof.leaf_index``, so a
      prover cannot serve chunk j under the name of sampled index i.
    """
    if len(proof.siblings) != len(proof.directions):
        return False
    if len(proof.namespace) != NAMESPACE_BYTES:
        return False
    if _index_of(proof.directions) != proof.leaf_index:
        return False
    namespace = proof.namespace
    current = (namespace, namespace, _hash_leaf(namespace, proof.leaf_data))
    for sibling, is_right in zip(proof.siblings, proof.directions):
        sib_min, sib_max, sib_digest = sibling
        if len(sib_min) != NAMESPACE_BYTES or len(sib_max) != NAMESPACE_BYTES:
            return False
        if sib_min > sib_max or len(sib_digest) != 32:
            return False
        if is_right:
            if sib_max > current[0]:
                return False  # left sibling must not exceed our range
            current = _hash_node(sibling, current)
        else:
            if current[1] > sib_min:
                return False  # right sibling must not undercut our range
            current = _hash_node(current, sibling)
    return current == (root.min_ns, root.max_ns, root.digest)


def verify_nmt_absence(root: NmtRoot, proof: NmtAbsenceProof) -> bool:
    """Check a straddle proof: the namespace falls in a committed gap."""
    namespace = proof.namespace
    if len(namespace) != NAMESPACE_BYTES or namespace == NS_PAD:
        return False
    if proof.right is None:
        # Nothing sorts above it: sound only when the root says so.
        return proof.left is None and namespace > root.max_ns
    if not verify_nmt_proof(root, proof.right):
        return False
    if proof.right.namespace <= namespace:
        return False
    if proof.right.leaf_index == 0:
        # First leaf already sorts above the namespace: nothing precedes.
        return proof.left is None
    if proof.left is None:
        return False
    if not verify_nmt_proof(root, proof.left):
        return False
    if proof.left.leaf_index + 1 != proof.right.leaf_index:
        return False
    return proof.left.namespace < namespace
