"""Storage nodes and the owner-side DSN client (paper Fig. 1, bottom half).

``StorageNode`` is one provider: shard storage keyed by (file, index) plus
the provider's DHT identity.  ``DsnClient`` is the data owner's pipeline —
exactly the Section III-A sequence::

    chunk -> encrypt (mandatory) -> erasure-code -> DHT lookup -> distribute

Retrieval gathers any k surviving shards, decodes, authenticates and
decrypts.  All traffic passes through the :class:`SimulatedNetwork`, so
injected crashes and partitions genuinely break fetches.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .dht import ChordRing
from .encryption import EncryptedFile, decrypt_file, encrypt_file, generate_key
from .erasure import ReedSolomonCode, Shard
from .manifest import FileManifest, ShardLocation
from .network import NetworkError, SimulatedNetwork
from .placement import RingPlacement


def _checksum(data: bytes) -> bytes:
    return hashlib.sha256(b"SHARD" + data).digest()[:16]


class DataLoss(RuntimeError):
    """Fewer than k healthy shards of a file survive anywhere.

    Unlike a shortfall of replacement providers or of repair sources (a
    plain :class:`RuntimeError`, worth retrying once other shards have
    been regenerated) this does not heal; callers record the loss.
    """

    def __init__(self, file_id: str, healthy: int, needed: int):
        super().__init__(
            f"{file_id} is lost: {healthy} healthy shards survive, "
            f"need {needed} to decode"
        )
        self.file_id = file_id
        self.healthy = healthy
        self.needed = needed


@dataclass
class StorageNode:
    """One storage provider's disk + network identity."""

    name: str
    capacity_bytes: int = 1 << 30
    _shards: dict[tuple[str, int], bytes] = field(default_factory=dict)

    @property
    def used_bytes(self) -> int:
        return sum(len(v) for v in self._shards.values())

    def put(self, file_id: str, index: int, data: bytes) -> bool:
        if self.used_bytes + len(data) > self.capacity_bytes:
            return False
        self._shards[(file_id, index)] = bytes(data)
        return True

    def get(self, file_id: str, index: int) -> bytes | None:
        return self._shards.get((file_id, index))

    def delete(self, file_id: str, index: int) -> None:
        self._shards.pop((file_id, index), None)

    def drop_file(self, file_id: str) -> int:
        """Delete every shard of a file (misbehaviour injection)."""
        keys = [k for k in self._shards if k[0] == file_id]
        for key in keys:
            del self._shards[key]
        return len(keys)

    # -- byzantine fault injection (repro.adversary scenarios) -------------

    def corrupt_shard(self, file_id: str, index: int, flip_byte: int = 0) -> bool:
        """Bit-rot one stored shard in place; True if it existed.

        Retrieval detects this through the manifest checksum and skips the
        shard, the same way a failed audit flags the provider.
        """
        data = self._shards.get((file_id, index))
        if data is None:
            return False
        position = flip_byte % len(data)
        mutated = bytearray(data)
        mutated[position] ^= 0xFF
        self._shards[(file_id, index)] = bytes(mutated)
        return True


class DsnCluster:
    """A set of storage nodes joined into one DHT ring + network fabric."""

    def __init__(self, network: SimulatedNetwork | None = None, dht_bits: int = 16):
        self.network = network or SimulatedNetwork()
        self.ring = ChordRing(bits=dht_bits)
        self.nodes: dict[str, StorageNode] = {}

    def add_node(self, name: str, capacity_bytes: int = 1 << 30) -> StorageNode:
        node = StorageNode(name=name, capacity_bytes=capacity_bytes)
        self.nodes[name] = node
        self.ring.join(name)
        return node

    def remove_node(self, name: str) -> None:
        self.nodes.pop(name, None)
        self.ring.leave(name)

    def node(self, name: str) -> StorageNode:
        return self.nodes[name]

    def healthy_shard(self, file_id: str, location: ShardLocation) -> bytes | None:
        """The shard ``location`` names, if its node still holds it and its
        checksum matches the manifest's; None if it is lost or corrupted."""
        node = self.nodes.get(location.provider)
        data = node.get(file_id, location.shard_index) if node else None
        return data if data is not None and _checksum(data) == location.checksum else None


class DsnClient:
    """The data owner's storage client."""

    def __init__(self, owner_name: str, cluster: DsnCluster):
        self.owner_name = owner_name
        self.cluster = cluster
        self.keys: dict[str, bytes] = {}  # file_id -> encryption key

    def store(
        self,
        file_id: str,
        plaintext: bytes,
        n: int = 10,
        k: int = 3,
        key_mode: str = "random",
        strategy=None,
    ) -> FileManifest:
        """Encrypt, erasure-code and place shards on n distinct providers.

        ``strategy`` is a :class:`~repro.storage.placement.PlacementStrategy`
        ordering the candidates (ring successors of the file key when None,
        e.g. best-reputation-first otherwise); a provider that declines a
        shard is skipped.
        """
        key = generate_key(plaintext if key_mode == "convergent" else None, key_mode)  # type: ignore[arg-type]
        self.keys[file_id] = key
        encrypted = encrypt_file(plaintext, key, key_mode)  # type: ignore[arg-type]
        code = ReedSolomonCode(n, k)
        shards = code.encode(encrypted.ciphertext)
        manifest = FileManifest(
            file_id=file_id,
            plaintext_length=len(plaintext),
            ciphertext_length=len(encrypted.ciphertext),
            erasure_n=n,
            erasure_k=k,
            key_mode=key_mode,
            nonce=encrypted.nonce,
            tag=encrypted.tag,
        )
        manifest.shards = self._place(
            file_id,
            shards,
            self._ordering(file_id, n, strategy),
            "ran out of providers during placement",
        )
        return manifest

    def _ordering(self, file_id: str, n: int, strategy) -> list[str]:
        """Candidate providers for ``n`` shards, most preferred first."""
        return (strategy or RingPlacement()).select(self.cluster, file_id, n)

    def _place(
        self,
        file_id: str,
        shards: list[Shard],
        candidates: list[str],
        exhausted: str,
    ) -> list[ShardLocation]:
        """Put each shard on the next candidate that accepts it."""
        remaining = iter(candidates)
        placed = []
        for shard in shards:
            for target in remaining:
                self.cluster.network.send(self.owner_name, target, len(shard.data))
                if self.cluster.node(target).put(file_id, shard.index, shard.data):
                    break
            else:
                raise RuntimeError(exhausted)
            placed.append(
                ShardLocation(
                    shard_index=shard.index,
                    provider=target,
                    checksum=_checksum(shard.data),
                )
            )
        return placed

    def retrieve(self, manifest: FileManifest) -> bytes:
        """Fetch any k healthy shards, decode, authenticate, decrypt."""
        code = ReedSolomonCode(manifest.erasure_n, manifest.erasure_k)
        collected: list[Shard] = []
        for location in manifest.shards:
            if len(collected) >= manifest.erasure_k:
                break
            try:
                self.cluster.network.send(
                    self.owner_name, location.provider, 64
                )
            except NetworkError:
                continue
            data = self.cluster.healthy_shard(manifest.file_id, location)
            if data is None:
                continue  # lost or corrupted shard: skip it
            self.cluster.network.send(location.provider, self.owner_name, len(data))
            collected.append(Shard(index=location.shard_index, data=data))
        if len(collected) < manifest.erasure_k:
            raise RuntimeError(
                f"only {len(collected)} healthy shards available, "
                f"need {manifest.erasure_k}"
            )
        ciphertext = code.decode(collected, manifest.ciphertext_length)
        encrypted = EncryptedFile(
            ciphertext=ciphertext,
            nonce=manifest.nonce,
            tag=manifest.tag,
            key_mode=manifest.key_mode,  # type: ignore[arg-type]
        )
        return decrypt_file(encrypted, self.keys[manifest.file_id])

    def repair(
        self, manifest: FileManifest, provider: str, strategy=None
    ) -> FileManifest:
        """Re-generate the shards a failed provider held and re-place them.

        Replacements are walked in ``strategy``'s order, as :meth:`store`
        walks it.  Providers already holding a shard of this file — and
        the failed provider — are always excluded.
        """
        code = ReedSolomonCode(manifest.erasure_n, manifest.erasure_k)
        survivors: list[Shard] = []
        held_by_failed = 0
        for location in manifest.shards:
            data = self.cluster.healthy_shard(manifest.file_id, location)
            if data is None:
                continue
            if location.provider == provider:
                # Never a repair source, but the file is still retrievable
                # through it (a flaky provider fails audits, not reads).
                held_by_failed += 1
            else:
                survivors.append(Shard(index=location.shard_index, data=data))
        if len(survivors) < manifest.erasure_k:
            readable = len(survivors) + held_by_failed
            if readable < manifest.erasure_k:
                raise DataLoss(manifest.file_id, readable, manifest.erasure_k)
            raise RuntimeError(
                f"only {len(survivors)} healthy shards of {manifest.file_id} "
                f"outside {provider}, need {manifest.erasure_k} to regenerate"
            )
        lost = [loc for loc in manifest.shards if loc.provider == provider]
        healthy = [loc for loc in manifest.shards if loc.provider != provider]
        ciphertext = code.decode(survivors, manifest.ciphertext_length)
        fresh = code.encode(ciphertext)
        # Place the regenerated shards on providers not already used.
        used = {loc.provider for loc in healthy}
        candidates = [
            name
            for name in self._ordering(manifest.file_id, len(lost), strategy)
            if name not in used and name != provider and name in self.cluster.nodes
        ]
        if len(candidates) < len(lost):
            raise RuntimeError(
                f"only {len(candidates)} replacement providers available for "
                f"{len(lost)} lost shards of {manifest.file_id}"
            )
        healthy += self._place(
            manifest.file_id,
            [fresh[loc.shard_index] for loc in lost],
            candidates,
            f"replacement providers ran out of capacity while "
            f"repairing {manifest.file_id}",
        )
        manifest.shards = sorted(healthy, key=lambda s: s.shard_index)
        return manifest
