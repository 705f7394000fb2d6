"""File manifests: the owner's record of where everything lives.

A manifest ties together the storage-layer view (encrypted shards placed on
DHT nodes) with the audit-layer view (per-provider file identifiers and
public keys), mirroring how the paper's architecture layers auditing on top
of "most underlying P2P-akin storage systems" (Section VII-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ShardLocation:
    shard_index: int
    provider: str
    checksum: bytes


@dataclass
class FileManifest:
    """Everything the owner needs to retrieve and audit one file."""

    file_id: str
    plaintext_length: int
    ciphertext_length: int
    erasure_n: int
    erasure_k: int
    key_mode: str
    nonce: bytes
    tag: bytes
    shards: list[ShardLocation] = field(default_factory=list)
    # audit-layer linkage: provider name -> per-shard audit file identifier
    audit_names: dict[str, int] = field(default_factory=dict)

    @property
    def providers(self) -> list[str]:
        return sorted({s.provider for s in self.shards})

    @property
    def redundancy_factor(self) -> float:
        return self.erasure_n / self.erasure_k
