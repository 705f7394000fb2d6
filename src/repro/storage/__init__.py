"""DSN storage substrate: erasure coding, encryption, DHT, nodes, the
owner's client and the placement strategies its store and repair walk."""

from .dht import ChordNode, ChordRing, chord_id
from .encryption import EncryptedFile, decrypt_file, encrypt_file, generate_key
from .erasure import ReedSolomonCode, Shard
from .manifest import FileManifest, ShardLocation
from .network import NetworkError, NetworkStats, SimulatedNetwork
from .node import DataLoss, DsnClient, DsnCluster, StorageNode
from .placement import (
    PlacementStrategy,
    ReputationWeightedPlacement,
    RingPlacement,
)

__all__ = [
    "ChordNode",
    "ChordRing",
    "DataLoss",
    "DsnClient",
    "PlacementStrategy",
    "ReputationWeightedPlacement",
    "RingPlacement",
    "DsnCluster",
    "EncryptedFile",
    "FileManifest",
    "NetworkError",
    "NetworkStats",
    "ReedSolomonCode",
    "Shard",
    "ShardLocation",
    "SimulatedNetwork",
    "StorageNode",
    "chord_id",
    "decrypt_file",
    "encrypt_file",
    "generate_key",
]
