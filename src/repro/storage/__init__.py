"""DSN storage substrate: erasure coding, encryption, DHT, nodes, client,
capability strings and placement strategies."""

from .capabilities import (
    CapabilityError,
    ReadCap,
    VerifyCap,
    check_verify_cap,
    make_read_cap,
    storage_index_from_key,
)
from .dht import ChordNode, ChordRing, chord_id
from .encryption import EncryptedFile, decrypt_file, encrypt_file, generate_key
from .erasure import ReedSolomonCode, Shard
from .manifest import FileManifest, ShardLocation
from .network import NetworkError, NetworkStats, SimulatedNetwork
from .node import DataLoss, DsnClient, DsnCluster, StorageNode
from .placement import (
    CapacityAwarePlacement,
    LatencyAwarePlacement,
    PlacementStrategy,
    ReputationWeightedPlacement,
    RingPlacement,
    place_with_strategy,
)

__all__ = [
    "CapabilityError",
    "CapacityAwarePlacement",
    "ChordNode",
    "ChordRing",
    "DataLoss",
    "DsnClient",
    "LatencyAwarePlacement",
    "PlacementStrategy",
    "ReadCap",
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
    "VerifyCap",
    "check_verify_cap",
    "chord_id",
    "decrypt_file",
    "encrypt_file",
    "generate_key",
    "make_read_cap",
    "place_with_strategy",
    "storage_index_from_key",
]
