"""repro — a full reproduction of "Towards Privacy-assured and Lightweight
On-chain Auditing of Decentralized Storage" (Du et al., ICDCS 2020).

Packages
--------
* :mod:`repro.core`       — the paper's auditing protocol (HLA + KZG
  polynomial commitments + Sigma-protocol masking), attacks, batching.
* :mod:`repro.crypto`     — BN254 pairing curve and symmetric primitives,
  all implemented from scratch.
* :mod:`repro.chain`      — simulated Ethereum-like chain, gas models and
  the Fig. 2 audit smart contract.
* :mod:`repro.engine`     — parallel audit engine: thread-pool executor,
  precompute-backed provers, beacon-driven epoch scheduler.
* :mod:`repro.randomness` — the beacon interface the contract draws
  challenges from, and the hash-chain beacon the system runs.
* :mod:`repro.storage`    — DSN substrate: Reed-Solomon, ChaCha20, Chord
  DHT, simulated network, storage nodes.
* :mod:`repro.sim`        — economics and throughput models (Figs. 4-6, 10).

Quickstart: see ``examples/quickstart.py`` or the README.
"""

__version__ = "1.0.0"

from . import (
    chain,
    core,
    crypto,
    dsn,
    engine,
    randomness,
    sim,
    storage,
)

__all__ = [
    "__version__",
    "chain",
    "core",
    "crypto",
    "dsn",
    "engine",
    "randomness",
    "sim",
    "storage",
]
