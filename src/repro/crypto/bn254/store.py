"""Versioned on-disk persistence for :class:`PrecomputeCache` tables.

The warm-path speedup of the audit engine comes from tables that are pure
functions of long-lived public values — wNAF odd-multiple tables for
authenticators/digests/powers-of-alpha, prepared Miller-loop lines for the
owner G2 keys, GT window tables for ``e(g1, epsilon)``.  They are expensive
to build but tiny to serialize (lists of field integers), so persisting
them lets a restarted auditor — or a freshly forked pool worker — start at
warm-cache throughput instead of re-deriving every table.

Layout: one file per table under the cache directory, named
``<kind>-<sha256(key)[:32]>.bin`` where the key bytes are the canonical
serialization of the group element plus the table parameters.  Each file is
a :mod:`repro.durable` sealed file (magic, format version, checksum, then
the pickled pure-int structure), published atomically.
:meth:`PrecomputeStore.load` returns ``None`` — never raises — for missing,
truncated, corrupted, checksum-mismatched or version-mismatched files, so a
bad cache directory degrades to a cold start instead of an outage.  Payloads
are pickled, but the checksum is verified *before* unpickling, so only
payloads this process (or another honest auditor run) wrote are ever
deserialized.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path

from ... import durable

MAGIC = b"BN254PC\x00"


class PrecomputeStore:
    """Digest-keyed file store for precompute tables.

    All methods are best-effort: I/O failures on ``save`` are swallowed
    (the cache simply stays process-local) and malformed files on ``load``
    read as misses.  ``stats``-style counters are exposed for the
    persisted-cache benchmarks.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.loads = 0
        self.saves = 0
        self.rejects = 0

    def _path(self, kind: str, key: bytes) -> Path:
        digest = hashlib.sha256(kind.encode() + b"\x00" + key).hexdigest()[:32]
        return self.directory / f"{kind}-{digest}.bin"

    def load(self, kind: str, key: bytes):
        """The stored object for ``(kind, key)``, or ``None`` on any miss."""
        try:
            value = pickle.loads(durable.read_sealed(self._path(kind, key), MAGIC))
        except OSError:
            return None
        except Exception:  # WalCorruption, or a sealed payload that is no pickle
            self.rejects += 1
            return None
        self.loads += 1
        return value

    def save(self, kind: str, key: bytes, value) -> None:
        """Atomically persist ``value``; failures leave no partial file."""
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            durable.publish(self._path(kind, key), MAGIC, payload)
        except OSError:
            return
        self.saves += 1
