"""Durable files: the one place that knows how this repo lays bytes on disk.

Two shapes, both carrying opaque payload bytes (callers choose the codec):

* a **sealed file**, ``MAGIC (8) || FORMAT_VERSION (2 BE) || sha256(payload)
  || payload``, published whole: written to a temp file beside the target,
  fsynced, then ``os.replace``d over it, so a reader sees the old file or
  the new one, never a mixture;
* a **frame log**, appended to one frame at a time, each ``FORMAT_VERSION (2)
  || length (4) || sequence (8) || crc32(payload) (4) || crc32(those 18
  bytes) (4) || payload``.  The header has its own checksum so that a
  damaged *length* cannot pass for a short file: fewer bytes than a header,
  or than a verified header's length, is a **torn tail** (the crash
  interrupted that append) and iteration stops there; a complete frame that
  fails a checksum, names another version or breaks the ``+1`` sequence
  raises :class:`WalCorruption`.

Nothing here unpickles: a payload reaches its caller only after its
checksum passed, so no caller deserializes bytes that nobody sealed.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Iterator

#: 2: ``chain.state._WalRecord`` carries ``delta()``'s maps by name and
#: ``snapshot.pkl`` holds one such record.  3: a record carries its scope's
#: write-set (scheduled calls added and removed, contract attribute patches)
#: instead of the whole schedule and every touched contract.  4: that
#: write-set is read off the store's one journal, so it is ``now`` / ``gone``
#: alone, naming contract attributes and container entries beside the keyed
#: maps (the schedule and the contracts among them).  Files of any other
#: version are refused.
FORMAT_VERSION = 4

_MAGIC_LEN = 8
#: Bytes before a sealed file's payload (magic, version, sha256).
HEADER_LEN = _MAGIC_LEN + 2 + 32

_CHECKED = struct.Struct(">HIQI")  # version, payload length, sequence, crc32(payload)
_FRAME = struct.Struct(">HIQII")  # ... and crc32 of those 18 bytes: the whole header


class WalCorruption(ValueError):
    """Persisted bytes are complete but wrong (never raised for a torn tail)."""

    def __init__(self, offset: int, reason: str):
        super().__init__(f"corrupt at byte {offset}: {reason}")
        self.offset = offset
        self.reason = reason


def publish(path: str | os.PathLike, magic: bytes, payload: bytes) -> None:
    """Atomically replace ``path`` with a sealed file; failures leave no partial file."""
    assert len(magic) == _MAGIC_LEN
    path = Path(path)
    version = FORMAT_VERSION.to_bytes(2, "big")
    fd, tmp = tempfile.mkstemp(prefix=path.name, suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(magic + version + hashlib.sha256(payload).digest() + payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_sealed(path: str | os.PathLike, magic: bytes) -> bytes:
    """The checksum-verified payload of a sealed file.

    A missing or unreadable file raises ``OSError``; anything else that is
    not exactly what :func:`publish` wrote raises :class:`WalCorruption`.
    """
    blob = Path(path).read_bytes()
    if len(blob) < HEADER_LEN:
        raise WalCorruption(len(blob), "file shorter than its header")
    if not blob.startswith(magic):
        raise WalCorruption(0, f"magic is not {magic!r}")
    version = int.from_bytes(blob[_MAGIC_LEN : _MAGIC_LEN + 2], "big")
    if version != FORMAT_VERSION:
        raise WalCorruption(_MAGIC_LEN, f"unsupported format version {version}")
    payload = blob[HEADER_LEN:]
    if hashlib.sha256(payload).digest() != blob[_MAGIC_LEN + 2 : HEADER_LEN]:
        raise WalCorruption(HEADER_LEN, "payload checksum mismatch")
    return payload


def frame(sequence: int, payload: bytes) -> bytes:
    """One log frame, ready to append."""
    checked = _CHECKED.pack(FORMAT_VERSION, len(payload), sequence, zlib.crc32(payload))
    return checked + zlib.crc32(checked).to_bytes(4, "big") + payload


def frames(data: bytes, after: int | None = None) -> Iterator[tuple[int, bytes, int]]:
    """``(sequence, payload, end offset)`` for each whole frame of a log.

    Sequences must rise by one; given ``after`` (the last sequence the
    reader already holds) the first frame may overlap it but not skip past.
    """
    offset, size, expected = 0, len(data), None
    unpack, crc32, header_len = _FRAME.unpack_from, zlib.crc32, _FRAME.size  # hot loop
    while size - offset >= header_len:
        version, length, sequence, payload_crc, header_crc = unpack(data, offset)
        if crc32(data[offset : offset + _CHECKED.size]) != header_crc:
            raise WalCorruption(offset, "frame header checksum mismatch")
        if version != FORMAT_VERSION:
            raise WalCorruption(offset, f"unsupported frame version {version}")
        start = offset + header_len
        if size - start < length:
            return  # torn frame: the crash interrupted this append
        payload = data[start : start + length]
        if crc32(payload) != payload_crc:
            raise WalCorruption(start, "frame payload checksum mismatch")
        if sequence != expected:
            if expected is not None:
                raise WalCorruption(offset, f"frame {sequence} where {expected} should follow")
            if after is not None and sequence > after + 1:
                raise WalCorruption(offset, f"frames {after + 1}..{sequence - 1} are missing")
        expected = sequence + 1
        offset = start + length
        yield sequence, payload, offset
