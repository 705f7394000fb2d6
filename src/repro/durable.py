"""Durable files: the one place that knows how this repo lays bytes on disk.

One shape, a **frame log**, carrying opaque payload bytes (callers choose
the codec): frames ``published (1) || FORMAT_VERSION (1) || length (4) ||
sequence (8) || crc32(payload) (4) || crc32(those 18 bytes) (4) ||
payload`` appended one at a time.  Its first frame is appended too
(number 1) or *published*: :func:`publish_log` replaces the whole file
with it under any number, written to a temp file beside the target,
fsynced, then ``os.replace``d over it, so a reader sees the old file or
the new one, never a mixture.  A file that is one published frame and
nothing else (the lifecycle ``engine.pkl``) is read whole by
:func:`read_published`.  The header has its own checksum so that a
damaged *length* cannot pass for a short file: fewer bytes than a
header, or than a verified header's length, is a **torn tail** (the
crash interrupted that append) and iteration stops there.  No crash
tears a published frame, so a log cut inside one raises
:class:`WalCorruption` (its first byte says so); so does a complete
frame that fails a checksum or names another version, a published frame
past the first, or a sequence that does not rise by one from 1 or from
the published frame's number.

Nothing here unpickles: a payload reaches its caller only after its
checksum passed, so no caller deserializes bytes that nobody sealed.
"""

from __future__ import annotations

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
#: maps (the schedule and the contracts among them).  5: blocks, receipts,
#: events and the clock join that journal, so a record is the write-set and
#: the counters alone, with no per-kind payload keys and no events field.
#: 6: a record is the plain tuple ``(now, gone, counters)``, a snapshot is
#: the published first frame of a fresh log (no ``snapshot.pkl``), and a
#: frame header flags a published frame.  Files of any other version are
#: refused.
FORMAT_VERSION = 6

# published, version, payload length, sequence, crc32(payload)
_CHECKED = struct.Struct(">BBIQI")
_FRAME = struct.Struct(">BBIQII")  # ... and crc32 of those 18 bytes: the whole header


class WalCorruption(ValueError):
    """Persisted bytes are complete but wrong (never raised for a torn tail)."""

    def __init__(self, offset: int, reason: str):
        super().__init__(f"corrupt at byte {offset}: {reason}")
        self.offset = offset
        self.reason = reason


def _replace(path: Path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``; failures leave no partial file."""
    fd, tmp = tempfile.mkstemp(prefix=path.name, suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def frame(sequence: int, payload: bytes, published: bool = False) -> bytes:
    """One log frame, ready to append (or, ``published``, to start a log)."""
    checked = _CHECKED.pack(published, FORMAT_VERSION, len(payload), sequence, zlib.crc32(payload))
    return checked + zlib.crc32(checked).to_bytes(4, "big") + payload


def publish_log(path: str | os.PathLike, sequence: int, payload: bytes) -> int:
    """Atomically replace the log at ``path`` with one published frame; its length."""
    data = frame(sequence, payload, published=True)
    _replace(Path(path), data)
    return len(data)


def read_published(path: str | os.PathLike) -> tuple[int, bytes]:
    """``(sequence, payload)`` of the file at ``path``, one published frame.

    A missing or unreadable file raises ``OSError``; anything else that is
    not exactly what :func:`publish_log` wrote raises :class:`WalCorruption`.
    """
    data = Path(path).read_bytes()
    for sequence, payload, end in frames(data):
        if not data[0]:
            raise WalCorruption(0, f"frame {sequence} is appended, not published")
        if end != len(data):
            raise WalCorruption(end, "bytes follow the published frame")
        return sequence, payload
    raise WalCorruption(len(data), "no whole published frame")


def frames(data: bytes) -> Iterator[tuple[int, bytes, int]]:
    """``(sequence, payload, end offset)`` for each whole frame of a log."""
    offset, size, expected = 0, len(data), 1
    unpack, crc32, header_len = _FRAME.unpack_from, zlib.crc32, _FRAME.size  # hot loop
    while size - offset >= header_len:
        published, version, length, sequence, payload_crc, header_crc = unpack(data, offset)
        if crc32(data[offset : offset + _CHECKED.size]) != header_crc:
            raise WalCorruption(offset, "frame header checksum mismatch")
        if version != FORMAT_VERSION:
            raise WalCorruption(offset, f"unsupported frame version {version}")
        start = offset + header_len
        if size - start < length:
            break  # torn frame: the crash interrupted this append
        payload = data[start : start + length]
        if crc32(payload) != payload_crc:
            raise WalCorruption(start, "frame payload checksum mismatch")
        if published and offset:
            raise WalCorruption(offset, f"published frame {sequence} is not the log's first")
        if sequence != expected and not published:
            raise WalCorruption(offset, f"frame {sequence} where {expected} should follow")
        expected = sequence + 1
        offset = start + length
        yield sequence, payload, offset
    if offset == 0 and size and data[0]:  # the first byte flags a published frame
        raise WalCorruption(size, "the log's published first frame is cut short")
