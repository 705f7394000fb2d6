"""Append-only file extension — a forward-compatible archive feature.

The paper scopes itself to static archives ("once data is distributed and
archived, there would be no more update of data") and leaves dynamism to
future work.  Appending, however, is compatible with archive semantics
(backup streams grow monotonically) and with this HLA construction:
chunk authenticators are indexed by ``H(name || i)``, so *new* chunks at
*fresh* indices extend the file without touching existing authenticators —
no re-preprocessing of old data, no new keys, and audits over the combined
file keep working.

What appending cannot do (and the API refuses): modify or delete existing
chunks — that would require the dynamic-PDP machinery the paper cites
([57]-[59]) and break the archive model.
"""

from __future__ import annotations

from ..crypto.field import BLOCK_BYTES, bytes_to_blocks
from .chunking import ChunkedFile
from .keys import KeyPair
from .params import ProtocolParams
from .protocol import OutsourcingPackage


class AppendError(ValueError):
    """Raised when an extension would rewrite existing, committed data."""


def append_data(
    package: OutsourcingPackage,
    keypair: KeyPair,
    more_data: bytes,
    params: ProtocolParams,
) -> OutsourcingPackage:
    """Extend an outsourced file with new bytes, returning a new package.

    Preconditions: the existing file must end on a chunk boundary
    (archives are appended in chunk-aligned batches; callers pad their
    batches, exactly as the original file was padded).  The old
    authenticators are reused verbatim; only the new chunks are signed.
    """
    if not more_data:
        raise AppendError("nothing to append")
    if keypair.public.epsilon != package.public.epsilon:
        raise AppendError("keypair does not match the package's public key")
    old = package.chunked
    blocks_in_last = old.byte_length % (params.s * BLOCK_BYTES)
    if blocks_in_last != 0:
        raise AppendError(
            "existing file does not end on a chunk boundary; pad the "
            "original upload to s*31-byte multiples to enable appending"
        )
    new_blocks = bytes_to_blocks(more_data)
    padding = (-len(new_blocks)) % params.s
    new_blocks.extend([0] * padding)
    new_chunks = tuple(
        tuple(new_blocks[offset : offset + params.s])
        for offset in range(0, len(new_blocks), params.s)
    )
    combined = ChunkedFile(
        name=old.name,
        byte_length=old.byte_length + len(more_data),
        s=old.s,
        chunks=old.chunks + new_chunks,
    )
    # Authenticate only the new tail: build a temporary view whose chunk
    # indices continue from the old count.
    tail_view = ChunkedFile(
        name=old.name,
        byte_length=len(more_data),
        s=old.s,
        chunks=new_chunks,
    )
    tail_auths = _generate_offset_authenticators(
        tail_view, keypair, offset=old.num_chunks
    )
    return OutsourcingPackage(
        public=package.public,
        name=package.name,
        chunked=combined,
        authenticators=package.authenticators + tuple(tail_auths),
    )


def _generate_offset_authenticators(chunked: ChunkedFile, keypair: KeyPair, offset: int):
    """Authenticators for chunks whose global indices start at ``offset``."""
    from ..crypto.bn254.msm import generator_table
    from .authenticator import block_digest_point
    from .polynomial import evaluate

    table = generator_table()
    x = keypair.secret.x
    alpha = keypair.secret.alpha
    out = []
    for local_index, chunk in enumerate(chunked.chunks):
        global_index = offset + local_index
        m_alpha = evaluate(chunk, alpha)
        digest = block_digest_point(chunked.name, global_index)
        out.append((table.mul(m_alpha) + digest) * x)
    return out


def overwrite_refused(package: OutsourcingPackage, chunk_index: int) -> None:
    """The guard rail: mutation of committed chunks is a protocol error."""
    raise AppendError(
        f"chunk {chunk_index} is committed; the archive protocol is "
        "append-only (dynamic updates need the [57]-[59] machinery the "
        "paper explicitly scopes out)"
    )
