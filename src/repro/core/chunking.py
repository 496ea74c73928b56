"""Chunk arithmetic: split byte ranges into per-chunk spans.

To balance large files across nodes, every data request is split into
equally sized chunks before distribution (§III-B).  These are the pure
functions both the functional client and the performance models use, so
the protocol under test is the same arithmetic in both modes.

The receiving half of a chunk read lives here too: :func:`check_proofs`
re-checks the digests a ``gkfs_read_chunks`` reply carries, and
:func:`fetch_chunk` is the whole-chunk read every repair path (client
read-repair, the rebalance migrator, the wire repairer) restores from;
:func:`chunk_digests` is the batched ``gkfs_chunk_digest`` the
migrator's planning and fsck's corruption scan read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.common.errors import IntegrityError
from repro.storage.integrity import chunk_checksum

__all__ = [
    "INLINE_THRESHOLD",
    "ChunkSpan",
    "split_range",
    "chunk_count",
    "last_chunk",
    "check_proofs",
    "fetch_chunk",
    "chunk_digests",
]

#: Mercury's eager/bulk threshold, for both directions: a write group, a
#: ``gkfs_replace_chunk`` payload or a direct read group of at most this many
#: bytes rides inside its RPC, not through a bulk (RDMA) exposure — and the
#: socket server serves it where it read it (``daemon.moves_little``).  The
#: measured crossover (docs/calibration.md); read as ``chunking.INLINE_THRESHOLD``.
INLINE_THRESHOLD = 32 * 1024


@dataclass(frozen=True)
class ChunkSpan:
    """One chunk-local piece of a file-level byte range.

    :ivar chunk_id: index of the chunk within the file.
    :ivar offset: byte offset *inside* the chunk where the piece starts.
    :ivar length: piece length in bytes.
    :ivar buffer_offset: where the piece sits in the caller's I/O buffer.
    """

    chunk_id: int
    offset: int
    length: int
    buffer_offset: int


def split_range(offset: int, length: int, chunk_size: int) -> Iterator[ChunkSpan]:
    """Yield the chunk-local spans covering ``[offset, offset + length)``.

    Spans come out in ascending chunk order and tile the range exactly:
    the sum of span lengths equals ``length`` and consecutive spans are
    contiguous in the caller's buffer.
    """
    if offset < 0 or length < 0:
        raise ValueError(f"negative offset/length: {offset}/{length}")
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be > 0, got {chunk_size}")
    buffer_offset = 0
    position = offset
    end = offset + length
    while position < end:
        chunk_id = position // chunk_size
        in_chunk = position - chunk_id * chunk_size
        piece = min(chunk_size - in_chunk, end - position)
        yield ChunkSpan(chunk_id, in_chunk, piece, buffer_offset)
        position += piece
        buffer_offset += piece


def chunk_count(size: int, chunk_size: int) -> int:
    """Number of chunks a file of ``size`` bytes occupies."""
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be > 0, got {chunk_size}")
    return (size + chunk_size - 1) // chunk_size


def last_chunk(size: int, chunk_size: int) -> int:
    """Id of the final chunk of a file of ``size`` bytes (-1 if empty)."""
    return chunk_count(size, chunk_size) - 1


def check_proofs(
    rel: str, chunk_id: int, view: memoryview, base: int, proofs, algorithm: str
) -> None:
    """Re-check a read's stored block digests over the *received* bytes.

    The daemon sends the digests it holds for every block the read fully
    covers (it verified the partially covered edge blocks itself);
    recomputing them over the receive buffer — ``view[base + o]`` holds
    the chunk's byte ``o`` — closes the loop end to end: storage rot
    *and* transit corruption both raise :class:`IntegrityError` here.
    """
    for block_offset, block_len, digest in proofs:
        start = base + block_offset
        piece = view[start : start + block_len]
        if len(piece) != block_len or (
            chunk_checksum(piece, block_offset, algorithm) != digest
        ):
            raise IntegrityError(
                f"chunk {chunk_id} of {rel!r}: digest mismatch in "
                f"received block at offset {block_offset}"
            )


def fetch_chunk(call: Callable, target: int, rel: str, chunk_id: int, config) -> bytes:
    """One whole chunk from ``target``, inline, proofs re-checked.

    ``call(target, handler, *args)`` is the caller's way onto the wire
    (its port, its epoch stamp).  Whatever it raises propagates, as does
    the :class:`IntegrityError` of a copy that fails its own digests —
    what either means (fail over, give up, retry later) is the caller's
    policy.
    """
    reply = call(target, "gkfs_read_chunks", rel, [(chunk_id, 0, config.chunk_size, 0)])
    data = bytes(reply["data"][0])
    check_proofs(
        rel, chunk_id, memoryview(data), 0, reply["proofs"][0],
        config.integrity_algorithm,
    )
    return data


def chunk_digests(call_async: Callable, wanted, tolerate: tuple = ()) -> dict:
    """``(length, digest)`` per ``(address, path, chunk_id)`` in ``wanted``.

    Every ``gkfs_chunk_digest`` goes out before the first answer is
    awaited, so a scan waits on the daemons together, not one after
    another (the caller's port and the socket client bound what is in
    flight).  A copy that fails its own verification maps to ``None``; a
    key whose call raised one of ``tolerate`` is left out; anything else
    propagates.
    """
    pending = [
        (key, call_async(key[0], "gkfs_chunk_digest", *key[1:])) for key in wanted
    ]
    digests = {}
    for key, future in pending:
        try:
            reply = future.result()
        except IntegrityError:
            digests[key] = None
        except tolerate:
            continue
        else:
            digests[key] = (reply["length"], reply["digest"])
    return digests
