"""Chunk arithmetic: split byte ranges into per-chunk spans.

To balance large files across nodes, every data request is split into
equally sized chunks before distribution (§III-B).  These are the pure
functions both the functional client and the performance models use, so
the protocol under test is the same arithmetic in both modes.

The chunk RPCs' packed arrays are defined here: a span table is
:data:`SPAN` entries, write digests are
:data:`~repro.storage.integrity.DIGEST` entries, and a
``gkfs_read_chunks`` reply is the flat tuple ``(n, runs, digests,
payload, ...)`` — ``runs`` one :data:`RUN` per span (empty without the
integrity plane), ``digests`` the proved blocks' stored digests of every
span, concatenated.  The receiving half of a chunk read lives here too:
:func:`reply_proofs` cuts a reply's proofs per span, :func:`check_proofs`
re-checks one over the received bytes, and :func:`fetch_chunk` is the
whole-chunk read.  :func:`copy_chunk` is the one chunk copy: every replica
restore (client read-repair, the wire repairer's repair, resync and
scrub, the rebalance migrator) is one guarded ``gkfs_replace_chunk``
through it.  :func:`chunk_digests` is the batched ``gkfs_chunk_digest``
the repairer's and the migrator's snapshots and fsck's corruption scan
read.
"""

from __future__ import annotations

import struct
from itertools import starmap
from typing import Callable, NamedTuple, Optional

from repro.common.errors import UNREACHABLE, IntegrityError
from repro.rpc.bulk import BulkHandle
from repro.storage.integrity import DIGEST, block_checksums, chunk_checksum

__all__ = [
    "INLINE_THRESHOLD",
    "RUN",
    "SPAN",
    "ChunkSpan",
    "split_range",
    "chunk_count",
    "last_chunk",
    "digest_grain",
    "pack_spans",
    "wire_digests",
    "reply_proofs",
    "check_proofs",
    "fetch_chunk",
    "ChunkCopy",
    "copy_chunk",
    "chunk_digests",
]

#: One entry of a chunk RPC's span table: chunk id, offset inside the
#: chunk, length, and offset in the request's payload (write) or in the
#: caller's buffer (read).
SPAN = struct.Struct("<4q")

#: One entry of a read reply's proof table: chunk offset and length of the
#: run of digest blocks the span's data fully covers (``(0, 0)``: none).
RUN = struct.Struct("<2q")

#: Mercury's eager/bulk threshold, for both directions: a write group, a
#: ``gkfs_replace_chunk`` payload or a direct read group of at most this many
#: bytes rides inside its RPC, not through a bulk (RDMA) exposure: the frame
#: shape, nothing more — the socket server serves every request where it read
#: it.  The measured crossover (docs/calibration.md); read as
#: ``chunking.INLINE_THRESHOLD``.
INLINE_THRESHOLD = 32 * 1024


class ChunkSpan(NamedTuple):
    """One chunk-local piece of a file-level byte range — in the field
    order of a :data:`SPAN` entry, so a read span packs as it is.

    :ivar chunk_id: index of the chunk within the file.
    :ivar offset: byte offset *inside* the chunk where the piece starts.
    :ivar length: piece length in bytes.
    :ivar buffer_offset: where the piece sits in the caller's I/O buffer.
    """

    chunk_id: int
    offset: int
    length: int
    buffer_offset: int


def split_range(offset: int, length: int, chunk_size: int) -> list[ChunkSpan]:
    """The chunk-local spans covering ``[offset, offset + length)``.

    Spans come out in ascending chunk order and tile the range exactly:
    the sum of span lengths equals ``length`` and consecutive spans are
    contiguous in the caller's buffer.
    """
    if offset < 0 or length < 0:
        raise ValueError(f"negative offset/length: {offset}/{length}")
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be > 0, got {chunk_size}")
    spans = []
    position, end = offset, offset + length
    while position < end:
        chunk_id = position // chunk_size
        in_chunk = position - chunk_id * chunk_size
        piece = chunk_size - in_chunk
        if piece > end - position:
            piece = end - position
        spans.append(ChunkSpan(chunk_id, in_chunk, piece, position - offset))
        position += piece
    return spans


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


def digest_grain(config) -> int:
    """The digest block size a deployment's stores use (the configured
    grain, clamped to the chunk size as :class:`~repro.storage.ChunkStorage`
    clamps it)."""
    return max(1, min(config.integrity_block_size, config.chunk_size))


def pack_spans(spans) -> bytes:
    """The packed span table of ``spans``, 4-tuples in :data:`SPAN` order."""
    return b"".join(starmap(SPAN.pack, spans))


def wire_digests(region, table: bytes, algorithm: str) -> bytes:
    """One :data:`DIGEST` per span of ``table`` over its piece of the
    payload ``region`` (unsalted): what ``integrity_verify_writes`` sends
    beside a write and the daemon checks before storing anything."""
    return b"".join([
        DIGEST.pack(chunk_checksum(region[at : at + length], 0, algorithm))
        for _chunk_id, _offset, length, at in SPAN.iter_unpack(table)
    ])


def reply_proofs(reply: tuple, grain: int) -> list:
    """Per span of a ``gkfs_read_chunks`` reply: ``(offset, length,
    digests)`` of the run its proof covers, or ``None`` (no proof: the
    integrity plane is off, or no block lies wholly inside the data)."""
    table, digests = reply[1], reply[2]
    if not table:
        return [None] * (len(reply) - 3)
    proofs = []
    pos = 0
    for offset, length in RUN.iter_unpack(table):
        if not length:
            proofs.append(None)
            continue
        end = pos + 8 * -(-length // grain)
        proofs.append((offset, length, digests[pos:end]))
        pos = end
    return proofs


def check_proofs(
    rel: str, chunk_id: int, view: memoryview, base: int, proof, grain: int,
    algorithm: str,
) -> None:
    """Re-check a read's stored block digests over the *received* bytes.

    The daemon sends the digests it holds for the run of blocks the read
    fully covers (it verified the partially covered edge blocks itself);
    recomputing the run over the receive buffer — ``view[base + o]`` holds
    the chunk's byte ``o`` — in one batched pass and comparing the packed
    arrays closes the loop end to end: storage rot *and* transit corruption
    both raise :class:`IntegrityError` here.  ``proof`` ``None`` checks
    nothing.
    """
    if proof is None:
        return
    offset, length, digests = proof
    start = base + offset
    if block_checksums(view[start : start + length], grain, algorithm, offset) != digests:
        raise IntegrityError(
            f"chunk {chunk_id} of {rel!r}: digest mismatch in received "
            f"blocks at offsets [{offset}, {offset + length})"
        )


def fetch_chunk(call: Callable, target: int, rel: str, chunk_id: int, config) -> bytes:
    """One whole chunk from ``target``, inline, proofs re-checked.

    ``call(target, handler, *args)`` is the caller's way onto the wire
    (its port, its epoch stamp).  Whatever it raises propagates, as does
    the :class:`IntegrityError` of a copy that fails its own digests —
    what either means (fail over, give up, retry later) is the caller's
    policy.
    """
    reply = call(
        target, "gkfs_read_chunks", rel, SPAN.pack(chunk_id, 0, config.chunk_size, 0)
    )
    data = bytes(reply[3])
    grain = digest_grain(config)
    check_proofs(
        rel, chunk_id, memoryview(data), 0, reply_proofs(reply, grain)[0], grain,
        config.integrity_algorithm,
    )
    return data


class ChunkCopy(NamedTuple):
    """What one :func:`copy_chunk` did: ``outcome`` is ``"restored"``,
    ``"racing"`` (the copy took a write since it was judged) or
    ``"unreachable"`` (no source served a verified copy, or the target
    dropped out: ``error``); ``source`` served the ``size``-byte payload
    (``None``: the caller's).  Only a restored copy was installed."""

    outcome: str
    source: Optional[int] = None
    size: int = 0
    error: Optional[Exception] = None


def copy_chunk(
    call: Callable, target: int, rel: str, chunk_id: int, seen: Optional[dict], config,
    sources=(), payload: Optional[bytes] = None,
) -> ChunkCopy:
    """Restore ``target``'s copy of one chunk: the one chunk copy.

    The payload is the caller's verified copy, else the first of
    ``sources`` (``target`` skipped) that serves one passing its proofs;
    a source that fails them or is :data:`~repro.common.errors.UNREACHABLE`
    falls over to the next.  One ``gkfs_replace_chunk`` carries it with
    its digest (transit corruption is refused) and ``seen``, the target's
    ``gkfs_chunk_digest`` when the caller judged it (``None``: it failed
    verification).  The daemon compares, replaces and reads back under
    one store lock hold, so a write that landed since ``seen`` is never
    rolled back (``racing``).  An installed copy other than the payload,
    or a refused payload, raises :class:`IntegrityError`.
    """
    source = error = None
    if payload is None:
        for source in (s for s in sources if s != target):
            try:
                payload = fetch_chunk(call, source, rel, chunk_id, config)
                break
            except (IntegrityError, *UNREACHABLE) as exc:
                error = exc
        else:
            return ChunkCopy("unreachable", error=error or IntegrityError(
                f"chunk {chunk_id} of {rel!r}: no source to copy it from"))
    digest = chunk_checksum(payload, 0, config.integrity_algorithm)
    size = len(payload)
    bulk = None if size <= INLINE_THRESHOLD else BulkHandle(payload, readonly=True)
    try:
        answer = call(target, "gkfs_replace_chunk", rel, chunk_id,
                      payload if bulk is None else None, digest, seen, bulk=bulk)
    except UNREACHABLE as exc:
        return ChunkCopy("unreachable", source, size, exc)
    if answer is False:
        return ChunkCopy("racing", source, size)
    if answer != {"length": size, "digest": digest}:
        raise IntegrityError(
            f"chunk {chunk_id} of {rel!r}: daemon {target} installed a copy "
            f"other than the one it was sent"
        )
    return ChunkCopy("restored", source, size)


def chunk_digests(call_async: Callable, wanted, tolerate: tuple = ()) -> dict:
    """``gkfs_chunk_digest``'s ``{"length", "digest"}`` per ``(address,
    path, chunk_id)`` in ``wanted``.

    Every call goes out before the first answer is awaited, so a scan
    waits on the daemons together, not one after another (the caller's
    port and the socket client bound what is in flight).  A copy that
    fails its own verification maps to ``None``; a key whose call raised
    one of ``tolerate`` is left out; anything else propagates.
    """
    pending = [
        (key, call_async(key[0], "gkfs_chunk_digest", *key[1:])) for key in wanted
    ]
    digests = {}
    for key, future in pending:
        try:
            digests[key] = future.result()
        except IntegrityError:
            digests[key] = None
        except tolerate:
            continue
    return digests
