"""Chunk-storage contract shared by all daemon I/O backends.

A daemon never sees whole files — clients split every request into
chunk-sized pieces and route each to its owner (§III-B).  The backend
therefore speaks only ``(path, chunk_id)``: write/read a byte range inside
one chunk, truncate a chunk, drop all chunks of a path.  Chunks are
sparse-friendly: writing at a positive in-chunk offset zero-fills the gap,
exactly like a hole in the chunk file on XFS.

With ``integrity=True`` every backend additionally maintains per-block
digests for each chunk (see :mod:`repro.storage.integrity`): writes and
truncates keep the digests current, :meth:`ChunkStorage.read_chunk_verified`
serves checksum-verified reads (returning the stored digests of the blocks
it fully covers as a *proof* the client re-verifies end-to-end),
:meth:`ChunkStorage.verified_payload` gives scrubbers, fsck and the digest
RPC a full-chunk check, and unrepairable chunks can be *quarantined* so
they fail loudly instead of serving garbage.  A chunk's digest record is
``(checksummed_length, digests)`` with ``digests`` one packed
little-endian u64 array, one entry per block — the same bytes the sidecar
stores and a read's proof slices.  The raw
:meth:`ChunkStorage.read_chunk` stays unverified on purpose — fsck,
anti-entropy resync, and the fault injectors need to see the bytes as
they are.

Every backend keeps one table, ``_sums[path][chunk_id]``, for what it
holds per chunk beyond the payload: the digest record here and in the
memory backend, the chunk's whole open handle (descriptors and record)
in :mod:`repro.storage.localfs`.  What a backend holds open between
operations it gives back in :meth:`ChunkStorage.close`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.common.errors import IntegrityError
from repro.storage.integrity import (
    DEFAULT_BLOCK_SIZE,
    DIGEST,
    IntegrityStats,
    block_checksums,
    chunk_checksum,
    load_accelerator,
    patch_checksum,
)

__all__ = ["ChunkStorage", "StorageStats", "UNGUARDED"]

#: The ``seen`` of a :meth:`ChunkStorage.replace_chunk` that compares
#: nothing: the migrator's empty replace, which drops a released copy.
UNGUARDED = object()


def _spliced(old: bytes, base: int, lo: int, hi: int, data) -> bytes:
    """``old`` — the stored bytes from offset ``base`` on — with ``data``
    where ``[lo, hi)`` stood; a gap between its end and ``lo`` is a hole."""
    return old[: lo - base].ljust(lo - base, b"\x00") + bytes(data) + old[hi - base :]

#: ``read(offset, length)`` over the raw payload of one open chunk: short at
#: end of data, empty if the chunk does not exist, no stats accounting.
Reader = Callable[[int, int], bytes]


@dataclass
class StorageStats:
    """I/O counters every backend maintains."""

    bytes_written: int = 0
    bytes_read: int = 0
    write_ops: int = 0
    read_ops: int = 0
    chunks_created: int = 0
    chunks_removed: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class ChunkStorage:
    """Abstract one-file-per-chunk store.

    Implementations must be safe for concurrent calls from multiple RPC
    handler threads.

    :param chunk_size: striping granularity in bytes.
    :param integrity: maintain and verify per-block chunk digests.
    :param integrity_block_size: digest granularity (clamped to
        ``chunk_size``).
    :param integrity_algorithm: digest algorithm name
        (:func:`repro.storage.integrity.chunk_checksum`).
    """

    #: Chunks held open between operations (the disk backend's handle table).
    open_handles = 0

    def __init__(
        self,
        chunk_size: int,
        integrity: bool = False,
        integrity_block_size: int = DEFAULT_BLOCK_SIZE,
        integrity_algorithm: str = "gxh64",
    ):
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be > 0, got {chunk_size}")
        self.chunk_size = chunk_size
        self.stats = StorageStats()
        self.integrity = bool(integrity)
        self.block_size = max(1, min(integrity_block_size, chunk_size))
        self.algorithm = integrity_algorithm
        self.integrity_stats = IntegrityStats()
        if self.integrity:
            load_accelerator()  # part of set-up, not of the first write
        self._quarantined: set[tuple[str, int]] = set()
        # path -> chunk id -> digest record; the disk backend keeps each
        # chunk's whole handle (descriptors and record) in this table.
        self._sums: dict[str, dict[int, object]] = {}
        self._lock = threading.RLock()

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0:
            raise ValueError(f"negative offset/length: {offset}/{length}")
        if offset + length > self.chunk_size:
            raise ValueError(
                f"range [{offset}, {offset + length}) exceeds chunk size {self.chunk_size}"
            )

    # -- interface ---------------------------------------------------------

    def write_chunk(self, path: str, chunk_id: int, offset: int, data: bytes) -> int:
        """Write ``data`` at ``offset`` inside chunk ``chunk_id`` of ``path``.

        Returns the number of bytes written (always ``len(data)``).
        """
        raise NotImplementedError

    def read_chunk(self, path: str, chunk_id: int, offset: int, length: int) -> bytes:
        """Read up to ``length`` bytes; short result at end of chunk data,
        empty if the chunk does not exist.  Never checksum-verified."""
        self._check_range(offset, length)
        with self._lock:
            data = self._reader(path, chunk_id)(offset, length)
            self.stats.read_ops += 1
            self.stats.bytes_read += len(data)
            return data

    def truncate_chunk(self, path: str, chunk_id: int, length: int) -> None:
        """Shrink chunk ``chunk_id`` to ``length`` bytes (drop it if 0).
        Shrink-only: at or above the stored payload nothing changes — the
        rest of the file is a hole the client zero-fills, not stored bytes."""
        raise NotImplementedError

    def remove_chunks(self, path: str) -> int:
        """Drop every chunk of ``path``; returns how many were removed."""
        raise NotImplementedError

    def remove_chunks_from(self, path: str, first_chunk: int) -> int:
        """Drop chunks with id >= ``first_chunk`` (tail truncation)."""
        raise NotImplementedError

    def chunk_ids(self, path: str) -> Iterable[int]:
        """Ids of locally stored chunks of ``path``, ascending."""
        raise NotImplementedError

    def chunk_lengths(self, path: str) -> list[tuple[int, int]]:
        """``(chunk_id, stored payload length)`` of every local chunk of
        ``path``, ascending by id (the daemon's inventory listing)."""
        raise NotImplementedError

    def paths(self, after: Optional[str] = None) -> Iterable[str]:
        """All paths with at least one local chunk, ascending; with
        ``after``, only those sorting past it (the cursor a paged listing
        resumes from).  A path holds a container exactly while it holds a
        chunk: the last chunk to go takes it along."""
        raise NotImplementedError

    def used_bytes(self) -> int:
        """Total payload bytes currently stored (checksum sidecars excluded)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what the store holds open between operations (nothing
        here; the disk backend's descriptors).  Idempotent, flushes
        nothing, and the store stays usable: it reopens what it touches."""

    # -- per-backend hooks -------------------------------------------------

    def _reader(self, path: str, chunk_id: int) -> Reader:
        """A reader over the chunk's payload, good until the storage lock
        (under which this is called) is released."""
        raise NotImplementedError

    def _get_sums(self, path: str, chunk_id: int) -> Optional[tuple[int, bytes]]:
        """``(checksummed_length, packed per-block digests)`` or ``None`` if the
        chunk has no (readable) record.  A backend that keeps the record elsewhere than
        in ``_sums[path][chunk_id]`` replaces all three hooks."""
        return self._sums.get(path, {}).get(chunk_id)

    def _record_and_reader(
        self, path: str, chunk_id: int
    ) -> tuple[Optional[tuple[int, bytes]], Reader]:
        """:meth:`_get_sums` and :meth:`_reader` together, for a verified
        read; a backend that finds both with one lookup replaces this."""
        return self._get_sums(path, chunk_id), self._reader(path, chunk_id)

    def _set_sums(self, path: str, chunk_id: int, length: int, sums: bytes) -> None:
        self._sums.setdefault(path, {})[chunk_id] = (length, sums)

    def _del_sums(self, path: str, chunk_id: int) -> None:
        sums = self._sums.get(path)
        if sums is not None:
            sums.pop(chunk_id, None)
            if not sums:
                del self._sums[path]

    def corrupt_chunk(
        self, path: str, chunk_id: int, byte_offset: int, xor: int = 0xA5
    ) -> bool:
        """Fault injector: flip payload bits *without* touching the digest
        record (simulated bit-rot).  Returns False if the byte does not
        exist."""
        raise NotImplementedError

    def tear_chunk(self, path: str, chunk_id: int, keep_bytes: int) -> bool:
        """Fault injector: shear the payload down to ``keep_bytes`` without
        touching the digest record (simulated torn write / crashed flush).
        ``keep_bytes=0`` leaves a zero-length payload behind."""
        raise NotImplementedError

    # -- integrity plane (shared logic) ------------------------------------

    @property
    def quarantined(self) -> list[tuple[str, int]]:
        """Chunks fenced off as unrepairable, as sorted ``(path, chunk_id)``."""
        with self._lock:
            return sorted(self._quarantined)

    def is_quarantined(self, path: str, chunk_id: int) -> bool:
        with self._lock:
            return (path, chunk_id) in self._quarantined

    def quarantine_chunk(self, path: str, chunk_id: int) -> bool:
        """Fence a chunk that fails :meth:`verified_payload`: verified reads
        fail with ``IntegrityError`` until it is rewritten from scratch
        (``replace_chunk`` or full overwrite).  The check and the fence are
        one lock hold, so a chunk a whole-chunk write healed since it was
        found is left alone.  Returns whether the chunk is fenced."""
        with self._lock:
            if self.verified_payload(path, chunk_id) is not None:
                return False
            if (path, chunk_id) not in self._quarantined:
                self._quarantined.add((path, chunk_id))
                self.integrity_stats.chunks_quarantined += 1
            return True

    def replace_chunk(self, path: str, chunk_id: int, data: bytes, seen=UNGUARDED):
        """Whole-chunk rewrite from a verified copy: a replica restore.

        ``seen`` is the copy's :meth:`payload_digest` when the copier judged
        it (``None``: it failed verification).  A copy that no longer
        matches took a write since: the answer is ``False`` and the copy
        stays.  Otherwise ``data`` replaces payload and digest record, any
        quarantine is lifted, and the answer is the installed copy's
        :meth:`payload_digest`, read back — all in one lock hold.
        """
        with self._lock:
            if seen is not UNGUARDED and self.payload_digest(path, chunk_id) != seen:
                return False
            self._quarantined.discard((path, chunk_id))
            self.truncate_chunk(path, chunk_id, 0)
            if data:
                self.write_chunk(path, chunk_id, 0, data)
            if self.integrity:
                self.integrity_stats.chunks_replaced += 1
            return self.payload_digest(path, chunk_id)

    def read_chunk_verified(
        self, path: str, chunk_id: int, offset: int, length: int
    ) -> tuple[bytes, tuple]:
        """Checksum-verified read.

        Returns ``(data, proofs)``.  ``proofs`` holds at most one run
        ``(run_offset, run_length, digests)``: the chunk range of the digest
        blocks that lie *fully inside* the returned data and their stored
        digests, a slice of the packed record — the caller re-computes them
        over its own receive buffer, closing the loop end to end.  Blocks
        the request only partially covers (at most the first and the last)
        are verified here (the caller cannot: it lacks the rest of the
        block).  So a block-aligned read reads and digests nothing beyond
        what it returns, and the daemon digests nothing at all.

        Raises :class:`IntegrityError` on quarantined chunks, missing or
        unreadable digest records, torn payloads (shorter than the
        checksummed length), and digest mismatches.
        """
        if not self.integrity:
            return self.read_chunk(path, chunk_id, offset, length), ()
        self._check_range(offset, length)
        with self._lock:
            if (path, chunk_id) in self._quarantined:
                raise IntegrityError(
                    f"chunk {chunk_id} of {path!r} is quarantined (unrepairable)"
                )
            entry, read = self._record_and_reader(path, chunk_id)
            stored_len, sums = entry or (0, None)
            # One read covers the span and the digest blocks it only partly
            # overlaps, as far as the record says they reach.
            b = self.block_size
            end = offset + length
            lo = offset - offset % b
            hi = max(end, min(stored_len, -(-end // b) * b))
            cover = read(lo, hi - lo)
            data = cover[offset - lo : end - lo]
            self.stats.read_ops += 1
            self.stats.bytes_read += len(data)
            if sums is None and data:
                self.integrity_stats.checksum_failures += 1
                raise IntegrityError(
                    f"chunk {chunk_id} of {path!r} has no readable checksum record"
                )
            expected = max(0, min(stored_len - offset, length))
            if len(data) != expected:
                self.integrity_stats.torn_chunks += 1
                self.integrity_stats.checksum_failures += 1
                raise IntegrityError(
                    f"chunk {chunk_id} of {path!r} torn: {len(data)} payload bytes "
                    f"where the checksum record promises {expected}"
                )
            if not data:
                return b"", ()  # nothing stored there, or no such chunk at all
            end = offset + len(data)
            first, last = offset // b, (end - 1) // b
            # The run of whole blocks: from the first block starting at or
            # after ``offset`` to the last one ending at or before ``end``.
            run_lo = -(-offset // b)
            run_hi = last + 1 if min(last * b + b, stored_len) <= end else last
            # An aligned span whose run covers it whole has no edge block.
            edges = () if run_lo == first and run_hi > last else sorted(
                {first, last}.difference(range(run_lo, run_hi)))
            for k in edges:
                boff = k * b
                block = cover[boff - lo : min(boff + b, stored_len) - lo]
                if block_checksums(block, b, self.algorithm, boff) != sums[8 * k : 8 * k + 8]:
                    self.integrity_stats.checksum_failures += 1
                    raise IntegrityError(
                        f"chunk {chunk_id} of {path!r}: digest mismatch in "
                        f"block at offset {boff}"
                    )
            self.integrity_stats.verified_reads += 1
            if run_hi <= run_lo:
                return data, ()
            run_end = min(run_hi * b, stored_len)
            return data, ((run_lo * b, run_end - run_lo * b, sums[8 * run_lo : 8 * run_hi]),)

    def verified_payload(self, path: str, chunk_id: int) -> Optional[bytes]:
        """The chunk's whole payload, read once, if it matches its digest
        record (length and every block); ``None`` if it does not, counted
        in ``checksum_failures`` (and a short payload in ``torn_chunks``).
        A chunk with payload but no readable record counts as corrupt; a
        chunk with neither is vacuously fine (``b""``).  Without the
        integrity plane the payload is returned unchecked."""
        with self._lock:
            if not self.integrity:
                return self._reader(path, chunk_id)(0, self.chunk_size)
            entry, read = self._record_and_reader(path, chunk_id)
            data = read(0, self.chunk_size)
            stored_len, sums = entry or (0, None)
            if sums is None and not data:
                return data
            if len(data) < stored_len:
                self.integrity_stats.torn_chunks += 1
            if sums is None or len(data) != stored_len or block_checksums(
                data, self.block_size, self.algorithm
            ) != sums:
                self.integrity_stats.checksum_failures += 1
                return None
            return data

    def payload_digest(self, path: str, chunk_id: int) -> Optional[dict]:
        """``{"length", "digest"}`` of the :meth:`verified_payload` (its
        whole-payload digest, unsalted), or ``None`` if it fails: what
        ``gkfs_chunk_digest`` answers and a guarded replace compares."""
        data = self.verified_payload(path, chunk_id)
        if data is None:
            return None
        return {"length": len(data), "digest": chunk_checksum(data, 0, self.algorithm)}

    def verify_chunk(self, path: str, chunk_id: int) -> bool:
        """Full-chunk verification for scrubbers: True iff the payload
        exactly matches its digest record (:meth:`verified_payload`)."""
        return self.verified_payload(path, chunk_id) is not None

    # -- integrity maintenance (under the backend's lock, on its open chunk) --
    #
    # Both hooks run *before* the payload changes and return the digest
    # record to store once it has (``None``: leave the record alone).  A
    # block the change covers only partly keeps what its stored digest says
    # about the bytes the change does not touch: those are never re-read
    # and re-digested, which would bless whatever rot they hold.

    def _edge_digest(
        self, read: Reader, boff: int, old_blen: int, digest: Optional[int],
        lo: int, hi: int, data, new_blen: int,
    ) -> int:
        """Digest of the block at ``boff`` once ``data`` stands where its
        bytes ``[lo, hi)`` stood (chunk offsets; a write's own range, a
        cut's dropped tail, empty for a block that only grows by zeros) and
        its length goes from ``old_blen`` to ``new_blen``."""
        if self.algorithm == "gxh64":
            # Linear digest: swap the range's old words for its new ones.
            at = lo - (lo - boff) % 8
            to = min(old_blen, -(-(hi - boff) // 8) * 8) + boff
            before = read(at, to - at) if to > at else b""
            after = data  # unless the range starts or ends inside a word:
            if lo > at or len(before) > hi - at:
                after = _spliced(before, at, lo, hi, data)
            return patch_checksum(digest, old_blen, boff, at - boff, before, after, new_blen)
        # No such structure: check the whole old block, then digest the new
        # one; a block that was already rotten stays unverifiable.
        block = read(boff, old_blen)
        sound = len(block) == old_blen and (
            not old_blen or chunk_checksum(block, boff, self.algorithm) == digest
        )
        block = _spliced(block, boff, lo, hi, data)[:new_blen].ljust(new_blen, b"\x00")
        fresh = chunk_checksum(block, boff, self.algorithm)
        return fresh if sound else fresh ^ 1

    def _sums_after_write(
        self, path: str, chunk_id: int, offset: int, data: bytes, read: Reader
    ) -> Optional[tuple[int, bytes]]:
        entry = self._get_sums(path, chunk_id)
        old_len, sums = entry if entry is not None else (0, b"")
        end = offset + len(data)
        new_len = max(old_len, end)
        # A full overwrite of the stored extent supersedes any quarantine.
        if offset == 0 and end >= old_len:
            self._quarantined.discard((path, chunk_id))
        if not data and end <= old_len:
            return None  # empty write inside the extent changes nothing
        lo = min(offset, old_len)  # zero-filled hole starts at old_len
        if new_len <= lo:
            return None
        # What changes is [lo, end): the hole's zeros, then the payload.
        view = memoryview(data if lo == offset else bytes(offset - lo) + bytes(data))
        b = self.block_size
        first, last = lo // b, (end - 1) // b
        # Blocks whose whole new extent [lo, end) covers digest from the
        # payload alone, as one run; the first and the last block may be
        # edges, which keep what their stored digest says about the rest.
        run_lo = -(-lo // b)
        run_hi = last + 1 if min(last * b + b, new_len) <= end else last

        def edge(k: int) -> bytes:
            boff = k * b
            wlo, whi = max(lo, boff), min(end, boff + b)
            old_blen = max(0, min(b, old_len - boff))
            return DIGEST.pack(self._edge_digest(
                read, boff, old_blen,
                DIGEST.unpack_from(sums, 8 * k)[0] if old_blen else None,
                wlo, whi, view[wlo - lo : whi - lo], min(b, new_len - boff),
            ))

        head = edge(first) if first < run_lo else b""
        run = b""
        if run_hi > run_lo:
            run = block_checksums(
                view[run_lo * b - lo : min(run_hi * b, new_len) - lo],
                b, self.algorithm, run_lo * b,
            )
        tail = edge(last) if run_hi <= last and (first < last or not head) else b""
        return new_len, b"".join([sums[: 8 * first], head, run, tail, sums[8 * last + 8 :]])

    def _sums_after_truncate(
        self, path: str, chunk_id: int, length: int, read: Reader
    ) -> Optional[tuple[int, bytes]]:
        """``length`` > 0; a cut to nothing drops the record instead
        (:meth:`_integrity_drop_chunk`)."""
        entry = self._get_sums(path, chunk_id)
        if entry is None:
            return None
        old_len, sums = entry
        if length >= old_len:
            return None
        b = self.block_size
        nblocks = (length + b - 1) // b
        if length % b:
            boff = (nblocks - 1) * b
            old_blen = min(b, old_len - boff)
            sums = sums[: 8 * nblocks - 8] + DIGEST.pack(self._edge_digest(
                read, boff, old_blen, DIGEST.unpack_from(sums, 8 * nblocks - 8)[0],
                length, boff + old_blen, b"", length - boff,
            ))
        return length, sums[: 8 * nblocks]

    def _integrity_drop_chunk(self, path: str, chunk_id: int) -> None:
        self._del_sums(path, chunk_id)
        self._quarantined.discard((path, chunk_id))

    def _integrity_drop_path(self, path: str) -> None:
        """Forget digest/quarantine state for every chunk of ``path``."""
        with self._lock:
            self._sums.pop(path, None)
            doomed = [key for key in self._quarantined if key[0] == path]
            self._quarantined.difference_update(doomed)
