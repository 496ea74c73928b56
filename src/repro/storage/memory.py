"""In-memory chunk storage backend.

The default backend for tests, examples and simulation: identical
semantics to the directory-backed store (sparse zero-fill, short reads,
per-chunk truncation) with no I/O.  With integrity enabled, per-block
digests live in the base class's table, keyed like the payload — the
in-memory equivalent of the on-disk sidecar files.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.storage.backend import ChunkStorage, Reader

__all__ = ["MemoryChunkStorage"]


def _slices(chunk: bytearray) -> Reader:
    return lambda offset, length: bytes(chunk[offset : offset + length])


class MemoryChunkStorage(ChunkStorage):
    """Chunks held as ``bytearray`` objects keyed by ``(path, chunk_id)``."""

    def __init__(self, chunk_size: int, **integrity_opts):
        super().__init__(chunk_size, **integrity_opts)
        self._files: dict[str, dict[int, bytearray]] = {}

    def write_chunk(self, path: str, chunk_id: int, offset: int, data: bytes) -> int:
        self._check_range(offset, len(data))
        with self._lock:
            chunks = self._files.setdefault(path, {})
            chunk = chunks.get(chunk_id)
            if chunk is None:
                chunk = bytearray()
                chunks[chunk_id] = chunk
                self.stats.chunks_created += 1
            record = self._sums_after_write(
                path, chunk_id, offset, data, _slices(chunk)) if self.integrity else None
            if offset > len(chunk):
                chunk.extend(b"\x00" * (offset - len(chunk)))  # sparse hole
            end = offset + len(data)
            if end > len(chunk):
                chunk.extend(b"\x00" * (end - len(chunk)))
            chunk[offset:end] = data
            self.stats.bytes_written += len(data)
            self.stats.write_ops += 1
            if record:
                self._set_sums(path, chunk_id, *record)
            return len(data)

    def _reader(self, path: str, chunk_id: int) -> Reader:
        return _slices(self._files.get(path, {}).get(chunk_id, b""))

    def truncate_chunk(self, path: str, chunk_id: int, length: int) -> None:
        self._check_range(0, length)
        with self._lock:
            chunks = self._files.get(path)
            if chunks is None or chunk_id not in chunks:
                return
            chunk = chunks[chunk_id]
            record = self._sums_after_truncate(
                path, chunk_id, length, _slices(chunk)) if self.integrity and length else None
            if length == 0:
                self._forget(path, chunks, [chunk_id])
            else:
                del chunk[length:]  # shrink-only: a no-op at or past the end
            if record:
                self._set_sums(path, chunk_id, *record)

    def remove_chunks(self, path: str) -> int:
        with self._lock:
            chunks = self._files.pop(path, None)
            count = len(chunks) if chunks else 0
            self.stats.chunks_removed += count
            if self.integrity:
                self._integrity_drop_path(path)
            return count

    def remove_chunks_from(self, path: str, first_chunk: int) -> int:
        with self._lock:
            chunks = self._files.get(path)
            if not chunks:
                return 0
            doomed = [cid for cid in chunks if cid >= first_chunk]
            self._forget(path, chunks, doomed)
            return len(doomed)

    def _forget(self, path: str, chunks: dict, chunk_ids: list) -> None:
        """Drop chunks of ``path``, and its container with the last of
        them (the rule the disk backend's directory follows)."""
        for chunk_id in chunk_ids:
            del chunks[chunk_id]
            if self.integrity:
                self._integrity_drop_chunk(path, chunk_id)
        self.stats.chunks_removed += len(chunk_ids)
        if not chunks:
            del self._files[path]

    def chunk_ids(self, path: str) -> Iterable[int]:
        with self._lock:
            return sorted(self._files.get(path, {}))

    def chunk_lengths(self, path: str) -> list[tuple[int, int]]:
        with self._lock:
            return sorted(
                (chunk_id, len(chunk))
                for chunk_id, chunk in self._files.get(path, {}).items()
            )

    def paths(self, after: Optional[str] = None) -> Iterable[str]:
        with self._lock:
            return sorted(path for path in self._files if after is None or path > after)

    def used_bytes(self) -> int:
        with self._lock:
            return sum(
                len(chunk) for chunks in self._files.values() for chunk in chunks.values()
            )

    # -- fault injectors (the digest table itself lives in the base class) --

    def corrupt_chunk(
        self, path: str, chunk_id: int, byte_offset: int, xor: int = 0xA5
    ) -> bool:
        with self._lock:
            chunk = self._files.get(path, {}).get(chunk_id)
            if chunk is None or not 0 <= byte_offset < len(chunk):
                return False
            chunk[byte_offset] ^= xor & 0xFF or 0xA5
            return True

    def tear_chunk(self, path: str, chunk_id: int, keep_bytes: int) -> bool:
        with self._lock:
            chunk = self._files.get(path, {}).get(chunk_id)
            if chunk is None or keep_bytes >= len(chunk):
                return False
            del chunk[keep_bytes:]
            return True
