"""Client-side chunk cache — the §V "evaluate benefits of caching" study.

GekkoFS is deliberately cache-less in the paper (synchronous operations,
raw performance visibility, §III-A); caching is explicitly named future
work (§V).  This module implements the natural first step: an LRU cache
of whole chunks on the client.

* Read miss fetches the *entire* chunk (intra-chunk readahead), serves
  the requested span from it, and caches the rest.
* Reads within cached chunks cost zero RPCs.
* The client's own writes update the cached copy (read-your-writes).
* Remote writes are NOT invalidated — cross-client staleness is the
  documented price, acceptable under GekkoFS's no-overlapping-access
  application contract (§III-A).  `unlink`/`truncate`/`O_TRUNC`/`rename`
  drop cached state (rename drops the *destination* path too: the path
  may have been removed and recreated by other clients, and a surviving
  entry would serve stale bytes where the daemons hold holes).

The ABL-CACHE-DATA bench quantifies the RPC savings.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.cache import CacheHooks

__all__ = ["ChunkCache", "ChunkCacheStats"]


@dataclass
class ChunkCacheStats:
    """Hit/miss accounting."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ChunkCache(CacheHooks):
    """LRU cache of chunk contents keyed by ``(path, chunk_id)``.

    Cached entries are ``bytearray`` snapshots of the chunk *as fetched*
    (possibly shorter than the chunk size — sparse tails read as zeros,
    matching daemon semantics).

    :param capacity_bytes: eviction threshold over summed entry sizes.
    :param chunk_size: deployment chunk size (bounds entry sizes).
    """

    def __init__(self, capacity_bytes: int, chunk_size: int):
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be > 0, got {capacity_bytes}")
        if chunk_size <= 0 or chunk_size > capacity_bytes:
            raise ValueError(
                f"chunk_size must be in (0, capacity]: {chunk_size} vs {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self.chunk_size = chunk_size
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple[str, int], bytearray]" = OrderedDict()
        self._used = 0
        self.stats = ChunkCacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self._used

    def get(self, path: str, chunk_id: int) -> bytes | None:
        """Cached chunk contents, or ``None`` on a miss (stats updated)."""
        key = (path, chunk_id)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return bytes(entry)

    def put(self, path: str, chunk_id: int, data: bytes) -> None:
        """Insert a freshly fetched chunk, evicting LRU entries as needed."""
        if len(data) > self.chunk_size:
            raise ValueError(f"entry of {len(data)} bytes exceeds chunk size {self.chunk_size}")
        key = (path, chunk_id)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._used -= len(old)
            self._entries[key] = bytearray(data)
            self._used += len(data)
            while self._used > self.capacity_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._used -= len(evicted)
                self.stats.evictions += 1

    def update(self, path: str, chunk_id: int, offset: int, data: bytes) -> None:
        """Apply the client's own write to a cached chunk (if present).

        Keeps read-your-writes without a fetch; chunks never written into
        the cache are left alone (write-no-allocate keeps the cache a
        *read* cache, like the §V sketch).
        """
        if offset < 0 or offset + len(data) > self.chunk_size:
            raise ValueError(f"write [{offset}, {offset + len(data)}) exceeds chunk bounds")
        key = (path, chunk_id)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return
            end = offset + len(data)
            if end > len(entry):
                grow = end - len(entry)
                entry.extend(b"\x00" * grow)
                self._used += grow
            entry[offset:end] = data
            self._entries.move_to_end(key)

    def invalidate_path(self, path: str) -> int:
        """Drop every cached chunk of ``path`` (unlink/truncate/rename);
        returns count."""
        with self._lock:
            doomed = [key for key in self._entries if key[0] == path]
            for key in doomed:
                self._used -= len(self._entries.pop(key))
            self.stats.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self.stats.invalidations += len(self._entries)
            self._entries.clear()
            self._used = 0

    # -- CacheHooks: own writes update cached chunks; removed bytes drop them.

    def wrote(self, rel: str, spans: list, view, end):
        for span in spans:
            piece = view[span.buffer_offset : span.buffer_offset + span.length]
            self.update(rel, span.chunk_id, span.offset, bytes(piece))
        return end

    def gone(self, rel: str) -> int:
        self.invalidate_path(rel)
        return 0

    def register_gauges(self, registry) -> None:
        registry.mirror("cache.data_", lambda: self.stats,
                        ("hits", "misses", "evictions", "invalidations", "hit_rate"))
