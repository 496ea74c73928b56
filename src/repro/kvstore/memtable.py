"""Sorted in-memory write buffer (memtable) for the LSM store.

RocksDB buffers writes in a skiplist memtable; Python's pointer-chasing
makes a real skiplist slower than maintaining a sorted key list with
``bisect``, so that is what we use — identical contract (sorted iteration,
O(log n) point lookup, tombstoned deletes), better constants.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator, Optional

__all__ = ["Memtable", "TOMBSTONE"]


class _Tombstone:
    """Sentinel marking a deleted key until compaction drops it."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<TOMBSTONE>"


TOMBSTONE = _Tombstone()


class Memtable:
    """Mutable sorted map from ``bytes`` keys to ``bytes`` values.

    Deletions are recorded as :data:`TOMBSTONE` values so they shadow
    older versions of the key living in SSTables below.
    """

    __slots__ = ("_keys", "_map", "_bytes")

    def __init__(self):
        self._keys: list[bytes] = []
        self._map: dict[bytes, object] = {}
        self._bytes = 0  # approximate payload size, drives flush decisions

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def approximate_bytes(self) -> int:
        """Rough payload footprint (keys + values) used for flush sizing."""
        return self._bytes

    def put(self, key: bytes, value) -> None:
        """Insert or overwrite ``key`` (``value`` may be :data:`TOMBSTONE`)."""
        old = self._map.get(key)
        if old is None and key not in self._map:
            insort(self._keys, key)
            self._bytes += len(key)
        elif isinstance(old, bytes):
            self._bytes -= len(old)
        self._map[key] = value
        if value is not TOMBSTONE:
            self._bytes += len(value)

    def delete(self, key: bytes) -> None:
        """Record a tombstone for ``key`` (even if never inserted here —
        it may exist in an older SSTable)."""
        self.put(key, TOMBSTONE)

    def get(self, key: bytes) -> Optional[object]:
        """Return the value, :data:`TOMBSTONE`, or ``None`` if absent."""
        return self._map.get(key)

    def __contains__(self, key: bytes) -> bool:
        return key in self._map

    def items(self) -> Iterator[tuple[bytes, object]]:
        """All entries (including tombstones) in ascending key order."""
        for key in self._keys:
            yield key, self._map[key]

    def range_items(
        self, lo: Optional[bytes] = None, hi: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, object]]:
        """Entries with ``lo <= key < hi`` in ascending order.

        ``None`` bounds are open; tombstones are included (the LSM merge
        layer needs them to shadow older runs).
        """
        start = 0 if lo is None else bisect_left(self._keys, lo)
        for i in range(start, len(self._keys)):
            key = self._keys[i]
            if hi is not None and key >= hi:
                return
            yield key, self._map[key]
