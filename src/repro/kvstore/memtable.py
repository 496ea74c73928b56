"""Sorted in-memory write buffer (memtable) for the LSM store.

RocksDB buffers writes in a skiplist memtable; Python's pointer-chasing
makes a real skiplist slower than maintaining a sorted key list with
``bisect``, so that is what we use — identical contract (sorted iteration,
O(log n) point lookup, tombstoned deletes), better constants.  A delete
that no older run can shadow needs no tombstone: :meth:`Memtable.remove`
drops the entry outright.
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

    __slots__ = ("_keys", "_map", "_bytes", "_holes")

    def __init__(self):
        self._keys: list[bytes] = []  # sorted; may still hold removed keys
        self._map: dict[bytes, object] = {}
        self._bytes = 0  # approximate payload size, drives flush decisions
        self._holes = 0  # removed keys still in _keys

    def __len__(self) -> int:
        return len(self._map)

    @property
    def approximate_bytes(self) -> int:
        """Rough payload footprint (keys + values) used for flush sizing."""
        return self._bytes

    def put(self, key: bytes, value) -> None:
        """Insert or overwrite ``key`` (``value`` may be :data:`TOMBSTONE`)."""
        old = self._map.get(key)
        if old is None:
            if not self._holes:
                insort(self._keys, key)
            else:
                i = bisect_left(self._keys, key)
                if i < len(self._keys) and self._keys[i] == key:
                    self._holes -= 1  # a removed key is back in its slot
                else:
                    self._keys.insert(i, key)
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

    def remove(self, key: bytes) -> None:
        """Drop ``key`` outright, tombstone included (absent: a no-op).  Only
        for a key no older run can hold: nothing is left to shadow it.

        The key's slot in the sorted list stays as a hole until holes
        outnumber live keys, when the list is rebuilt: O(1) amortised,
        where deleting from the list would shift everything after it.
        """
        old = self._map.pop(key, None)
        if old is None:
            return
        self._bytes -= len(key) + (0 if old is TOMBSTONE else len(old))
        self._holes += 1
        if self._holes > len(self._map):
            self._keys = [k for k in self._keys if k in self._map]
            self._holes = 0

    def tombstones(self) -> int:
        """Entries that are :data:`TOMBSTONE` (walks the table: for gauges)."""
        return sum(1 for value in self._map.values() if value is TOMBSTONE)

    def get(self, key: bytes) -> Optional[object]:
        """Return the value, :data:`TOMBSTONE`, or ``None`` if absent."""
        return self._map.get(key)

    def __contains__(self, key: bytes) -> bool:
        return key in self._map

    def items(self) -> Iterator[tuple[bytes, object]]:
        """All entries (including tombstones) in ascending key order."""
        return self.range_items()

    def range_items(
        self, lo: Optional[bytes] = None, hi: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, object]]:
        """Entries with ``lo <= key < hi`` in ascending order.

        ``None`` bounds are open; tombstones are included (the LSM merge
        layer needs them to shadow older runs).
        """
        keys, values = self._keys, self._map
        start = 0 if lo is None else bisect_left(keys, lo)
        for i in range(start, len(keys)):
            key = keys[i]
            if hi is not None and key >= hi:
                return
            value = values.get(key)
            if value is not None:  # None: a hole left by remove
                yield key, value
