"""Immutable sorted run (SSTable) with sparse index and bloom filter.

Flushing a memtable produces one SSTable; compaction merges several into
one.  The on-disk layout is a single blob (version 2)::

    magic "GKSS" | version u16
    data block   : repeated  key_len u32 | flags u8 | value_len u32 | key | value
    sparse index : repeated  key_len u32 | key | offset u64   (every Nth entry)
    bloom filter : serialised :class:`~repro.kvstore.bloom.BloomFilter`
    crc section  : crc u32 per data block | bloom_crc u32
    footer       : index_off u64 | index_len u64 | bloom_off u64 | bloom_len u64
                   | crc_off u64 | count u64 | magic

``flags`` bit 0 marks a tombstone (value empty).  Point reads consult the
bloom filter, binary-search the sparse index, then scan at most one index
interval — the standard bounded-read-amplification design.

A *data block* is one index interval's worth of records (the region
between consecutive index points), so the unit of checksum verification
matches the unit of read amplification: a point read verifies exactly
the block it scans, lazily, the first time that block is touched.  The
bloom filter's checksum is verified once at open — a rotted bloom filter
would otherwise silently turn into false negatives (lost keys), the one
bloom failure mode the structure itself cannot absorb.  Version 1 blobs
(no crc section) still load and read; they simply skip verification.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_right
from typing import Iterator, Optional, Union

from repro.kvstore.bloom import BloomFilter, key_hashes
from repro.kvstore.memtable import TOMBSTONE

__all__ = ["SSTable", "SSTableWriter", "INDEX_INTERVAL"]

_MAGIC = b"GKSS"
_VERSION = 2
_ENTRY = struct.Struct("<IBI")  # key_len, flags, value_len
_FOOTER_V1 = struct.Struct("<QQQQQ4s")
_FOOTER = struct.Struct("<QQQQQQ4s")  # v2: + crc_off
_FLAG_TOMBSTONE = 1

INDEX_INTERVAL = 16

Value = Union[bytes, object]  # bytes or TOMBSTONE


class SSTableWriter:
    """Builds one SSTable from entries supplied in ascending key order."""

    def __init__(self, expected_items: int = 1024, fp_rate: float = 0.01):
        self._chunks: list[bytes] = [_MAGIC + struct.pack("<H", _VERSION)]
        self._offset = len(self._chunks[0])
        self._index: list[tuple[bytes, int]] = []
        self._bloom = BloomFilter(max(1, expected_items), fp_rate)
        self._count = 0
        self._last_key: Optional[bytes] = None
        self._finished = False
        self._block_crcs: list[int] = []
        self._crc = 0

    def add(self, key: bytes, value: Value) -> None:
        """Append one entry; ``value`` is bytes or :data:`TOMBSTONE`."""
        if self._finished:
            raise RuntimeError("writer already finished")
        if self._last_key is not None and key <= self._last_key:
            raise ValueError(f"keys must be strictly ascending: {key!r} after {self._last_key!r}")
        self._last_key = key
        if self._count % INDEX_INTERVAL == 0:
            if self._count:
                self._block_crcs.append(self._crc)
            self._crc = 0
            self._index.append((key, self._offset))
        if value is TOMBSTONE:
            flags, payload = _FLAG_TOMBSTONE, b""
        elif isinstance(value, bytes):
            flags, payload = 0, value
        else:
            raise TypeError(f"value must be bytes or TOMBSTONE, got {type(value)}")
        record = _ENTRY.pack(len(key), flags, len(payload)) + key + payload
        self._chunks.append(record)
        self._offset += len(record)
        self._crc = zlib.crc32(record, self._crc)
        self._bloom.add(key)
        self._count += 1

    def finish(self) -> bytes:
        """Seal the table and return the serialised blob."""
        if self._finished:
            raise RuntimeError("writer already finished")
        self._finished = True
        index_off = self._offset
        index_parts = []
        for key, off in self._index:
            index_parts.append(struct.pack("<I", len(key)) + key + struct.pack("<Q", off))
        index_blob = b"".join(index_parts)
        bloom_off = index_off + len(index_blob)
        bloom_blob = self._bloom.to_bytes()
        if self._count:
            self._block_crcs.append(self._crc)
        crc_off = bloom_off + len(bloom_blob)
        crc_blob = struct.pack(
            f"<{len(self._block_crcs)}I", *self._block_crcs
        ) + struct.pack("<I", zlib.crc32(bloom_blob))
        footer = _FOOTER.pack(
            index_off, len(index_blob), bloom_off, len(bloom_blob),
            crc_off, self._count, _MAGIC,
        )
        return b"".join(self._chunks) + index_blob + bloom_blob + crc_blob + footer


class SSTable:
    """Read-only view over one serialised SSTable blob."""

    __slots__ = (
        "_blob", "_index_keys", "_index_offsets", "bloom", "count",
        "_data_end", "_block_crcs", "_verified",
    )

    def __init__(self, blob: bytes):
        if blob[:4] != _MAGIC:
            raise ValueError("not an SSTable: bad magic")
        (version,) = struct.unpack_from("<H", blob, 4)
        if version == 1:
            footer_struct = _FOOTER_V1
        elif version == _VERSION:
            footer_struct = _FOOTER
        else:
            raise ValueError(f"unsupported SSTable version {version}")
        footer = footer_struct.unpack_from(blob, len(blob) - footer_struct.size)
        if version == 1:
            index_off, index_len, bloom_off, bloom_len, count, magic = footer
            crc_off = None
        else:
            index_off, index_len, bloom_off, bloom_len, crc_off, count, magic = footer
        if magic != _MAGIC:
            raise ValueError("corrupt SSTable: bad footer magic")
        self._blob = blob
        self.count = count
        self._data_end = index_off
        keys: list[bytes] = []
        offsets: list[int] = []
        pos, end = index_off, index_off + index_len
        while pos < end:
            (klen,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            keys.append(blob[pos : pos + klen])
            pos += klen
            (off,) = struct.unpack_from("<Q", blob, pos)
            pos += 8
            offsets.append(off)
        self._index_keys = keys
        self._index_offsets = offsets
        bloom_blob = blob[bloom_off : bloom_off + bloom_len]
        if crc_off is None:
            self._block_crcs: Optional[tuple[int, ...]] = None
        else:
            # One crc per data block (= per index point), then the bloom crc.
            self._block_crcs = struct.unpack_from(f"<{len(offsets)}I", blob, crc_off)
            (bloom_crc,) = struct.unpack_from("<I", blob, crc_off + 4 * len(offsets))
            if zlib.crc32(bloom_blob) != bloom_crc:
                raise ValueError("corrupt SSTable: bloom filter checksum mismatch")
        self.bloom = BloomFilter.from_bytes(bloom_blob)
        self._verified: set[int] = set()

    def _block_end(self, block: int) -> int:
        if block + 1 < len(self._index_offsets):
            return self._index_offsets[block + 1]
        return self._data_end

    def _verify_block(self, block: int) -> None:
        """Check one data block's crc the first time it is scanned."""
        if self._block_crcs is None or block in self._verified:
            return
        start = self._index_offsets[block]
        if zlib.crc32(self._blob[start : self._block_end(block)]) != self._block_crcs[block]:
            raise ValueError(
                f"corrupt SSTable: data block {block} checksum mismatch"
            )
        self._verified.add(block)

    def __len__(self) -> int:
        return self.count

    @property
    def nbytes(self) -> int:
        """Serialised size of the whole table."""
        return len(self._blob)

    def _scan_from(self, offset: int) -> Iterator[tuple[bytes, Value, int]]:
        """Yield ``(key, value, next_offset)`` records starting at ``offset``."""
        blob = self._blob
        block = max(0, bisect_right(self._index_offsets, offset) - 1)
        block_end = -1  # force verification of the first block touched
        while offset < self._data_end:
            if offset >= block_end:
                block = max(block, bisect_right(self._index_offsets, offset) - 1)
                self._verify_block(block)
                block_end = self._block_end(block)
            key_len, flags, value_len = _ENTRY.unpack_from(blob, offset)
            key_start = offset + _ENTRY.size
            key = blob[key_start : key_start + key_len]
            if flags & _FLAG_TOMBSTONE:
                value: Value = TOMBSTONE
            else:
                value = blob[key_start + key_len : key_start + key_len + value_len]
            offset = key_start + key_len + value_len
            yield key, value, offset

    def _seek_offset(self, key: bytes) -> int:
        """Data offset of the last index point with key <= ``key``."""
        i = bisect_right(self._index_keys, key) - 1
        if i < 0:
            return self._index_offsets[0] if self._index_offsets else self._data_end
        return self._index_offsets[i]

    def get(self, key: bytes, hashes: Optional[tuple[int, int]] = None) -> Optional[Value]:
        """Point lookup: bytes, :data:`TOMBSTONE`, or ``None`` if absent.

        ``hashes`` are ``key``'s :func:`~repro.kvstore.bloom.key_hashes`
        when the caller already has them (computed here otherwise).
        """
        if self.count == 0 or not self.bloom.admits(hashes or key_hashes(key)):
            return None
        for found, value, _ in self._scan_from(self._seek_offset(key)):
            if found == key:
                return value
            if found > key:
                return None
        return None

    def range_iter(
        self, lo: Optional[bytes] = None, hi: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, Value]]:
        """Entries with ``lo <= key < hi`` in ascending order, tombstones included."""
        if self.count == 0:
            return
        start = self._index_offsets[0] if lo is None else self._seek_offset(lo)
        for key, value, _ in self._scan_from(start):
            if lo is not None and key < lo:
                continue
            if hi is not None and key >= hi:
                return
            yield key, value

    def __iter__(self) -> Iterator[tuple[bytes, Value]]:
        return self.range_iter()

    def to_bytes(self) -> bytes:
        return self._blob

    @classmethod
    def from_memtable(cls, memtable) -> "SSTable":
        """Flush a memtable (tombstones preserved) into a sealed table."""
        writer = SSTableWriter(expected_items=max(1, len(memtable)))
        for key, value in memtable.items():
            writer.add(key, value)
        return cls(writer.finish())
