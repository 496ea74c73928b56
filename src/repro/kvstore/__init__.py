"""Embedded LSM-tree key-value store — the RocksDB substitute.

Each GekkoFS daemon operates one local RocksDB instance for metadata
(§III-B).  This package provides the same contract from scratch:

* sorted point reads/writes with delete tombstones — kept only where a
  sealed run may hold the key, so memory follows the live namespace,
* atomic read-modify-write (``merge``) — GekkoFS uses this for file-size
  updates coming from concurrent chunk writers,
* prefix iteration — GekkoFS implements ``readdir`` as a prefix scan over
  the flat namespace,
* durability via a write-ahead log (bounded on its own: stale log bytes
  flush it) and immutable SSTables with bloom filters, size-tiered
  compaction keeping read amplification bounded.

The store runs fully in memory (``path=None``) or persists to a directory,
matching the daemon's node-local-SSD deployment.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "bloom": ["BloomFilter"],
    "memtable": ["Memtable", "TOMBSTONE"],
    "sstable": ["SSTable", "SSTableWriter"],
    "lsm": ["LSMStore", "LSMStats"],
    "wal": ["WriteAheadLog"],
})
