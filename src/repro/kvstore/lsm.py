"""LSM-tree store: memtable + WAL + size-tiered SSTable compaction.

This is the embedded store each GekkoFS daemon runs for its metadata
(the paper uses RocksDB).  The public surface is the subset GekkoFS
needs — ``put``/``get``/``delete``, atomic ``merge`` (read-modify-write,
used for file-size updates), and ``prefix_iter`` (``readdir`` over the
flat namespace) — implemented with the standard LSM machinery so the
performance characteristics carry over: O(1)-ish writes, reads bounded
by run count, sorted scans.

Memory follows the live namespace: a delete leaves a tombstone only where
some run's bloom filter admits the key, else the key leaves the memtable
(:meth:`LSMStore._apply`, on every delete path).  Churn then no longer
fills the memtable, so the WAL gets a bound of its own
(:data:`WAL_STALE_MULTIPLE`).
"""

from __future__ import annotations

import heapq
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.kvstore.bloom import key_hashes
from repro.kvstore.memtable import Memtable, TOMBSTONE
from repro.kvstore.sstable import SSTable, SSTableWriter
from repro.kvstore.wal import OP_BATCH, OP_DELETE, OP_PUT, RECORD_OVERHEAD, WriteAheadLog

__all__ = ["LSMStore", "LSMStats", "WAL_STALE_MULTIPLE", "prefix_upper_bound"]

#: A flush also fires once the WAL bytes the memtable no longer reflects
#: (overwritten values, dropped keys and their deletes) reach this multiple
#: of ``memtable_flush_bytes``.  Churn reached 4.5–5.4× before its first
#: flush when every delete left a tombstone (≈ 110–130 log bytes per removed
#: file, ≈ 21–29 charged), so the log never outgrows that; put-only logs
#: nothing stale and flushes where it always did.
WAL_STALE_MULTIPLE = 4


def prefix_upper_bound(prefix: bytes) -> Optional[bytes]:
    """Smallest key strictly greater than every key with ``prefix``.

    ``None`` means unbounded (the prefix is empty or all ``0xff``).
    """
    for i in range(len(prefix) - 1, -1, -1):
        if prefix[i] != 0xFF:
            return prefix[:i] + bytes([prefix[i] + 1])
    return None


@dataclass
class LSMStats:
    """Operation counters, exposed for benchmarks and tests."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    merges: int = 0
    scans: int = 0
    flushes: int = 0
    compactions: int = 0
    bloom_negative: int = 0  # point reads short-circuited by a bloom filter
    wal_appends: int = 0  # durable log records written (0 for in-memory stores)

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class LSMStore:
    """Thread-safe LSM key-value store over ``bytes`` keys and values.

    :param path: directory for WAL + SSTable files; ``None`` keeps
        everything in memory (no durability, same semantics).
    :param memtable_flush_bytes: flush threshold for the write buffer.
    :param compaction_fanout: maximum number of runs before a full merge.
    :param sync_wal: fsync the WAL on every write.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        memtable_flush_bytes: int = 4 * 1024 * 1024,
        compaction_fanout: int = 4,
        sync_wal: bool = False,
    ):
        if memtable_flush_bytes <= 0:
            raise ValueError("memtable_flush_bytes must be > 0")
        if compaction_fanout < 2:
            raise ValueError("compaction_fanout must be >= 2")
        self._flush_bytes = memtable_flush_bytes
        self._stale_wal_limit = WAL_STALE_MULTIPLE * memtable_flush_bytes
        self._fanout = compaction_fanout  # size-tiered: compact when runs exceed this
        self._lock = threading.RLock()
        self._memtable = Memtable()
        self._tables: list[SSTable] = []  # oldest first, newest last
        self._path = path
        self._wal: Optional[WriteAheadLog] = None
        self._next_table_seq = 0
        self.stats = LSMStats()
        self._closed = False
        if path is not None:
            os.makedirs(path, exist_ok=True)
            self._recover()
            self._wal = WriteAheadLog(self._wal_path(), sync=sync_wal)

    # -- recovery / persistence helpers -----------------------------------

    def _wal_path(self) -> str:
        assert self._path is not None
        return os.path.join(self._path, "wal.log")

    def _table_path(self, seq: int) -> str:
        assert self._path is not None
        return os.path.join(self._path, f"sst_{seq:08d}.sst")

    def _seal(self, seq: int, table: SSTable) -> None:
        """Write run ``seq`` whole or not at all: into ``sst_<seq>.tmp``,
        then renamed over its name.  A kill mid-write leaves only the
        ``.tmp``, which recovery removes."""
        path = self._table_path(seq)
        with open(path[:-4] + ".tmp", "wb") as fh:
            fh.write(table.to_bytes())
        os.replace(path[:-4] + ".tmp", path)

    def _recover(self) -> None:
        """Drop half-sealed runs, load the sealed SSTables in sequence
        order, then replay the WAL."""
        assert self._path is not None
        names = os.listdir(self._path)
        for name in names:
            if name.startswith("sst_") and name.endswith(".tmp"):
                os.remove(os.path.join(self._path, name))
        seqs = sorted(
            int(name[4:12])
            for name in names
            if name.startswith("sst_") and name.endswith(".sst")
        )
        for seq in seqs:
            with open(self._table_path(seq), "rb") as fh:
                self._tables.append(SSTable(fh.read()))
        self._next_table_seq = (seqs[-1] + 1) if seqs else 0
        for op, key, value in WriteAheadLog.replay(self._wal_path()):
            self._apply(op, key, value)

    # -- core operations ---------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("LSMStore is closed")

    @staticmethod
    def _check_key(key: bytes) -> None:
        if not isinstance(key, bytes):
            raise TypeError(f"key must be bytes, got {type(key)}")
        if not key:
            raise ValueError("key must be non-empty")

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        if not (isinstance(key, bytes) and key):
            self._check_key(key)  # raises
        if not isinstance(value, bytes):
            raise TypeError(f"value must be bytes, got {type(value)}")
        with self._lock:
            if self._closed:
                self._check_open()  # raises
            self._record(OP_PUT, key, value)
            self.stats.puts += 1

    def _record(self, op: int, key: bytes, value: Optional[bytes]) -> None:
        """Log, then apply, one put or delete (``value`` ``None``); lock held."""
        if self._wal is not None:
            self._wal.append(op, key, value or b"")
            self.stats.wal_appends += 1
        self._apply(op, key, value)
        self._maybe_flush()

    def _apply(self, op: int, key: bytes, value: Optional[bytes]) -> None:
        """The memtable side of one logged put or delete; lock held.

        A delete tombstones ``key`` only while a run may hold it; with no
        run to shadow, the key simply leaves the memtable.
        """
        if op == OP_PUT:
            self._memtable.put(key, value)
        elif self._runs_may_hold(key):
            self._memtable.delete(key)
        else:
            self._memtable.remove(key)

    def _runs_may_hold(self, key: bytes) -> bool:
        """Whether some run's bloom filter admits ``key`` (hashed once)."""
        if not self._tables:
            return False
        hashes = key_hashes(key)
        return any(table.bloom.admits(hashes) for table in self._tables)

    def get(self, key: bytes) -> Optional[bytes]:
        """Point lookup; ``None`` if the key is absent or deleted."""
        if not (isinstance(key, bytes) and key):
            self._check_key(key)  # raises
        with self._lock:
            if self._closed:
                self._check_open()  # raises
            self.stats.gets += 1
            value = self._memtable.get(key)
            if value is not None:
                return None if value is TOMBSTONE else value  # type: ignore[return-value]
            if not self._tables:
                return None
            hashes = key_hashes(key)  # once, for every run's filter
            for table in reversed(self._tables):  # newest first
                if not table.bloom.admits(hashes):
                    self.stats.bloom_negative += 1
                    continue
                value = table.get(key, hashes)
                if value is not None:
                    return None if value is TOMBSTONE else value  # type: ignore[return-value]
            return None

    def delete(self, key: bytes) -> None:
        """Remove ``key`` (a no-op delete is not an error).

        Logged always; a tombstone only if a run may hold ``key``.
        """
        if not (isinstance(key, bytes) and key):
            self._check_key(key)  # raises
        with self._lock:
            if self._closed:
                self._check_open()  # raises
            self._record(OP_DELETE, key, None)
            self.stats.deletes += 1

    def merge(self, key: bytes, fn: Callable[[Optional[bytes]], bytes]) -> bytes:
        """Atomic read-modify-write: store and return ``fn(current)``.

        GekkoFS daemons use this for concurrent file-size updates — many
        writers race to extend one file's size, and the update must be a
        serialised max/accumulate on the metadata owner (§IV-B).  A result
        equal to the stored value is not written: no log record, no
        memtable entry.
        """
        self._check_key(key)
        with self._lock:
            self._check_open()
            self.stats.merges += 1
            current = self.get(key)
            self.stats.gets -= 1  # internal read, not a client get
            new = fn(current)
            if not isinstance(new, bytes):
                raise TypeError(f"merge fn must return bytes, got {type(new)}")
            if new != current:
                self._record(OP_PUT, key, new)
            return new

    def write_batch(self, ops: "list[tuple[str, bytes, Optional[bytes]]]") -> None:
        """Apply ``[("put", k, v) | ("delete", k, None), ...]`` atomically.

        Atomic on two axes: concurrent readers see all-or-nothing (the
        store lock covers the whole application), and crash recovery
        replays all-or-nothing (the batch is one CRC-covered WAL record
        — RocksDB WriteBatch semantics).
        """
        encoded: list[tuple[int, bytes, bytes]] = []
        for kind, key, value in ops:
            self._check_key(key)
            if kind == "put":
                if not isinstance(value, bytes):
                    raise TypeError(f"put value must be bytes, got {type(value)}")
                encoded.append((OP_PUT, key, value))
            elif kind == "delete":
                encoded.append((OP_DELETE, key, b""))
            else:
                raise ValueError(f"batch op must be 'put' or 'delete', got {kind!r}")
        with self._lock:
            self._check_open()
            if not encoded:
                return
            if self._wal is not None:
                self._wal.append(OP_BATCH, b"\x00", WriteAheadLog.encode_batch(encoded))
                self.stats.wal_appends += 1
            for op, key, value in encoded:
                self._apply(op, key, value)
                if op == OP_PUT:
                    self.stats.puts += 1
                else:
                    self.stats.deletes += 1
            self._maybe_flush()

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    # -- iteration ----------------------------------------------------------

    def range_iter(
        self, lo: Optional[bytes] = None, hi: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Live entries with ``lo <= key < hi``, ascending, newest version wins.

        Takes a consistent snapshot of the run list under the lock, then
        iterates outside it (mutations during iteration affect neither
        correctness nor the snapshot).
        """
        with self._lock:
            self._check_open()
            self.stats.scans += 1
            sources: list[Iterator[tuple[bytes, object]]] = [
                table.range_iter(lo, hi) for table in self._tables
            ]
            sources.append(iter(list(self._memtable.range_items(lo, hi))))
        yield from self._newest_live(sources)

    def prefix_iter(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """All live entries whose key starts with ``prefix`` (readdir scan)."""
        return self.range_iter(prefix or None, prefix_upper_bound(prefix))

    def __len__(self) -> int:
        """Number of live keys (walks every run; meant for tests/tools)."""
        return sum(1 for _ in self.range_iter())

    # -- flush & compaction --------------------------------------------------

    def _maybe_flush(self) -> None:
        memtable = self._memtable
        if memtable.approximate_bytes >= self._flush_bytes:
            self.flush()
        elif (
            self._wal is not None
            and self._wal.bytes >= self._stale_wal_limit  # cheap: stale <= the whole log
            # stale = the log less one record per memtable entry
            and self._wal.bytes - memtable.approximate_bytes - RECORD_OVERHEAD * len(memtable)
            >= self._stale_wal_limit
        ):
            self.flush()

    def flush(self) -> None:
        """Seal the memtable into a new SSTable run and reset the WAL.

        An empty memtable seals nothing, but its WAL still resets: every
        record left in it is a delete of a key no run holds.
        """
        with self._lock:
            self._check_open()
            sealed = len(self._memtable) > 0
            if sealed:
                table = SSTable.from_memtable(self._memtable)
                if self._path is not None:
                    self._seal(self._next_table_seq, table)
                self._next_table_seq += 1
                self._tables.append(table)
                self._memtable = Memtable()
                self.stats.flushes += 1
            if self._wal is not None and self._wal.bytes:
                self._wal.close()
                WriteAheadLog.truncate(self._wal_path())
                self._wal = WriteAheadLog(self._wal_path(), sync=self._wal.sync)
            if sealed and len(self._tables) > self._fanout:
                self.compact()

    def compact(self) -> None:
        """Merge all runs into one, dropping shadowed versions and tombstones.

        A full (major) compaction may drop tombstones because no older run
        can still hold a shadowed version afterwards.
        """
        with self._lock:
            self._check_open()
            if len(self._tables) <= 1:
                return
            old_tables = self._tables
            old_seq_range = range(self._next_table_seq - len(old_tables), self._next_table_seq)
            writer = SSTableWriter(expected_items=max(1, sum(t.count for t in old_tables)))
            count = 0
            for key, value in self._newest_live([t.range_iter() for t in old_tables]):
                writer.add(key, value)
                count += 1
            merged = SSTable(writer.finish()) if count else None
            if self._path is not None:
                if merged is not None:
                    self._seal(self._next_table_seq, merged)
                for seq in old_seq_range:
                    p = self._table_path(seq)
                    if os.path.exists(p):
                        os.remove(p)
            self._next_table_seq += 1
            self._tables = [merged] if merged is not None else []
            self.stats.compactions += 1
            # A tombstone the merged run does not admit shadows nothing now.
            for key in [k for k, v in self._memtable.items() if v is TOMBSTONE]:
                if not self._runs_may_hold(key):
                    self._memtable.remove(key)

    @staticmethod
    def _newest_live(sources: list) -> Iterator[tuple[bytes, bytes]]:
        """K-way merge of sorted ``(key, value)`` sources, oldest first:
        the newest version of each key, tombstones dropped."""
        # Recency = position in `sources`: higher index is newer.  The heap
        # orders by (key, -recency) so the newest version of a key pops first.
        heap: list[tuple[bytes, int, object, Iterator]] = []
        for recency, src in enumerate(sources):
            for key, value in src:
                heap.append((key, -recency, value, src))
                break
        heapq.heapify(heap)
        last_key: Optional[bytes] = None
        while heap:
            key, neg_recency, value, src = heapq.heappop(heap)
            for nkey, nvalue in src:
                heapq.heappush(heap, (nkey, neg_recency, nvalue, src))
                break
            if key == last_key:
                continue  # older version shadowed by a newer run
            last_key = key
            if value is not TOMBSTONE:
                yield key, value  # type: ignore[misc]

    # -- lifecycle -------------------------------------------------------------

    @property
    def num_runs(self) -> int:
        """Current number of SSTable runs (compaction health signal)."""
        with self._lock:
            return len(self._tables)

    @property
    def memtable_entries(self) -> int:
        """Keys buffered in the memtable, tombstones included."""
        with self._lock:
            return len(self._memtable)

    @property
    def memtable_tombstones(self) -> int:
        """Tombstones in the memtable (walks it: for gauges and tests)."""
        with self._lock:
            return self._memtable.tombstones()

    @property
    def wal_bytes(self) -> int:
        """Size of the WAL a restart would replay (0 for in-memory stores)."""
        with self._lock:
            return self._wal.bytes if self._wal is not None else 0

    def close(self) -> None:
        """Flush buffered state and release the WAL file handle."""
        with self._lock:
            if self._closed:
                return
            if len(self._memtable) > 0:
                self.flush()
            if self._wal is not None:
                self._wal.close()
            self._closed = True

    def crash(self) -> None:
        """Crash-stop the store: drop volatile state, *no* clean shutdown.

        Unlike :meth:`close`, the memtable is **not** flushed into an
        SSTable and the WAL is **not** truncated — the directory is left
        exactly as a killed daemon process leaves its node-local SSD:
        sealed runs plus a WAL tail.  Constructing a new store over the
        same path replays that tail (:meth:`_recover`), which is the
        daemon-restart recovery path.  An in-memory store simply loses
        everything.

        Every acknowledged record is already in the kernel (one
        ``write`` per record), as after a process crash; only
        fsync/power-loss durability is out of scope.
        The store is unusable afterwards, like any closed store.
        """
        with self._lock:
            if self._closed:
                return
            if self._wal is not None:
                self._wal.close()
            self._memtable = Memtable()
            self._tables = []
            self._closed = True

    def __enter__(self) -> "LSMStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
