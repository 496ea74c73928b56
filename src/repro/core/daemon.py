"""The GekkoFS daemon: KV metadata + chunk I/O + RPC handlers.

One daemon runs per file-system node (§III-B).  It owns

1. a key-value store for metadata (one record per path, flat namespace),
2. an I/O persistence layer storing one file per chunk, and
3. an RPC server exposing the handlers below.

Daemons are fully independent: they never talk to each other, and each
request touches exactly one daemon — that independence is what makes the
paper's linear scaling possible.  Client-side logic (span splitting,
fan-out, size-update routing) lives in :mod:`repro.core.client`.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Iterator, Optional

from repro.common.errors import (
    ExistsError,
    IntegrityError,
    IsADirectoryError_,
    NotADirectoryError_,
    NotFoundError,
)
from repro.storage.integrity import DIGEST, chunk_checksum
from repro.core import chunking
from repro.core.metadata import record_head, resize_record
from repro.kvstore import LSMStore
from repro.metacache import HotMetaPlane, meta_version
from repro.rpc import BulkHandle, RpcEngine
from repro.storage import ChunkStorage, MemoryChunkStorage
from repro.storage.backend import UNGUARDED
from repro.telemetry.metrics import MetricsRegistry

__all__ = [
    "GekkoDaemon",
    "HANDLER_NAMES",
    "DATA_HANDLER_NAMES",
    "INVENTORY_PAGE",
    "read_chunks",
    "read_records",
]

#: Every RPC a daemon serves; clients assert this set at mount time, the
#: way GekkoFS validates its hosts file.
HANDLER_NAMES = (
    "gkfs_create",
    "gkfs_stat",
    "gkfs_stat_lease",
    "gkfs_stat_if_changed",
    "gkfs_put_hot_replica",
    "gkfs_drop_hot_replica",
    "gkfs_remove_metadata",
    "gkfs_install_records",
    "gkfs_update_size",
    "gkfs_truncate_metadata",
    "gkfs_readdir",
    "gkfs_readdir_plus",
    "gkfs_write_chunks",
    "gkfs_read_chunks",
    "gkfs_replace_chunk",
    "gkfs_remove_chunks",
    "gkfs_truncate_chunks",
    "gkfs_chunk_digest",
    "gkfs_quarantine_chunk",
    "gkfs_inventory",
    "gkfs_set_epoch",
    "gkfs_statfs",
    "gkfs_metrics",
    "gkfs_ping",
    "gkfs_trace_dump",
    "gkfs_metrics_window",
    "gkfs_flight_dump",
)

#: Handlers that move chunk payloads.  The QoS plane routes these onto a
#: daemon's dedicated *data* execution lane (the paper's separate
#: Argobots streams for bulk I/O); everything else — metadata, listings,
#: introspection — shares the *meta* lane, so a data flood cannot starve
#: a stat.
DATA_HANDLER_NAMES = frozenset(
    {"gkfs_write_chunks", "gkfs_read_chunks", "gkfs_replace_chunk"}
)


#: Entries (records or chunks, a page never mixes them) per
#: ``gkfs_inventory`` page.
INVENTORY_PAGE = 4096

#: The ``gkfs_inventory`` cursor of a listing that starts at the chunks.
_FIRST_CHUNK = ("chunks", None, -1)


def read_records(fetch: Callable[..., dict]) -> Iterator[tuple[str, bytes]]:
    """Every metadata record one daemon holds, as ``(path, record)``.

    ``fetch(after, limit)`` is that daemon's ``gkfs_inventory`` — over
    RPC (``functools.partial(call, address, "gkfs_inventory")``) or the
    daemon's own :meth:`GekkoDaemon.inventory` in process.
    """
    page = fetch(None, INVENTORY_PAGE)
    yield from page["records"]
    while page["after"][0] == "records":
        page = fetch(page["after"], INVENTORY_PAGE)
        yield from page["records"]


def read_chunks(fetch: Callable[..., dict]) -> Iterator[tuple[str, int, int, bool]]:
    """Every chunk one daemon holds, as ``(path, chunk_id, length,
    quarantined)``, through the same ``fetch`` as :func:`read_records`;
    the cursor starts past the records, so none is listed."""
    after = _FIRST_CHUNK
    while after is not None:
        page = fetch(after, INVENTORY_PAGE)
        yield from page["chunks"]
        after = page["after"]


class GekkoDaemon:
    """One file-system node's server process.

    :param address: this daemon's RPC address (its node id).
    :param engine: the RPC engine to register handlers on.
    :param chunk_size: deployment chunk size (must match all clients).
    :param kv: metadata store; a fresh in-memory LSM store by default.
    :param storage: chunk backend; in-memory by default.
    :param hotmeta: hot-metadata plane (tracker + replica table); ``None``
        keeps the paper behaviour — lease RPCs still work, nothing is
        counted or replicated.
    """

    def __init__(
        self,
        address: int,
        engine: RpcEngine,
        chunk_size: int,
        kv: Optional[LSMStore] = None,
        storage: Optional[ChunkStorage] = None,
        hotmeta: Optional[HotMetaPlane] = None,
    ):
        self.address = address
        self.engine = engine
        self.chunk_size = chunk_size
        self.kv = kv if kv is not None else LSMStore()
        self.storage = storage if storage is not None else MemoryChunkStorage(chunk_size)
        if self.storage.chunk_size != chunk_size:
            raise ValueError(
                f"storage chunk size {self.storage.chunk_size} != deployment {chunk_size}"
            )
        # Serialises metadata check-and-set sequences (create, remove).
        # Single-record operations this lock protects are exactly the ones
        # the paper promises strong consistency for.
        self._meta_lock = threading.Lock()
        #: Queue-depth probe, wired by the cluster when the transport has
        #: per-daemon queues (ThreadedTransport); 0 otherwise.
        self.queue_depth_fn = lambda: 0
        #: Observability attach points, wired by the cluster / serve
        #: launcher when telemetry is on; all default None so the
        #: handlers answer honestly on an uninstrumented daemon.
        self.windows = None  # MetricsWindows ring
        self.flight_recorder = None  # FlightRecorder
        self.hotmeta = hotmeta
        self.metrics = self._build_metrics()
        self._register_handlers()

    def _build_metrics(self) -> MetricsRegistry:
        """One registry enumerating every layer's counters for this daemon.

        The existing stats objects (``LSMStats``, ``StorageStats``, the
        engine's counters) stay where they are and keep their public
        spellings — the registry mirrors them through snapshot-time
        gauges, so the hot paths pay nothing for the unified view.
        """
        registry = MetricsRegistry()
        # kvstore internals.
        registry.mirror("kv.", lambda: self.kv.stats, (
            "puts", "gets", "deletes", "merges", "scans",
            "flushes", "compactions", "bloom_negative", "wal_appends"))
        # kv.records walks every run on each scrape, kv.memtable_tombstones
        # the memtable; the other two read what the store keeps anyway.
        registry.gauge("kv.records", lambda: len(self.kv))
        registry.gauge("kv.memtable_entries", lambda: self.kv.memtable_entries)
        registry.gauge("kv.memtable_tombstones", lambda: self.kv.memtable_tombstones)
        registry.gauge("kv.wal_bytes", lambda: self.kv.wal_bytes)
        registry.gauge("storage.open_handles", lambda: self.storage.open_handles)
        # chunk storage.
        registry.mirror("storage.", lambda: self.storage.stats, (
            "bytes_written", "bytes_read", "write_ops", "read_ops",
            "chunks_created", "chunks_removed"))
        registry.gauge("storage.used_bytes", lambda: self.storage.used_bytes())
        # integrity plane (only when the backend checksums).
        if self.storage.integrity:
            registry.mirror("integrity.", lambda: self.storage.integrity_stats, (
                "verified_reads", "checksum_failures", "torn_chunks",
                "chunks_replaced", "chunks_quarantined"))
            registry.gauge(
                "integrity.quarantined_now", lambda: len(self.storage.quarantined)
            )
        # hot-metadata plane (only when this daemon runs one).
        if self.hotmeta is not None:
            registry.mirror("metacache.", lambda: self.hotmeta.tracker.stats, (
                "reads_noted", "mutations_noted", "promotions", "demotions",
                "seeds_issued"))
            registry.mirror("metacache.replica_", lambda: self.hotmeta.replicas.stats,
                            ("puts", "hits", "misses", "drops", "expirations"))
            registry.gauge("metacache.hot_now", lambda: self.hotmeta.tracker.hot_count())
            registry.gauge("metacache.replica_entries", lambda: len(self.hotmeta.replicas))
        # RPC server.
        for name in HANDLER_NAMES:
            registry.gauge(
                f"rpc.calls.{name}", lambda n=name: self.engine.calls_served[n]
            )
        registry.gauge("rpc.bytes_in", lambda: self.engine.bytes_in)
        registry.gauge("rpc.bytes_out", lambda: self.engine.bytes_out)
        registry.gauge("server.queue_depth", lambda: self.queue_depth_fn())
        # Per-handler latency histograms land in this registry when the
        # engine runs instrumented (cluster sets engine.metrics to it).
        return registry

    def _register_handlers(self) -> None:
        self.engine.register("gkfs_create", self.create)
        self.engine.register("gkfs_stat", self.stat)
        self.engine.register("gkfs_stat_lease", self.stat_lease)
        self.engine.register("gkfs_stat_if_changed", self.stat_if_changed)
        self.engine.register("gkfs_put_hot_replica", self.put_hot_replica)
        self.engine.register("gkfs_drop_hot_replica", self.drop_hot_replica)
        self.engine.register("gkfs_remove_metadata", self.remove_metadata)
        self.engine.register("gkfs_install_records", self.install_records)
        self.engine.register("gkfs_update_size", self.update_size)
        self.engine.register("gkfs_truncate_metadata", self.truncate_metadata)
        self.engine.register("gkfs_readdir", self.readdir)
        self.engine.register("gkfs_readdir_plus", self.readdir_plus)
        self.engine.register("gkfs_write_chunks", self.write_chunks)
        self.engine.register("gkfs_read_chunks", self.read_chunks)
        self.engine.register("gkfs_replace_chunk", self.replace_chunk)
        self.engine.register("gkfs_remove_chunks", self.remove_chunks)
        self.engine.register("gkfs_truncate_chunks", self.truncate_chunks)
        self.engine.register("gkfs_chunk_digest", self.chunk_digest)
        self.engine.register("gkfs_quarantine_chunk", self.quarantine_chunk)
        self.engine.register("gkfs_inventory", self.inventory)
        self.engine.register("gkfs_set_epoch", self.set_epoch)
        self.engine.register("gkfs_statfs", self.statfs)
        self.engine.register("gkfs_metrics", self.metrics_snapshot)
        self.engine.register("gkfs_ping", self.ping)
        self.engine.register("gkfs_trace_dump", self.trace_dump)
        self.engine.register("gkfs_metrics_window", self.metrics_window)
        self.engine.register("gkfs_flight_dump", self.flight_dump)

    # -- metadata handlers ---------------------------------------------------

    def create(self, path: str, metadata: bytes, exclusive: bool) -> bytes:
        """Create the record for ``path`` if absent.

        Returns the record now stored: the new one, or — when the path
        already exists and ``exclusive`` is false (plain ``O_CREAT``) —
        the pre-existing one.  ``exclusive`` mirrors ``O_EXCL``/``mkdir``.
        """
        key = path.encode("utf-8")
        with self._meta_lock:
            existing = self.kv.get(key)
            if existing is not None:
                if exclusive:
                    raise ExistsError(path)
                return existing
            self.kv.put(key, metadata)
        self._note_meta_mutation(path)
        return metadata

    def stat(self, path: str) -> bytes:
        """Return the metadata record or raise ENOENT."""
        value = self.kv.get(path.encode("utf-8"))
        if value is None:
            raise NotFoundError(path)
        return value

    def _note_meta_mutation(self, path: str) -> None:
        """The record changed: demote the key, drop any replica copy."""
        if self.hotmeta is not None:
            was_hot = self.hotmeta.tracker.note_mutation(path)
            dropped = self.hotmeta.replicas.drop(path)
            if (was_hot or dropped) and self.engine.collector is not None:
                self.engine.collector.instant(
                    "metacache.demote", "metacache", path=path
                )

    def stat_lease(self, path: str) -> dict:
        """Metadata record plus hot-replication state — the cache-fill RPC.

        ``hot`` is the replication fan-out the client should spread its
        revalidations across (0 = cold key); ``seed`` tells exactly one
        reader per promotion window to push the record to the replicas
        (client-assisted replication — daemons never talk to each other).
        """
        value = self.stat(path)
        hot, seed = (0, False)
        if self.hotmeta is not None:
            hot, seed = self.hotmeta.tracker.note_read(path)
            if seed and self.engine.collector is not None:
                self.engine.collector.instant(
                    "metacache.seed", "metacache", path=path, k=hot
                )
        return {"record": value, "hot": hot, "seed": seed}

    def stat_if_changed(self, path: str, version: int) -> dict:
        """Conditional stat: ship the record only if its version differs.

        Served from the owner's KV store when this daemon has the record,
        else from the hot-replica side table (the replica revalidation
        path).  ``ENOENT`` when neither has it — the client falls back to
        an authoritative owner read.
        """
        value = self.kv.get(path.encode("utf-8"))
        if value is not None:
            hot, seed = (0, False)
            if self.hotmeta is not None:
                hot, seed = self.hotmeta.tracker.note_read(path)
            if meta_version(value) == version:
                return {"changed": False, "hot": hot, "seed": seed}
            return {"changed": True, "record": value, "hot": hot, "seed": seed}
        if self.hotmeta is not None:
            record = self.hotmeta.replicas.get(path)
            if record is not None:
                if meta_version(record) == version:
                    return {"changed": False, "hot": 0, "seed": False, "replica": True}
                return {
                    "changed": True, "record": record,
                    "hot": 0, "seed": False, "replica": True,
                }
        raise NotFoundError(path)

    def put_hot_replica(self, path: str, record: bytes) -> bool:
        """Accept a hot record pushed by a seeding client.

        Stored in the volatile TTL side table only — never the KV store,
        so ownership and recovery semantics are untouched.  ``False``
        (not stored) when this daemon runs no hot plane.
        """
        if self.hotmeta is None:
            return False
        self.hotmeta.replicas.put(path, record)
        return True

    def drop_hot_replica(self, path: str) -> int:
        """Invalidate a replica copy after a mutation (client broadcast)."""
        if self.hotmeta is None:
            return 0
        return 1 if self.hotmeta.replicas.drop(path) else 0

    def remove_metadata(self, path: str, expect_dir: bool) -> bytes:
        """Delete the record, returning it (client needs the size) — unless
        its type is not the one the caller removes (``unlink`` a file,
        ``rmdir`` a directory): then it stays, ``EISDIR``/``ENOTDIR``."""
        key = path.encode("utf-8")
        with self._meta_lock:
            value = self.kv.get(key)
            if value is None:
                raise NotFoundError(path)
            if record_head(value)[0] != expect_dir:
                raise (NotADirectoryError_ if expect_dir else IsADirectoryError_)(path)
            self.kv.delete(key)
        self._note_meta_mutation(path)
        return value

    def install_records(self, records: list) -> int:
        """Install ``[(path, record), ...]`` as given, overwriting — the
        migrator's record move, one WAL record per batch.  Returns the
        count installed."""
        with self._meta_lock:
            self.kv.write_batch(
                [("put", path.encode("utf-8"), record) for path, record in records]
            )
        for path, _record in records:
            self._note_meta_mutation(path)
        return len(records)

    def _resize(self, path: str, rule) -> list[int]:
        """Patch the size (and blocks) of file ``path`` to ``rule(old)``: ``[old, new]``."""
        sizes = [0, 0]

        def apply(current: Optional[bytes]) -> bytes:
            if current is None:
                raise NotFoundError(path)
            is_dir, old_size = record_head(current)
            if is_dir:
                raise IsADirectoryError_(path)
            sizes[:] = old_size, rule(old_size)
            return resize_record(current, sizes[1], self.chunk_size)

        with self._meta_lock:
            self.kv.merge(path.encode("utf-8"), apply)
        self._note_meta_mutation(path)
        return sizes

    def update_size(self, path: str, new_size: int, append: bool = False) -> int:
        """Grow the recorded size; the write path calls this after data lands.

        Non-append writes publish ``max(current, new_size)`` — concurrent
        writers to disjoint regions converge on the true size regardless of
        RPC arrival order.  Append mode adds instead (reserved for
        append-offset allocation).  Returns the resulting size.
        """
        if append:
            return self._resize(path, lambda size: size + new_size)[1]
        return self._resize(path, lambda size: max(size, new_size))[1]

    def truncate_metadata(self, path: str, new_size: int) -> int:
        """Set the size exactly (ftruncate semantics); returns old size."""
        return self._resize(path, lambda size: new_size)[0]

    def readdir(self, dir_path: str) -> list[tuple[str, bool]]:
        """Direct children of ``dir_path`` stored *on this daemon*.

        The namespace is flat, so this is a prefix scan for keys one level
        below ``dir_path``.  Each daemon only knows its own records; the
        client merges the per-daemon partial listings — which is exactly
        why ``readdir`` is eventually consistent (§III-A).
        """
        return [(name, record_head(record)[0]) for name, record in self.readdir_plus(dir_path)]

    def readdir_plus(self, dir_path: str) -> list[tuple[str, bytes]]:
        """Direct children with their full metadata records (``ls -l``).

        The batched variant GekkoFS provides so a directory listing with
        attributes costs one RPC per daemon instead of one stat per entry
        — the ``readdir()``-called-by-``ls -l`` scenario of §III-A.  Same
        eventual consistency as :meth:`readdir`.
        """
        prefix = dir_path if dir_path.endswith("/") else dir_path + "/"
        prefix_bytes = prefix.encode("utf-8")
        entries: list[tuple[str, bytes]] = []
        for key, value in self.kv.prefix_iter(prefix_bytes):
            name = key[len(prefix_bytes) :].decode("utf-8")
            if not name or "/" in name:
                continue  # grandchildren live under deeper prefixes
            entries.append((name, value))
        return entries

    # -- data handlers ---------------------------------------------------------

    def _check_wire_digest(self, path: str, chunk_id: int, piece: bytes, crc) -> None:
        """Verify a client-sent digest before the payload hits storage."""
        if crc is not None and chunk_checksum(piece, 0, self.storage.algorithm) != crc:
            raise IntegrityError(
                f"chunk {chunk_id} of {path!r}: payload corrupted in transit "
                f"(write digest mismatch)"
            )

    def write_chunks(
        self,
        path: str,
        spans: bytes,
        data: Optional[bytes] = None,
        crcs: Optional[bytes] = None,
        size: Optional[int] = None,
        bulk: Optional[BulkHandle] = None,
    ) -> int:
        """Persist the chunk-local spans of one file this daemon owns.

        The one write handler: the client forwards a single RPC per
        target daemon carrying every span that daemon owns (§III-B); a
        write touching one chunk here is a table of one.  ``spans`` is a
        packed table of :data:`~repro.core.chunking.SPAN` entries
        ``(chunk_id, chunk_offset, length, payload_offset)``; the payload
        is one contiguous region — inline ``data`` for small groups (as
        Mercury does below its bulk threshold) or a bulk exposure the
        daemon pulls span by span (one registered region, N RDMA gets).
        ``crcs`` optionally carries one packed client-side digest per span
        (``integrity_verify_writes``), checked against the received
        payload before anything is stored.  Returns total bytes written, or,
        given the ``size`` the write owes, the file's size once every span
        landed and :meth:`update_size` merged it.
        """
        if bulk is None and data is None:
            raise ValueError("write_chunks needs inline data or a bulk handle")
        total = 0
        table = chunking.SPAN.iter_unpack(spans)
        for index, (chunk_id, chunk_offset, length, payload_offset) in enumerate(table):
            if bulk is not None:
                piece = bulk.pull(payload_offset, length)
            else:
                piece = data[payload_offset : payload_offset + length]
            if crcs is not None:
                self._check_wire_digest(
                    path, chunk_id, piece, DIGEST.unpack_from(crcs, 8 * index)[0]
                )
            total += self.storage.write_chunk(path, chunk_id, chunk_offset, piece)
        return total if size is None else self.update_size(path, size)

    def read_chunks(
        self,
        path: str,
        spans: bytes,
        bulk: Optional[BulkHandle] = None,
    ) -> tuple:
        """Read the chunk-local spans of one file this daemon owns.

        The one read handler, with one reply shape.  ``spans`` is a packed
        table of :data:`~repro.core.chunking.SPAN` entries ``(chunk_id,
        chunk_offset, length, buffer_offset)`` and the reply is the flat
        tuple ``(n, runs, digests, payload, ...)``: bytes read, then one
        payload per span.  With a bulk exposure the daemon pushes each span
        at its ``buffer_offset`` in the client's buffer and its payload is
        ``None``; otherwise it is the bytes themselves.  Missing chunks read
        short/empty — the client's zero-filled buffer supplies the holes.

        ``runs`` holds one :data:`~repro.core.chunking.RUN` per span: the
        chunk range of the digest blocks the span fully covers, whose stored
        digests — slices of the packed record — follow each other in
        ``digests``.  The client re-checks them over its own receive buffer
        (end to end); partially covered edge blocks were already verified
        here.  Without the integrity plane both are empty.
        """
        total = 0
        payloads = []
        runs = []
        digests = []
        storage = self.storage
        for chunk_id, chunk_offset, length, buffer_offset in chunking.SPAN.iter_unpack(spans):
            if storage.integrity:
                piece, proofs = storage.read_chunk_verified(path, chunk_id, chunk_offset, length)
                offset, run, proved = proofs[0] if proofs else (0, 0, b"")
                runs.append(chunking.RUN.pack(offset, run))
                digests.append(proved)
            else:  # one call into the store
                piece = storage.read_chunk(path, chunk_id, chunk_offset, length)
            if bulk is None:
                payloads.append(piece)
            else:
                if piece:
                    bulk.push(piece, buffer_offset)
                payloads.append(None)
            total += len(piece)
        return (total, b"".join(runs), b"".join(digests), *payloads)

    def replace_chunk(
        self,
        path: str,
        chunk_id: int,
        data: Optional[bytes] = None,
        crc: Optional[int] = None,
        seen=UNGUARDED,
        bulk: Optional[BulkHandle] = None,
    ):
        """Install one whole chunk: the RPC of every replica restore
        (:func:`~repro.core.chunking.copy_chunk`).

        ``crc`` (when sent) is the payload's digest, checked before
        anything is stored, so a payload corrupted on the way is refused.
        ``seen`` and the answer are the store's guard
        (:meth:`~repro.storage.backend.ChunkStorage.replace_chunk`); the
        migrator's empty replace, which drops a released copy, sends none.
        """
        if bulk is not None:
            data = bulk.pull()
        if data is None:
            raise ValueError("replace_chunk needs inline data or a bulk handle")
        self._check_wire_digest(path, chunk_id, data, crc)
        return self.storage.replace_chunk(path, chunk_id, data, seen)

    def remove_chunks(self, path: str) -> int:
        """Drop every local chunk of ``path`` (remove broadcast).

        The broadcast reaches every daemon, so it doubles as cluster-wide
        hot-replica invalidation for the removed path.
        """
        self._note_meta_mutation(path)
        return self.storage.remove_chunks(path)

    def truncate_chunks(self, path: str, new_size: int) -> None:
        """Drop/trim local chunks beyond ``new_size`` (truncate broadcast).

        Like :meth:`remove_chunks`, also drops any hot-replica copy —
        the record's size changed.
        """
        self._note_meta_mutation(path)
        first_dead = (new_size + self.chunk_size - 1) // self.chunk_size
        self.storage.remove_chunks_from(path, first_dead)
        boundary = new_size % self.chunk_size
        if boundary and new_size // self.chunk_size in self.storage.chunk_ids(path):
            self.storage.truncate_chunk(path, new_size // self.chunk_size, boundary)

    def chunk_digest(self, path: str, chunk_id: int) -> dict:
        """Whole-payload digest of one locally stored chunk.

        The judging RPC of every whole-cluster pass: the repairer's and
        the migrator's snapshots compare replicas with it, the scrubber
        and fsck verify with it, and the release pass re-verifies a new
        owner's copy before the source copy goes.  The payload is read
        once (:meth:`~repro.storage.backend.ChunkStorage.payload_digest`):
        checked against its packed digest record when the integrity plane
        is on, so bit-rot surfaces as ``IntegrityError`` here, and
        digested whole from the same bytes.  The answer is what a guarded
        ``gkfs_replace_chunk`` carries as ``seen``.
        """
        digest = self.storage.payload_digest(path, chunk_id)
        if digest is None:
            raise IntegrityError(
                f"chunk {chunk_id} of {path!r} fails digest verification"
            )
        return digest

    def quarantine_chunk(self, path: str, chunk_id: int) -> bool:
        """The scrubber's last resort for a copy with no verified source:
        fence it if it still fails verification (checked under the fence's
        store lock hold) and dump the flight recorder; ``True`` if fenced."""
        fenced = self.storage.quarantine_chunk(path, chunk_id)
        if fenced and self.flight_recorder is not None:
            try:
                self.flight_recorder.dump("quarantine", path=path, chunk_id=chunk_id)
            except OSError:
                pass
        return fenced

    def _chunks_after(self, path: Optional[str], chunk_id: int) -> Iterator[tuple]:
        """Every chunk held past ``(path, chunk_id)``, in path and id order:
        the rest of ``path``, then each later path — listed from the cursor
        on, so a pass of many pages lists each chunk directory about once."""
        storage = self.storage
        quarantined = set(storage.quarantined)
        first = () if path is None else (path,)
        for rel in itertools.chain(first, storage.paths(after=path)):
            for cid, length in storage.chunk_lengths(rel):
                if rel == path and cid <= chunk_id:
                    continue
                yield (rel, cid, length, (rel, cid) in quarantined)

    def inventory(self, after: Optional[tuple], limit: int) -> dict:
        """One page of what this daemon holds: its records, then its chunks.

        The one listing every whole-cluster pass reads (repair, fsck, the
        migrator's index, scrub).  ``after`` is the cursor the previous
        page returned (``None`` starts); the reply carries at most
        ``limit`` entries — ``records`` as ``(path, record)`` or
        ``chunks`` as ``(path, chunk_id, length, quarantined)``, never
        both — and ``after``: the last records page points at the first
        chunk, the last chunks page is ``None``.  Read-only, and flat: a
        record under a parent that was never created is listed like any
        other.  Each page is a fresh scan, so an entry written or removed
        between pages may or may not show.
        """
        phase, path, chunk_id = after or ("records", None, -1)
        if phase == "records":
            lo = None if path is None else path.encode("utf-8") + b"\x00"
            held = [
                (key.decode("utf-8"), record)
                for key, record in itertools.islice(self.kv.range_iter(lo), limit + 1)
            ]
            end = _FIRST_CHUNK
        else:
            held = list(itertools.islice(self._chunks_after(path, chunk_id), limit + 1))
            end = None
        page = {"records": [], "chunks": [], "after": end}
        page[phase] = held[:limit]
        if len(held) > limit:
            last = held[limit - 1]
            page["after"] = (phase, last[0], last[1] if phase == "chunks" else -1)
        return page

    # -- membership --------------------------------------------------------------

    def set_epoch(self, min_epoch: int) -> int:
        """Seal retired membership epochs: reject anything older.

        Monotonic — the watermark never moves backwards.  Returns the
        watermark now in force.
        """
        if min_epoch > self.engine.min_epoch:
            self.engine.min_epoch = min_epoch
        return self.engine.min_epoch

    # -- introspection -----------------------------------------------------------

    def statfs(self) -> dict:
        """Local usage snapshot (aggregated by the client for statfs).
        Per-layer counters live in the metrics registry (``storage.*``/
        ``kv.*`` gauges over the same stats objects), not in this reply."""
        return {
            "used_bytes": self.storage.used_bytes(),
            "metadata_records": len(self.kv),
        }

    def metrics_snapshot(self) -> dict:
        """The ``gkfs_metrics`` handler: this daemon's registry snapshot.

        Plain JSON types (histograms in wire-state form), aggregated
        cluster-wide by :meth:`repro.core.client.GekkoFSClient.metrics`.
        """
        return self.metrics.snapshot()

    def ping(self) -> dict:
        """The ``gkfs_ping`` handler: identity plus this daemon's clocks.

        ``clock`` is the daemon collector's current reading (seconds
        since its private epoch) — the observer brackets the exchange
        with its own clock and the minimum-RTT midpoint estimates the
        epoch offset between the two collectors.  Daemons without
        telemetry report ``telemetry: False`` and a zero clock.
        """
        collector = self.engine.collector
        return {
            "daemon_id": self.address,
            "clock": collector.now() if collector is not None else 0.0,
            "min_epoch": self.engine.min_epoch,
            "telemetry": collector is not None,
        }

    def trace_dump(self) -> dict:
        """The ``gkfs_trace_dump`` handler: this daemon's span/event rings.

        Plain codec types; merged across daemons (with clock alignment)
        by :class:`~repro.telemetry.observer.ClusterObserver`.
        """
        collector = self.engine.collector
        if collector is None:
            return {"daemon_id": self.address, "telemetry": False,
                    "clock": 0.0, "spans": [], "events": []}
        dump = collector.dump()
        dump["daemon_id"] = self.address
        dump["telemetry"] = True
        return dump

    def metrics_window(self, limit: Optional[int] = None) -> Optional[dict]:
        """The ``gkfs_metrics_window`` handler: the window ring's wire form.

        Lazy-ticks first, so a harvest always sees data no older than one
        interval even if the background ticker is disabled.  ``None``
        when no window ring is attached (telemetry off).
        """
        windows = self.windows
        if windows is None:
            return None
        windows.maybe_tick()
        return windows.to_wire(limit=limit)

    def flight_dump(self, reason: str = "remote-request") -> Optional[str]:
        """The ``gkfs_flight_dump`` handler: persist the black box now.

        Returns the dump path, or ``None`` when no recorder is attached.
        """
        recorder = self.flight_recorder
        if recorder is None:
            return None
        return recorder.dump(str(reason))

    def shutdown(self) -> None:
        """Flush and close the metadata store; close the chunk store."""
        if self.flight_recorder is not None:
            self.flight_recorder.dump("shutdown")
        self.kv.close()
        self.storage.close()

    def crash(self) -> None:
        """Crash-stop: lose volatile state without a clean shutdown.

        The KV store drops its memtable and keeps its un-truncated WAL
        (durable state stays on the node-local SSD); in-memory chunk
        storage dies with the process, disk-backed chunk files survive
        and are rediscovered by the restarted daemon's directory rescan.
        The chunk store's descriptors are closed, as the kernel would: it
        buffers nothing, so there is nothing to flush or to lose, and the
        restarted daemon's store is the only one open on the root.
        """
        if self.flight_recorder is not None:
            # The last gasp a real daemon gets from its crash handler
            # (SIGKILL recovery instead relies on the periodic flush).
            self.flight_recorder.dump("crash")
        self.kv.crash()
        self.storage.close()
