"""The client's data path: chunk spans out, chunk spans back (§III-B).

The forwarding layer's data half.  Every request is split into chunk
spans, the spans are coalesced per daemon and forwarded as concurrent
non-blocking RPCs, and the client waits once.  Around that fan-out sit
what it needs to stay correct: replica fail-over rounds, end-to-end
proofs and read-repair (integrity plane), the ledger of replica legs
that missed an acked write, the chunk cache (§V), and ``size_seen`` —
the size a descriptor last saw, which lets a read skip asking the owner.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import (
    BadFileDescriptorError, IntegrityError, IsADirectoryError_, NotFoundError, UNREACHABLE,
)
from repro.core import chunking
from repro.core.chunking import (
    ChunkSpan, check_proofs, fetch_chunk, pack_spans, reply_proofs, split_range, wire_digests,
)
from repro.core.datacache import ChunkCache
from repro.core.distributor import replica_set
from repro.core.filemap import OpenFile
from repro.core.metadata import Metadata
from repro.core.metapath import Forwarding
from repro.rpc import BulkHandle, RpcFuture
from repro.storage.integrity import load_accelerator

__all__ = ["DataPath"]


class DataPath(Forwarding):
    """Span planning, the write and read fan-outs, and their bookkeeping."""

    _DIRTY_CAPACITY = 4096

    def __init__(self, client):
        super().__init__(client)
        config = client.config
        self.meta = client.meta
        # Integrity plane: optionally ship span digests with writes.
        # Cached — the config is frozen.
        self._verify_writes = config.integrity_verify_writes
        self._grain = chunking.digest_grain(config)
        if config.integrity_enabled:
            load_accelerator()  # at set-up, not in the first read
        #: The chunk cache (``None`` unless ``data_cache_enabled``).
        self.cache: Optional[ChunkCache] = None
        if config.data_cache_enabled:
            self.cache = ChunkCache(config.data_cache_bytes, config.chunk_size)
            self.mutations.subscribe(self.cache, client.metrics_registry)
        #: Chunk replicas known to have missed an acked write — keys are
        #: ``(rel, chunk_id, stale_address)``, insertion-ordered.  The
        #: consensus-free write path acks once *one* replica lands a
        #: span; the legs that failed hold stale (same-length!) data a
        #: digest comparison cannot arbitrate, so the client records the
        #: ground truth here for the self-healing plane to drain
        #: (:meth:`repro.selfheal.Supervisor.register_client`).
        self.dirty_replicas: dict = {}
        self._dirty_seq = 0

    def _targets(self, rel: str, chunk_id: int) -> list[int]:
        """Replica set for one data chunk (primary + successors)."""
        distributor = self.client.distributor
        return replica_set(distributor.locate_chunk(rel, chunk_id),
                           self.config.replication, distributor.num_daemons)

    def _read_targets(self, rel: str, chunk_id: int) -> list[int]:
        """Current chunk replicas plus the retiring epoch's owners (the
        dual-epoch read rule of :meth:`MetadataPath.call`)."""
        targets = self._targets(rel, chunk_id)
        view = self.client.distributor
        if view.previous is not None:
            for target in view.old_chunk_targets(rel, chunk_id, self.config.replication):
                if target not in targets:
                    targets.append(target)
        return targets

    # -- dirty-replica ledger --------------------------------------------------

    def _next_dirty_seq(self) -> int:
        """One sequence number per *write op* that lost a replica leg.

        Every leg the same write lost shares the seq, so a resync driver
        can order marks *per target* (a later mark on the same leg
        replaces an earlier one — a single whole-chunk resync settles
        both).  Seqs carry no cross-target authority: writes may span
        part of a chunk, so a leg that took the latest write can still
        be missing an earlier write's bytes.
        """
        self._dirty_seq += 1
        return self._dirty_seq

    def _note_dirty_replica(self, rel: str, chunk_id: int, target: int, seq: int) -> None:
        """Record one replica write leg that failed under an acked op."""
        self.stats.dirty_marks += 1
        ledger = self.dirty_replicas
        if len(ledger) >= self._DIRTY_CAPACITY and (
            (rel, chunk_id, target) not in ledger
        ):
            # The supervisor thread's drain_dirty_replicas() may empty
            # the ledger between the length check and the pop — losing
            # the eviction race is fine, raising in the write path isn't.
            try:
                ledger.pop(next(iter(ledger)))
            except (KeyError, StopIteration, RuntimeError):
                pass
            else:
                self.stats.dirty_overflow += 1
        ledger[(rel, chunk_id, target)] = seq

    def drain_dirty_replicas(self) -> list:
        """Hand the dirty-replica ledger to a resync driver (destructive).

        Returns ``[((rel, chunk_id, target), seq), ...]``.  Thread-safe
        against concurrent marking: entries are popped one at a time, so
        a mark landing mid-drain is kept for the next one.
        """
        drained = []
        ledger = self.dirty_replicas
        while True:
            try:
                drained.append(ledger.popitem())
            except KeyError:
                return drained

    # -- size_seen ---------------------------------------------------------------

    def stat_entry(self, entry: OpenFile, count: bool = True) -> Metadata:
        """:meth:`MetadataPath.stat` through a descriptor: the size the
        owner reports is the descriptor's new ``size_seen``."""
        md = self.meta.stat(entry.path, count)
        entry.size_seen = md.size
        return md

    # -- writes ------------------------------------------------------------------

    def pwrite(self, entry: OpenFile, data: bytes, offset: int) -> int:
        """Positional write: the data half, then any size update it owes."""
        end = offset + len(data)
        owed = self.write(entry, data, offset, end)
        if owed is not None:
            entry.size_seen = self.meta.call(entry.path, "gkfs_update_size", owed, False)
        return end - offset

    def append(self, entry: OpenFile, data: bytes) -> int:
        """Write at the end of the file; returns the end of what it wrote.

        Appends *reserve* their region first: an append-mode size-update
        RPC atomically advances the recorded size on the metadata owner
        and returns the old end as this write's offset, so concurrent
        appenders from any node get disjoint regions.  (The region is
        reserved before the data lands — a concurrent reader may briefly
        see zeros in it, the documented relaxed-consistency trade-off.)
        """
        rel, length = entry.path, len(data)
        # A size held back must be published first, or the owner would
        # hand out a region before this client's own earlier writes.
        self.meta.flush(rel)
        offset = self.meta.call(rel, "gkfs_update_size", length, True) - length
        self.write(entry, data, offset)
        entry.size_seen = offset + length  # the end the owner reserved
        return entry.size_seen

    def write(self, entry: OpenFile, data: bytes, offset: int,
              end: Optional[int] = None) -> Optional[int]:
        """The data half of a write: the chunk fan-out, then the caches
        hear of it.  ``end`` is the size update the write owes; returns
        what is owed now (``None`` when a cache holds it back or the
        owner took it with the bytes, see :meth:`_write_spans`)."""
        if entry.is_dir:
            raise IsADirectoryError_(entry.path)
        if not entry.writable:
            raise BadFileDescriptorError(f"fd for {entry.path} is not open for writing")
        view = memoryview(data)
        spans = list(split_range(offset, len(data), self.config.chunk_size))
        # Gate before resolving chunk owners, for the same reason as
        # metadata mutations (see _mutation_gate).
        self._mutation_gate()
        seen = self._write_spans(entry.path, view, spans,
                                 None if self.mutations.holds_sizes else end)
        self.stats.writes += 1
        self.stats.bytes_written += len(data)
        if seen is not None:  # the owner took the size with the bytes
            entry.size_seen, end = seen, None
        return self.mutations.wrote(entry.path, spans, view, end)

    def _write_spans(self, rel: str, view: memoryview, spans: list,
                     size: Optional[int] = None) -> Optional[int]:
        """The write fan-out: coalesce per daemon, one RPC each.

        Every span is routed to each daemon in its replica set; the spans
        a daemon owns are coalesced into one ``gkfs_write_chunks`` forward.
        All group RPCs are in flight at once — replicas included — and
        gathered afterwards.  A span is durable if at least one of its
        replicas took it; with replication off any loss is fatal.

        ``size`` (owed) rides in the RPC of a write whose only group goes to
        the record's only owner; returns the size it answered, else ``None``.
        """
        groups: dict[int, list] = {}
        for span in spans:
            for target in self._targets(rel, span.chunk_id):
                groups.setdefault(target, []).append(span)
        order = list(groups)
        # A span with replicas has two targets: only an unreplicated write folds.
        if size is not None and order != [self.client.distributor.locate_metadata(rel)]:
            size = None
        futures = [self._issue_write_group(t, rel, view, groups[t], size) for t in order]
        outcomes = self._gather(futures)
        failed: dict[int, Exception] = {}
        for target, (_value, exc) in zip(order, outcomes):
            if exc is None:
                continue
            if not isinstance(exc, UNREACHABLE):
                raise exc
            failed[target] = exc
        if not failed:
            return None if size is None else outcomes[0][0]
        if self.config.replication == 1:
            first = next(iter(failed.values()))
            raise self._fatal_transient(first) from first
        chains = [(span, self._targets(rel, span.chunk_id)) for span in spans]
        for _span, targets in chains:
            if all(target in failed for target in targets):
                # No replica took this span.
                raise self._fatal_transient(failed[targets[0]]) from failed[targets[0]]
        for span, targets in chains:
            stale = [target for target in targets if target in failed]
            seq = self._next_dirty_seq() if stale else None
            for target in stale:
                self._note_dirty_replica(rel, span.chunk_id, target, seq)

    def _issue_write_group(self, target: int, rel: str, view: memoryview,
                           group: list, size: Optional[int] = None) -> RpcFuture:
        """One non-blocking write RPC carrying every span ``target`` owns.

        The payload is the slice of the op buffer from the group's first
        span to the end of its last, not the whole buffer: a read-only
        exposure crosses a socket whole, and a daemon has no use for the
        chunks its neighbours own.  Small slices ride inline in the RPC.
        With ``integrity_verify_writes`` each span travels with its wire
        digest, which the daemon checks against the payload it received
        before anything is stored.
        """
        start = group[0].buffer_offset
        region = view[start : group[-1].buffer_offset + group[-1].length]
        table = pack_spans([
            (span.chunk_id, span.offset, span.length, span.buffer_offset - start)
            for span in group
        ])
        crcs = None
        if self._verify_writes:
            crcs = wire_digests(region, table, self.config.integrity_algorithm)
        inline = len(region) <= chunking.INLINE_THRESHOLD
        args = (rel, table, bytes(region) if inline else None, crcs)
        if size is not None or not inline:  # a bulk handle is passed after the size
            args += (size,)
        # One exposure per group: handles are not shared across concurrent
        # pullers, so transfer accounting stays race-free.
        return self.client.network.call_async(
            target, "gkfs_write_chunks", *args,
            bulk=None if inline else BulkHandle(region, readonly=True),
        )

    def trim(self, rel: str, size: int, new_size: Optional[int] = None) -> None:
        """Cut ``rel``'s chunks beyond ``new_size`` — all of them when it
        is ``None`` — on every daemon that may hold a file of ``size``
        bytes: a targeted multicast for small files, a broadcast (cheaper
        than enumerating chunks) once the chunks outnumber the daemons."""
        if size == 0:
            return
        self._mutation_gate()
        distributor = self.client.distributor
        nchunks = (size + self.config.chunk_size - 1) // self.config.chunk_size
        if nchunks * self.config.replication >= distributor.num_daemons:
            targets = list(distributor.locate_all())
        else:
            targets = sorted({t for cid in range(nchunks) for t in self._targets(rel, cid)})
        if new_size is None:
            self.broadcast(targets, "gkfs_remove_chunks", rel)
        else:
            self.broadcast(targets, "gkfs_truncate_chunks", rel, new_size)

    # -- reads -------------------------------------------------------------------

    def pread(self, entry: OpenFile, count: int, offset: int,
              size: Optional[int] = None) -> bytes:
        """Read against an open entry: fan out, zero-fill holes, clamp at
        the file size.

        The size is needed for one thing: telling a hole from the end of
        the file, and a span that comes back full is neither.  So a range
        inside ``entry.size_seen`` — a size the owner reported once — is
        fetched first and returned if every span landed full.  A size
        shrinks only by truncate, unlink or rename-over, and all three
        trim or remove the chunks: a shrink shows up as a short span.
        Only then, or for a range reaching past ``size_seen``, is the
        owner asked (an internal probe, not an application stat), the
        range clamped and fetched with the holes left as zeros.

        ``size`` is a caller's snapshot (``read_bytes``/``copy`` pass the
        size their open observed): it clamps, and the owner is not asked.
        """
        if entry.is_dir:
            raise IsADirectoryError_(entry.path)
        if not entry.readable:
            raise BadFileDescriptorError(f"fd for {entry.path} is not open for reading")
        if count == 0:
            return self._count_read(b"")
        if size is None:
            if offset + count <= entry.size_seen:
                buffer, full = self._read_range(entry.path, count, offset)
                if full:
                    return self._count_read(buffer)
            size = self.stat_entry(entry, count=False).size
        if offset >= size:
            return self._count_read(b"")
        clamped = min(count, size - offset)
        return self._count_read(self._read_range(entry.path, clamped, offset)[0])

    def _count_read(self, buffer) -> bytes:
        """Account one completed read (however many attempts it took)."""
        self.stats.reads += 1
        self.stats.bytes_read += len(buffer)
        return bytes(buffer)

    def _read_range(self, rel: str, count: int, offset: int) -> tuple[bytearray, bool]:
        """``count`` bytes at ``offset`` with holes as zeros, and whether
        every span came back full."""
        buffer = bytearray(count)  # zero-filled: holes read as zeros
        spans = list(split_range(offset, count, self.config.chunk_size))
        return buffer, self._read_spans(rel, memoryview(buffer), spans)

    def _read_spans(self, rel: str, buf_view: memoryview, spans: list) -> bool:
        """Fill ``buf_view`` for ``spans``: plan the fetch units, fetch them.
        True when every span landed full (no hole, no short tail); a cached
        chunk that covers its span is one — as fresh as the cache is.

        Without the chunk cache every span is a fetch unit, landed in the
        caller's buffer (:meth:`_issue_read_group` picks the route).  With
        it, hits are served locally and each missing chunk becomes one
        *whole-chunk* unit (intra-chunk readahead) whose payload returns
        inline, is cached, and is copied out to the spans that wanted it.
        """
        if self.cache is None:
            return self._fetch_units(rel, buf_view, spans, None)
        full = True
        wanted: dict[int, list] = {}  # missing chunk -> the spans waiting for it
        for span in spans:
            chunk = self.cache.get(rel, span.chunk_id)
            if chunk is None:
                wanted.setdefault(span.chunk_id, []).append(span)
            else:
                piece = chunk[span.offset : span.offset + span.length]
                buf_view[span.buffer_offset : span.buffer_offset + len(piece)] = piece
                full = full and len(piece) == span.length
        if wanted:
            size = self.config.chunk_size
            units = [ChunkSpan(chunk_id, 0, size, 0) for chunk_id in sorted(wanted)]
            full = self._fetch_units(rel, buf_view, units, wanted) and full
        return full

    def _fetch_units(self, rel: str, buf_view: memoryview, units: list,
                     wanted: Optional[dict]) -> bool:
        """The read fan-out with replica fail-over rounds.

        Round r groups the not-yet-served units by their r-th replica —
        the replica set under the current placement, extended with the
        retiring epoch's owners while a membership change is RELEASING
        (chains may differ in length) — and issues one coalesced RPC per
        daemon, all in flight at once.  Units that fail transiently go
        back for the next round; with replication off and stable
        membership the first round is the only round (the paper's
        single-target read) and any loss is fatal.

        Checksum failures ride the same machinery: a unit whose proofs do
        not verify (or whose group the daemon failed server-side) goes
        back for the next replica, and every chunk that healed by
        fail-over is read-repaired afterwards.

        Returns True when every wanted span came back full, whichever
        replica served it — the reply's byte count ``n`` for a direct
        group, the payload lengths for a whole-chunk fetch.
        """
        chains: dict[int, list[int]] = {}  # chunk_id -> fail-over chain
        pending = units
        exhausted: list = []  # units whose whole chain failed
        last_transient: Optional[Exception] = None
        integrity_errors: dict[int, IntegrityError] = {}  # chunk_id -> last error
        bad_targets: dict[int, list[int]] = {}  # chunk_id -> replicas that failed verify
        healed: dict[int, tuple] = {}  # chunk_id -> (replica that served it, chunk or None)
        full = True
        round_ = 0
        while pending:
            groups: dict[int, list] = {}
            for unit in pending:
                targets = chains.get(unit.chunk_id)
                if targets is None:
                    targets = self._read_targets(rel, unit.chunk_id)
                    chains[unit.chunk_id] = targets
                if round_ >= len(targets):
                    exhausted.append(unit)
                else:
                    groups.setdefault(targets[round_], []).append(unit)
            futures = [self._issue_read_group(target, rel, buf_view, group, wanted)
                       for target, group in groups.items()]
            pending = []
            for (target, group), (value, exc) in zip(groups.items(), self._gather(futures)):
                if exc is None:
                    outcomes = self._land_read_group(rel, buf_view, group, value, wanted)
                    full = full and self._landed_full(group, value, wanted)
                elif isinstance(exc, IntegrityError) and len(group) > 1:
                    # A coalesced group fails as a unit server-side and the
                    # error does not say which chunk tripped the checksum:
                    # re-read unit by unit against the same daemon — clean
                    # units land, corrupt ones fail over.  (How much
                    # of each landed is not kept: not full.)
                    full = False
                    outcomes = [self._read_unit_at(target, rel, buf_view, unit, wanted)
                                for unit in group]
                elif isinstance(exc, (IntegrityError, *UNREACHABLE)):
                    outcomes = [(unit, exc, None) for unit in group]
                else:
                    raise exc
                for unit, err, payload in outcomes:
                    chunk_id = unit.chunk_id
                    if err is None:
                        if chunk_id in bad_targets:
                            healed[chunk_id] = (target, payload)
                        continue
                    if isinstance(err, IntegrityError):
                        self.stats.integrity_failovers += 1
                        self._instant("integrity.failover", "integrity", path=rel,
                                      chunk_id=chunk_id, daemon=target)
                        integrity_errors[chunk_id] = err
                        bad_targets.setdefault(chunk_id, []).append(target)
                    else:
                        last_transient = err
                    pending.append(unit)
            round_ += 1
        for chunk_id, (good, payload) in healed.items():
            self._read_repair(rel, chunk_id, bad_targets[chunk_id], good, payload)
        if exhausted:
            for unit in exhausted:
                if unit.chunk_id in integrity_errors:
                    raise integrity_errors[unit.chunk_id]
            if last_transient is not None:
                raise self._fatal_transient(last_transient) from last_transient
            raise LookupError(rel)
        return full

    @staticmethod
    def _landed_full(group: list, value: tuple, wanted: Optional[dict]) -> bool:
        """Did one group reply fill every span that was waiting on it?"""
        if wanted is None:
            return value[0] == sum(unit.length for unit in group)
        return all(
            len(payload) >= span.offset + span.length
            for unit, payload in zip(group, value[3:])
            for span in wanted[unit.chunk_id]
        )

    def _issue_read_group(self, target: int, rel: str, buf_view: memoryview, group: list,
                          wanted) -> RpcFuture:
        """One non-blocking read RPC covering every unit ``target`` owns.

        A direct group (``wanted is None``) above ``INLINE_THRESHOLD``
        bytes exposes the caller's buffer and the daemon pushes each unit
        at its buffer offset (scattered RDMA puts, one writable exposure
        per group).  At or below it, and for whole chunks bound for the
        cache, there is no bulk handle and the payloads ride the reply:
        two frames, and a small one is served by the thread that read it.
        """
        inline = wanted is not None or (
            sum(unit.length for unit in group) <= chunking.INLINE_THRESHOLD
        )
        return self.client.network.call_async(
            target, "gkfs_read_chunks", rel, pack_spans(group),
            bulk=None if inline else BulkHandle(buf_view),
        )

    def _land_read_group(self, rel: str, buf_view: memoryview, group: list, value: tuple,
                         wanted) -> list:
        """Land one group reply: ``[(unit, error_or_None, chunk), ...]``.

        A pushed direct read is in ``buf_view`` already; only its proofs
        are left to re-check, and a unit that fails has its buffer region
        zeroed — poisoned bytes must not leak into the application.  An
        inline direct read's payload is its *span*: copied to its buffer
        offset it is a pushed read, ``chunk`` ``None`` — read-repair
        installs what it is handed as the whole chunk.  A
        whole-chunk fetch (``wanted``) comes back inline: once verified
        it is cached at its **as-fetched** length (sparse tails read as
        zeros; padding every small file to a full chunk would waste the
        cache) and copied out to the spans that were waiting for it.
        """
        algorithm = self.config.integrity_algorithm
        grain = self._grain
        outcomes = []
        for unit, payload, proof in zip(group, value[3:], reply_proofs(value, grain)):
            if payload is not None and wanted is None:
                end = unit.buffer_offset + len(payload)
                buf_view[unit.buffer_offset : end] = payload
                payload = None  # landed: from here on as if it had been pushed
            if payload is None:
                received, base = buf_view, unit.buffer_offset - unit.offset
            else:
                received, base = memoryview(payload), 0
            try:
                check_proofs(rel, unit.chunk_id, received, base, proof, grain, algorithm)
            except IntegrityError as exc:
                if payload is None:
                    end = unit.buffer_offset + unit.length
                    buf_view[unit.buffer_offset : end] = bytes(unit.length)
                outcomes.append((unit, exc, payload))
                continue
            if payload is not None:
                self.cache.put(rel, unit.chunk_id, payload)
                for span in wanted[unit.chunk_id]:
                    piece = payload[span.offset : span.offset + span.length]
                    end = span.buffer_offset + len(piece)
                    buf_view[span.buffer_offset : end] = piece
            outcomes.append((unit, None, payload))
        return outcomes

    def _read_unit_at(self, target: int, rel: str, buf_view: memoryview, unit,
                      wanted) -> tuple:
        """One blocking single-unit read against one specific replica;
        same outcome triple as :meth:`_land_read_group`."""
        try:
            value = self._issue_read_group(target, rel, buf_view, [unit], wanted).result()
        except (IntegrityError, *UNREACHABLE) as exc:
            return unit, exc, None
        return self._land_read_group(rel, buf_view, [unit], value, wanted)[0]

    # -- integrity plane -----------------------------------------------------

    def _read_repair(self, rel: str, chunk_id: int, bad_targets: list[int],
                     good_target: Optional[int] = None, data: Optional[bytes] = None) -> None:
        """Best-effort read-repair: rewrite corrupt replicas in place.

        Fetches the whole chunk from ``good_target`` (unless the caller
        already holds a verified copy in ``data``), re-verifies it, and
        pushes it to every failed replica via ``gkfs_replace_chunk`` —
        which drops the old payload, re-checksums, and lifts quarantine.
        Strictly opportunistic: a copy that is gone, unreachable or does
        not verify is skipped (the read itself already succeeded and the
        scrubber provides the guaranteed repair path); anything else is a
        bug and propagates.
        """
        network = self.client.network
        tolerated = (IntegrityError, NotFoundError, *UNREACHABLE)
        if data is None:
            try:
                data = fetch_chunk(network.call, good_target, rel, chunk_id, self.config)
            except tolerated:
                return  # gone, or the "good" copy does not verify either
        inline = len(data) <= chunking.INLINE_THRESHOLD
        for target in bad_targets:
            try:
                network.call(
                    target, "gkfs_replace_chunk", rel, chunk_id, data if inline else None,
                    None,  # no wire digest: the payload was verified on receipt
                    bulk=None if inline else BulkHandle(data, readonly=True),
                )
            except tolerated:
                continue
            self.stats.read_repairs += 1
            self._instant("integrity.read_repair", "integrity", path=rel, chunk_id=chunk_id,
                          daemon=target)
