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

from itertools import repeat
from typing import Optional

from repro.common.errors import (
    BadFileDescriptorError, IntegrityError, IsADirectoryError_, UNREACHABLE,
)
from repro.core import chunking
from repro.core.chunking import (
    ChunkSpan, check_proofs, copy_chunk, pack_spans, reply_proofs, split_range, wire_digests,
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
        """Positional write: the data half, and the size update it owes."""
        self.write(entry, data, offset, offset + len(data))
        return len(data)

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
              end: Optional[int] = None) -> None:
        """A write: the chunk fan-out, then the caches hear of it, then
        the size update ``end`` it owes goes out — unless a cache holds it
        back or the owner took it with the bytes (see :meth:`_write_spans`).
        The metadata owner is resolved once: the one the fold was decided
        on is the one the update goes to."""
        if entry.is_dir:
            raise IsADirectoryError_(entry.path)
        if not entry.writable:
            raise BadFileDescriptorError(f"fd for {entry.path} is not open for writing")
        rel = entry.path
        view = memoryview(data)
        spans = split_range(offset, len(data), self.config.chunk_size)
        # Gate before resolving chunk owners, for the same reason as
        # metadata mutations (see _mutation_gate).
        self._mutation_gate()
        owner = None
        if end is not None and not self.mutations.holds_sizes:
            owner = self.client.distributor.locate_metadata(rel)
        seen = self._write_spans(rel, view, spans, None if owner is None else end, owner)
        self.stats.writes += 1
        self.stats.bytes_written += len(data)
        if seen is not None:  # the owner took the size with the bytes
            entry.size_seen, end = seen, None
        owed = self.mutations.wrote(rel, spans, view, end)
        if owed is not None:
            entry.size_seen = self.meta.call(rel, "gkfs_update_size", owed, False, owner=owner)

    def _write_spans(self, rel: str, view: memoryview, spans: list,
                     size: Optional[int] = None, owner: Optional[int] = None) -> Optional[int]:
        """The write fan-out: coalesce per daemon, one RPC each.

        Every span is routed to each daemon in its replica set; the spans
        a daemon owns are coalesced into one ``gkfs_write_chunks`` forward.
        All group RPCs are in flight at once — replicas included — and
        gathered afterwards.  A span is durable if at least one of its
        replicas took it; with replication off any loss is fatal.

        ``size`` (owed) rides in the RPC of a write whose only group goes to
        the record's only owner, ``owner``; returns the size it answered,
        else ``None``.
        """
        groups: dict[int, list] = {}
        for span in spans:
            for target in self._targets(rel, span.chunk_id):
                groups.setdefault(target, []).append(span)
        order = list(groups)
        # A span with replicas has two targets: only an unreplicated write folds.
        if size is not None and order != [owner]:
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
        data = b"" if count == 0 else None
        if data is None and size is None:
            if offset + count <= entry.size_seen:
                data = self._read_range(entry.path, count, offset, False)
            if data is None:
                size = self.stat_entry(entry, count=False).size
        if data is None:
            count = min(count, size - offset)
            data = self._read_range(entry.path, count, offset, True) if count > 0 else b""
        self.stats.reads += 1
        self.stats.bytes_read += len(data)
        return data

    def _read_range(self, rel: str, count: int, offset: int, pad: bool) -> Optional[bytes]:
        """``count`` bytes at ``offset`` in one pass: group the units by
        their first target, issue, gather, land, and count the bytes that
        landed.  Short of ``count`` (a hole, a short tail) it is ``None``
        unless ``pad``, which leaves the holes as zeros.

        A unit is a span, or with the chunk cache, past its hits, a whole
        missing chunk (intra-chunk readahead) that returns inline, is cached
        and is copied out to the spans that wanted it.  One inline span has
        no buffer: the reply's payload is the read.  Any other read lands in
        a zero-filled buffer that a bulk group exposes for the daemon's
        pushes.  Only a failed leg builds fail-over state (:meth:`_fail_over`).
        """
        spans = split_range(offset, count, self.config.chunk_size)
        units, wanted, landed = spans, None, 0
        buffer = view = None
        if self.cache is not None or len(spans) > 1 or count > chunking.INLINE_THRESHOLD:
            view = memoryview(buffer := bytearray(count))
        if self.cache is not None:
            wanted = {}  # missing chunk -> the spans waiting for it
            for span in spans:
                chunk = self.cache.get(rel, span.chunk_id)
                if chunk is None:
                    wanted.setdefault(span.chunk_id, []).append(span)
                else:
                    piece = chunk[span.offset : span.offset + span.length]
                    view[span.buffer_offset : span.buffer_offset + len(piece)] = piece
                    landed += len(piece)
            size = self.config.chunk_size
            units = [ChunkSpan(chunk_id, 0, size, 0) for chunk_id in wanted]
        locate = self.client.distributor.locate_chunk
        groups: dict[int, list] = {}
        for unit in units:
            groups.setdefault(locate(rel, unit.chunk_id), []).append(unit)
        issued = [(target, group, self._issue_read_group(target, rel, view, group, wanted))
                  for target, group in groups.items()]
        if len(issued) > self.stats.max_fanout:
            self.stats.max_fanout = len(issued)
        failed = []  # (target, units, error)
        # Each leg is awaited in turn and landed as it comes: legs land in
        # disjoint regions, and what failed is judged once all are in.
        for target, group, future in issued:
            try:
                value = future.result()
            except Exception as exc:
                failed.append((target, group, exc))
                continue
            got, bad = self._land_read_group(rel, view, group, value, wanted)
            landed += got
            if bad:
                failed += [(target, [unit], err) for unit, err in bad]
            data = value[3]  # the one inline span's payload, when there is no buffer
        if failed:
            if view is None:  # the one span fails over into a buffer after all
                view = memoryview(buffer := bytearray(count))
            landed += self._fail_over(rel, view, failed, wanted)
        if landed != count and not pad:
            return None
        if buffer is None:
            return data.ljust(count, b"\x00")  # the payload itself when it is full
        return bytes(buffer)

    def _fail_over(self, rel: str, view: memoryview, failed: list, wanted) -> int:
        """Replica fail-over for the ``(target, units, error)`` legs the
        first pass could not land; returns the bytes it landed.

        A unit that failed transiently or did not verify moves one step
        along its chain — its replica set, extended with the retiring
        epoch's owners while a membership change is RELEASING — and the
        units bound for one daemon go as one RPC, all in flight at once.
        A coalesced group the daemon failed verifying does not say which
        chunk tripped: its units are re-read one by one against the same
        daemon, so only the corrupt ones fail over.  Unreplicated and
        stable, a chain is one daemon and any loss is fatal.  Every chunk
        that healed by fail-over is read-repaired afterwards.
        """
        chains: dict[int, list[int]] = {}  # chunk_id -> fail-over chain
        step: dict[int, int] = {}  # chunk_id -> position of the replica last tried
        exhausted: list = []  # units whose whole chain failed
        last_transient: Optional[Exception] = None
        integrity_errors: dict[int, IntegrityError] = {}  # chunk_id -> last error
        bad_targets: dict[int, list[int]] = {}  # chunk_id -> replicas that failed verify
        healed: dict[int, tuple] = {}  # chunk_id -> (replica that served it, chunk or None)
        landed = 0
        while failed:
            issues = []  # (target, units): re-reads one by one, then a group per daemon
            groups: dict[int, list] = {}
            for target, units, exc in failed:
                if isinstance(exc, IntegrityError) and len(units) > 1:
                    issues += [(target, [unit]) for unit in units]
                    continue
                if not isinstance(exc, (IntegrityError, *UNREACHABLE)):
                    raise exc
                for unit in units:
                    chunk_id = unit.chunk_id
                    if isinstance(exc, IntegrityError):
                        self.stats.integrity_failovers += 1
                        self._instant("integrity.failover", "integrity", path=rel,
                                      chunk_id=chunk_id, daemon=target)
                        integrity_errors[chunk_id] = exc
                        bad_targets.setdefault(chunk_id, []).append(target)
                    else:
                        last_transient = exc
                    chain = chains.get(chunk_id)
                    if chain is None:
                        chain = chains[chunk_id] = self._read_targets(rel, chunk_id)
                    position = step[chunk_id] = step.get(chunk_id, 0) + 1
                    if position >= len(chain):
                        exhausted.append(unit)
                    else:
                        groups.setdefault(chain[position], []).append(unit)
            issues += groups.items()
            futures = [self._issue_read_group(target, rel, view, units, wanted)
                       for target, units in issues]
            failed = []
            for (target, units), (value, exc) in zip(issues, self._gather(futures)):
                if exc is not None:
                    failed.append((target, units, exc))
                    continue
                got, bad = self._land_read_group(rel, view, units, value, wanted)
                landed += got
                failed += [(target, [unit], err) for unit, err in bad]
                tripped = [unit for unit, _err in bad]
                for unit, chunk in zip(units, value[3:] if wanted else repeat(None)):
                    if unit.chunk_id in bad_targets and unit not in tripped:
                        healed[unit.chunk_id] = (target, chunk)
        for chunk_id, (good, payload) in healed.items():
            self._read_repair(rel, chunk_id, bad_targets[chunk_id], good, payload)
        if exhausted:
            for unit in exhausted:
                if unit.chunk_id in integrity_errors:
                    raise integrity_errors[unit.chunk_id]
            if last_transient is not None:
                raise self._fatal_transient(last_transient) from last_transient
            raise LookupError(rel)
        return landed

    def _issue_read_group(self, target: int, rel: str, view: Optional[memoryview],
                          group: list, wanted) -> RpcFuture:
        """One non-blocking read RPC covering every unit ``target`` owns.

        A direct group (``wanted is None``) above ``INLINE_THRESHOLD``
        bytes exposes the caller's buffer and the daemon pushes each unit
        at its buffer offset (scattered RDMA puts, one writable exposure
        per group).  At or below it, and for whole chunks bound for the
        cache, there is no bulk handle and the payloads ride the reply:
        two frames, and a small one is served by the thread that read it.
        """
        bulk = None
        if view is not None and wanted is None and (
                sum([unit.length for unit in group]) > chunking.INLINE_THRESHOLD):
            bulk = BulkHandle(view)
        return self.client.network.call_async(
            target, "gkfs_read_chunks", rel, pack_spans(group), bulk=bulk)

    def _land_read_group(self, rel: str, view: Optional[memoryview], group: list,
                         value: tuple, wanted) -> tuple[int, list]:
        """Land one group reply: ``(bytes landed, [(unit, IntegrityError), ...])``.

        A pushed direct read is in ``view`` already: only its proofs are
        re-checked, and a unit that fails has its region zeroed (poisoned
        bytes must not leak) and its bytes taken off the count.  An inline
        direct payload is its *span*, copied to its buffer offset (with no
        buffer it is checked where it lies).  A whole-chunk fetch
        (``wanted``), once verified, is cached at its **as-fetched** length
        (sparse tails read as zeros) and copied out to the spans waiting.
        """
        landed = 0 if wanted is not None else value[0]
        bad = []
        proofs = reply_proofs(value, self._grain) if value[1] else repeat(None)
        for unit, payload, proof in zip(group, value[3:], proofs):
            if wanted is not None:
                received, base = memoryview(payload), 0
            elif view is None:
                received, base = payload, -unit.offset
            else:
                if payload is not None:
                    view[unit.buffer_offset : unit.buffer_offset + len(payload)] = payload
                received, base = view, unit.buffer_offset - unit.offset
            if proof is not None:
                try:
                    check_proofs(rel, unit.chunk_id, received, base, proof, self._grain,
                                 self.config.integrity_algorithm)
                except IntegrityError as exc:
                    if wanted is None:
                        landed -= unit.length  # what it brought, or more: never full
                        if view is not None:
                            end = unit.buffer_offset + unit.length
                            view[unit.buffer_offset : end] = bytes(unit.length)
                    bad.append((unit, exc))
                    continue
            if wanted is not None:
                self.cache.put(rel, unit.chunk_id, payload)
                for span in wanted[unit.chunk_id]:
                    piece = payload[span.offset : span.offset + span.length]
                    view[span.buffer_offset : span.buffer_offset + len(piece)] = piece
                    landed += len(piece)
        return landed, bad

    # -- integrity plane -----------------------------------------------------

    def _read_repair(self, rel: str, chunk_id: int, bad_targets: list[int],
                     good_target: Optional[int] = None, data: Optional[bytes] = None) -> None:
        """Best-effort read-repair: restore the replicas that failed verification.

        Each is one :func:`~repro.core.chunking.copy_chunk` of the caller's
        verified copy ``data``, else of ``good_target``'s, judged ``None``
        (it failed verification): a replica a whole-chunk write healed
        since is left as it is.  Strictly opportunistic: a copy that races,
        is unreachable or does not verify is skipped (the read itself
        already succeeded and the scrubber provides the guaranteed repair
        path); anything else is a bug and propagates.
        """
        call = self.client.network.call
        for target in bad_targets:
            try:
                copy = copy_chunk(call, target, rel, chunk_id, None, self.config,
                                  sources=(good_target,), payload=data)
            except IntegrityError:
                continue
            if copy.outcome == "restored":
                self.stats.read_repairs += 1
                self._instant("integrity.read_repair", "integrity", path=rel, chunk_id=chunk_id,
                              daemon=target)
