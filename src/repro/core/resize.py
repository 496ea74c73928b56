"""Deployment resize: grow or shrink a running GekkoFS with migration.

The paper deploys GekkoFS for a job *or a campaign* (§I); campaigns span
jobs of different sizes, which makes elastic membership the natural
extension (and the subject of the authors' follow-on malleability work).
Resizing re-evaluates every placement under the new daemon count and
moves only the records/chunks whose owner changed — with
:class:`~repro.core.distributor.RendezvousDistributor` that is ~1/n of
the data, with modulo hashing it is nearly everything (the ABL bench
quantifies exactly this difference).

The move is :func:`live_migrate`, an **online** membership change
driven by the :class:`Migrator`: clients keep serving throughout (a
stop-the-world resize is the same call with no clients running).  The
protocol is iterative pre-copy (the live-VM-migration shape):

  1. ``begin_change`` bumps the membership epoch and stages the new
     placement; the *old* placement stays fully authoritative.
  2. Background pre-copy passes stream chunks and KV records to their
     new owners through ordinary RPC movers — throttled by a client-side
     token bucket (``migration_rate`` bytes/s) and scheduled in a
     low-weight QoS share (:data:`MIGRATION_CLIENT_ID`), so foreground
     I/O keeps priority.  Copies raced by writes go stale and are fixed
     by the next pass (digest comparison finds them).  A copy an old
     owner holds is never replaced here: those owners take the writes.
  3. A brief write freeze (mutating RPCs park at the client gate) plus a
     grace sleep quiesces the sources; the final delta pass — unthrottled,
     so the freeze stays short no matter how low ``migration_rate`` is —
     then copies exactly what changed *and propagates deletions*: an item
     whose entire old-owner replica set no longer holds it was unlinked
     mid-migration, and its pre-copied target copies are dropped instead
     of resurrecting after the flip.  Every copy is the one chunk copy
     (:func:`~repro.core.chunking.copy_chunk`), guarded by the target's
     digest from the pass's snapshot and answered with the installed
     copy's digest, read back.
  4. ``commit_change`` flips: the new placement becomes authoritative
     and writes unfreeze.  Reads fall back to the old owners while the
     view is RELEASING (dual-epoch fallback) — covering in-flight
     operations that resolved their targets before the flip.
  5. Source copies are released only after their new owners re-verify,
     the epoch is sealed, and daemons raise ``min_epoch`` so retired
     epochs are rejected server-side too.

  Any failure *before* the flip aborts the change with the old placement
  untouched — crash-mid-migration is survivable by construction.

The migrator drives the deployment only through its verbs and the wire
(``migration_network()``): records are listed by ``gkfs_inventory``,
installed in batches by ``gkfs_install_records`` and dropped by
``gkfs_remove_metadata``; a chunk copy is dropped by an empty
``gkfs_replace_chunk``; the epoch floor is set by ``gkfs_set_epoch`` and
the abort black box written by ``gkfs_flight_dump``.  So a live resize
runs the same on every node substrate.

Crash-replace is not a move: ``Deployment.replace_daemon`` restores a
blank node through :class:`~repro.selfheal.repair.WireRepairer`, the
restore path restart and the supervisor use too.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.common.errors import UNREACHABLE, GekkoError, IntegrityError, NotFoundError
from repro.core.chunking import chunk_digests, copy_chunk
from repro.core.daemon import INVENTORY_PAGE, read_chunks, read_records
from repro.core.distributor import Distributor, replica_set
from repro.core.membership import MIGRATING
from repro.core.metadata import prefer_record, record_head
from repro.qos.admission import TokenBucket
from repro.qos.pool import MIGRATION_CLIENT_ID
from repro.storage.integrity import chunk_checksum

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import Deployment

__all__ = [
    "MIGRATION_CLIENT_ID",
    "MigrationReport",
    "Migrator",
    "live_migrate",
]

#: Pre-copy rounds before the write freeze.  More passes shrink the
#: frozen delta under heavy write load; the final (frozen) pass always
#: runs regardless.
_DEFAULT_PRECOPY_PASSES = 2

#: Grace sleep bracketing the freeze and the flip: long enough for
#: in-flight operations that resolved their targets under the previous
#: state to drain (epoch-based-reclamation-style reasoning — nothing
#: issued *after* the state change can use the old resolution).
_DEFAULT_GRACE = 0.05


@dataclass
class MigrationReport:
    """What a resize actually moved.

    ``bytes_moved`` counts every payload that crossed the wire —
    re-copies of write-raced chunks included — which is exactly the
    figure the EXT-ELASTIC experiment bounds against the closed-form
    minimum.  ``per_daemon`` breaks traffic down per address:
    ``{address: {"bytes_in", "bytes_out", "chunks_in", "chunks_out",
    "records_in", "records_out"}}``.
    """

    old_nodes: int
    new_nodes: int
    metadata_total: int = 0
    metadata_moved: int = 0
    chunks_total: int = 0
    chunks_moved: int = 0
    bytes_moved: int = 0
    #: Wall-clock seconds the migration took, end to end.
    duration: float = 0.0
    #: Copy passes run (pre-copy rounds plus the frozen delta pass).
    passes: int = 0
    #: Individual chunk copies verified against their source digest.
    verified: int = 0
    #: Target copies whose read-back digest did not match (fatal).
    verify_failures: int = 0
    #: Source copies dropped after their new owners re-verified.
    released: int = 0
    #: How the change ran (``live``: the only mode).
    mode: str = "live"
    #: Membership epoch the change created.
    epoch: Optional[int] = None
    #: Per-address traffic breakdown (see class docstring).
    per_daemon: dict = field(default_factory=dict)

    @property
    def metadata_moved_fraction(self) -> float:
        return self.metadata_moved / self.metadata_total if self.metadata_total else 0.0

    @property
    def chunks_moved_fraction(self) -> float:
        return self.chunks_moved / self.chunks_total if self.chunks_total else 0.0

    def daemon_entry(self, address: int) -> dict:
        """The (created-on-demand) per-address traffic counters."""
        return self.per_daemon.setdefault(
            address,
            {
                "bytes_in": 0,
                "bytes_out": 0,
                "chunks_in": 0,
                "chunks_out": 0,
                "records_in": 0,
                "records_out": 0,
            },
        )

    def as_dict(self) -> dict:
        """JSON-ready form (the ``repro resize --json`` export)."""
        return {
            "old_nodes": self.old_nodes,
            "new_nodes": self.new_nodes,
            "mode": self.mode,
            "epoch": self.epoch,
            "metadata_total": self.metadata_total,
            "metadata_moved": self.metadata_moved,
            "metadata_moved_fraction": self.metadata_moved_fraction,
            "chunks_total": self.chunks_total,
            "chunks_moved": self.chunks_moved,
            "chunks_moved_fraction": self.chunks_moved_fraction,
            "bytes_moved": self.bytes_moved,
            "duration": self.duration,
            "passes": self.passes,
            "verified": self.verified,
            "verify_failures": self.verify_failures,
            "released": self.released,
            "per_daemon": {str(addr): dict(entry) for addr, entry in sorted(self.per_daemon.items())},
        }

    def __str__(self) -> str:
        text = (
            f"resize {self.old_nodes}->{self.new_nodes} nodes: moved "
            f"{self.metadata_moved}/{self.metadata_total} records, "
            f"{self.chunks_moved}/{self.chunks_total} chunks "
            f"({self.bytes_moved:,} bytes)"
        )
        if self.duration:
            text += f" in {self.duration:.3f}s [{self.mode}, {self.passes} passes]"
        return text


class Migrator:
    """Streams chunks and KV records to their owners under a placement.

    The work-horse of :func:`live_migrate`.  Who holds what comes from
    every live daemon's paged ``gkfs_inventory``, and every *chunk*
    moves by :func:`~repro.core.chunking.copy_chunk`: fetched from the
    first source replica that serves a verified copy (bit-rot or an
    unreachable source fails over to the next), installed by one guarded
    ``gkfs_replace_chunk``.

    :param cluster: the deployment being rebalanced.
    :param report: accounting sink (shared with the orchestrator).
    :param rate: byte-per-second cap on mover traffic (token bucket);
        ``None`` is unthrottled.
    """

    def __init__(
        self,
        cluster: "Deployment",
        report: MigrationReport,
        *,
        rate: Optional[float] = None,
    ):
        self.cluster = cluster
        self.config = cluster.config
        self.chunk_size = cluster.config.chunk_size
        self.report = report
        # Burst must cover one whole chunk or a full-chunk acquire could
        # never succeed; beyond that, one second's worth of rate.
        self.bucket = (
            TokenBucket(rate, burst=max(float(rate), float(self.chunk_size)))
            if rate
            else None
        )
        self.network = cluster.migration_network()
        # Items already counted in ``*_moved`` — re-copies across passes
        # count once as a move, but every time in ``bytes_moved``.
        self._already_moved_meta: set = set()
        self._already_moved_chunks: set = set()

    # -- throttle -----------------------------------------------------------

    def _throttle(self, nbytes: int) -> None:
        """Debit ``nbytes`` from the migration token bucket, sleeping as
        the bucket directs — the client-side half of keeping rebalance
        traffic under its configured ceiling."""
        if self.bucket is None or nbytes <= 0:
            return
        amount = min(float(nbytes), self.bucket.burst)
        while True:
            wait = self.bucket.try_acquire(amount)
            if wait <= 0:
                return
            time.sleep(min(wait, 0.05))

    # -- enumeration --------------------------------------------------------

    def _index(self) -> tuple[dict, dict]:
        """Who currently holds what, across every live daemon.

        Returns ``(meta, chunks)``: ``{path: {address: record}}`` and
        ``{(path, chunk_id): [addresses]}``.
        """
        meta: dict[str, dict[int, bytes]] = {}
        chunks: dict[tuple[str, int], list[int]] = {}
        for address in self.cluster.live_addresses():
            fetch = functools.partial(self.network.call, address, "gkfs_inventory")
            for path, record in read_records(fetch):
                meta.setdefault(path, {})[address] = record
            for path, chunk_id, _length, _quarantined in read_chunks(fetch):
                chunks.setdefault((path, chunk_id), []).append(address)
        return meta, chunks

    def _owners(self, dist: Distributor, primary: int) -> list[int]:
        return replica_set(primary, self.config.replication, dist.num_daemons)

    def _ordered_sources(self, holders: list[int], preferred: list[int]) -> list[int]:
        """Holders ordered with the authoritative (old-owner) set first."""
        head = [a for a in preferred if a in holders]
        return head + [a for a in holders if a not in head]

    def _drop_record(self, holder: int, rel: str, record: bytes) -> None:
        """Remove ``holder``'s copy of a record (its type from the listing)."""
        try:
            self.network.call(holder, "gkfs_remove_metadata", rel, record_head(record)[0])
        except NotFoundError:
            pass  # already gone
        self.report.daemon_entry(holder)["records_out"] += 1

    def _drop_chunk(self, holder: int, path: str, chunk_id: int) -> None:
        """Remove ``holder``'s copy of a chunk: an empty replacement."""
        self.network.call(holder, "gkfs_replace_chunk", path, chunk_id, b"", None)
        self.report.daemon_entry(holder)["chunks_out"] += 1

    # -- mover (RPC) --------------------------------------------------------

    def _copy_chunk(
        self, sources: list[int], path: str, chunk_id: int, target: int, seen: Optional[dict]
    ) -> Optional[int]:
        """Copy one chunk onto ``target`` (``seen``: its copy in the pass's
        snapshot), throttled and accounted; returns the payload size, or
        ``None`` for the authoritative copy itself (``sources[0]``) when no
        other source serves one (scrub reports it).  Any other target with
        no source raises the last source's error; a copy that raced or does
        not read back as sent counts in ``verify_failures`` and raises
        :class:`IntegrityError`."""
        try:
            copy = copy_chunk(self.network.call, target, path, chunk_id, seen, self.config,
                              sources=sources)
            if copy.outcome == "racing":
                raise IntegrityError(
                    f"chunk {chunk_id} of {path!r}: target {target}'s copy moved "
                    f"during the migration copy"
                )
        except IntegrityError:
            self.report.verify_failures += 1
            raise
        if copy.outcome == "unreachable":
            if target == sources[0]:
                return None
            raise copy.error
        self._throttle(copy.size)
        self.report.verified += 1
        self.report.bytes_moved += copy.size
        entry = self.report.daemon_entry(target)
        entry["chunks_in"] += 1
        entry["bytes_in"] += copy.size
        entry = self.report.daemon_entry(copy.source)
        entry["chunks_out"] += 1
        entry["bytes_out"] += copy.size
        return copy.size

    # -- copy pass ----------------------------------------------------------

    def _deleted_under(self, holders: list[int], preferred: list[int], live: set) -> bool:
        """Was this item deleted on its authoritative (old-owner) replicas?

        True only when *every* authoritative owner is live (so absence is
        a fact, not an outage) and *none* of them still holds a copy —
        the only way a copy can exist solely on non-authoritative holders
        is that the migrator streamed it there and a client then deleted
        the original.  Only meaningful under a write freeze, where the
        index snapshot cannot race a concurrent mutation.
        """
        if any(address not in live for address in preferred):
            return False  # an old owner is down: absence is unprovable
        return not any(address in holders for address in preferred)

    def copy_pass(
        self,
        new_dist: Distributor,
        *,
        source_dist: Distributor,
        count_totals: bool = False,
        propagate_deletes: bool = False,
        throttle: bool = True,
    ) -> int:
        """One convergence round: give every desired owner under
        ``new_dist`` an up-to-date copy of every record and chunk.

        Idempotent — a copy already in place costs a digest comparison
        (none when it is the only copy) and moves
        nothing, so repeated passes only transfer the delta that
        foreground writes dirtied since the last round.  While writes are
        live a chunk is copied to new owners only.
        Returns the bytes copied this pass (0 = converged) — chunk
        payloads plus key+value bytes for copied metadata records, so a
        records-only round still reads as churn to convergence checks.

        ``source_dist`` is the authoritative placement: its owners took
        every client write, so they are the sources, and where their
        copies of a record disagree :func:`~repro.core.metadata
        .prefer_record` picks the one to install.  With
        ``count_totals`` the pass also records the scanned universe in
        ``metadata_total``/``chunks_total``.

        ``propagate_deletes`` makes the pass propagate *absence* too: an
        item held only by non-authoritative daemons — its entire (live)
        old-owner replica set no longer has it — was deleted by a client
        after a pre-copy streamed it, and the stale copies are dropped
        instead of kept.  Only safe under the write freeze; without it,
        acknowledged deletions silently resurrect on the new owners after
        the flip.

        ``throttle=False`` bypasses the migration token bucket for this
        pass — the frozen delta pass runs unthrottled so a low
        ``migration_rate`` cannot stretch the write freeze past the
        client gate's timeout.
        """
        meta_index, chunk_index = self._index()
        if count_totals:
            self.report.metadata_total = len(meta_index)
            self.report.chunks_total = len(chunk_index)
        pass_bytes = 0
        moved_meta: set[str] = set()
        moved_chunks: set[tuple[str, int]] = set()
        live = set(self.cluster.live_addresses())
        saved_bucket = self.bucket
        if not throttle:
            self.bucket = None
        try:
            # -- metadata records (tiny values; batched per target) -------
            installs: dict[int, list] = {}
            for rel, held in meta_index.items():
                holders = list(held)
                desired = self._owners(new_dist, new_dist.locate_metadata(rel))
                preferred = self._owners(source_dist, source_dist.locate_metadata(rel))
                if propagate_deletes and self._deleted_under(holders, preferred, live):
                    for holder in holders:
                        self._drop_record(holder, rel, held[holder])
                    continue
                # The winning record among the authoritative holders;
                # another holder's copy only when none of them has one.
                value = supplier = None
                for source in self._ordered_sources(holders, preferred):
                    if value is not None and source not in preferred:
                        break
                    if prefer_record(value, held[source]) is held[source]:
                        value, supplier = held[source], source
                for target in desired:
                    if held.get(target) == value:
                        continue
                    nbytes = len(rel.encode("utf-8")) + len(value)
                    self._throttle(nbytes)
                    installs.setdefault(target, []).append((rel, value))
                    pass_bytes += nbytes
                    moved_meta.add(rel)
                    self.report.daemon_entry(target)["records_in"] += 1
                    self.report.daemon_entry(supplier)["records_out"] += 1
            for target, records in installs.items():
                for start in range(0, len(records), INVENTORY_PAGE):
                    page = records[start:start + INVENTORY_PAGE]
                    self.network.call(target, "gkfs_install_records", page)

            # -- data chunks (RPC movers) ----------------------------------
            plans = []  # (path, chunk_id, sources, desired owners to check)
            for (path, chunk_id), holders in chunk_index.items():
                desired = self._owners(new_dist, new_dist.locate_chunk(path, chunk_id))
                preferred = self._owners(source_dist, source_dist.locate_chunk(path, chunk_id))
                if propagate_deletes and self._deleted_under(holders, preferred, live):
                    for holder in holders:
                        self._drop_chunk(holder, path, chunk_id)
                    continue
                sources = self._ordered_sources(holders, preferred)
                # A sole holder's copy is in place: nothing to restore from.
                targets = [t for t in desired if sources != [t]]
                if not self.cluster.view.frozen:
                    # The old owners take every write until the freeze: a
                    # write after the snapshot makes the guarded replace
                    # refuse, which reads as a failed copy.
                    targets = [t for t in targets if t not in preferred]
                if targets:
                    plans.append((path, chunk_id, sources, targets))
            # A desired owner's copy is current when it verifies and its
            # digest matches the authoritative copy's (``sources[0]``);
            # one missing, stale or rotted is copied from the others —
            # the authoritative copy itself included.  The snapshot is
            # what each copy's guard compares: a non-holder's is empty.
            wanted = set()
            for path, chunk_id, sources, targets in plans:
                held = [t for t in targets if t in sources]
                if held:
                    wanted.update((a, path, chunk_id) for a in (sources[0], *held))
            digests = chunk_digests(self.network.call_async, sorted(wanted))
            empty = {"length": 0, "digest": chunk_checksum(b"", 0, self.config.integrity_algorithm)}
            for path, chunk_id, sources, targets in plans:
                reference = digests.get((sources[0], path, chunk_id))
                for target in targets:
                    held = target in sources
                    seen = digests[(target, path, chunk_id)] if held else empty
                    if held and reference is not None and seen == reference:
                        continue  # already in place and current
                    copied = self._copy_chunk(sources, path, chunk_id, target, seen)
                    if copied is not None:
                        pass_bytes += copied
                        moved_chunks.add((path, chunk_id))
        finally:
            self.bucket = saved_bucket

        self.report.metadata_moved += len(moved_meta - self._already_moved_meta)
        self.report.chunks_moved += len(moved_chunks - self._already_moved_chunks)
        self._already_moved_meta |= moved_meta
        self._already_moved_chunks |= moved_chunks
        return pass_bytes

    # -- release pass -------------------------------------------------------

    def release_pass(self, new_dist: Distributor) -> None:
        """Drop source copies that the sealed placement no longer wants.

        A chunk's surplus copy is released only after every desired owner
        re-verifies — serves a clean ``gkfs_chunk_digest`` — so a copy
        that rotted *after* migration still has its source available for
        the scrubber.  (Digest *equality* with the source is not required
        here: post-flip writes legitimately diverge the new owners from
        the retired sources.)
        """
        meta_index, chunk_index = self._index()
        for rel, held in meta_index.items():
            desired = set(self._owners(new_dist, new_dist.locate_metadata(rel)))
            for holder, record in held.items():
                if holder not in desired:
                    self._drop_record(holder, rel, record)
        for (path, chunk_id), holders in chunk_index.items():
            desired = set(self._owners(new_dist, new_dist.locate_chunk(path, chunk_id)))
            surplus = [h for h in holders if h not in desired]
            if not surplus:
                continue
            for target in sorted(desired):
                # Raises IntegrityError if the installed copy rotted —
                # in which case the source stays put for repair.
                self.network.call(target, "gkfs_chunk_digest", path, chunk_id)
            for holder in surplus:
                self._drop_chunk(holder, path, chunk_id)
                self.report.released += 1


def _instant(cluster: "Deployment", name: str, **args) -> None:
    """Emit one migration timeline event when telemetry is up."""
    if cluster.trace_collector is not None:
        cluster.trace_collector.instant(name, "migration", **args)


def live_migrate(
    cluster: "Deployment",
    new_distributor: Distributor,
    *,
    rate: Optional[float] = None,
    precopy_passes: int = _DEFAULT_PRECOPY_PASSES,
    grace: float = _DEFAULT_GRACE,
) -> MigrationReport:
    """Online membership change: rebalance onto ``new_distributor`` while
    clients keep serving.  See the module docstring for the protocol.

    The cluster must already have daemons built for every address the new
    placement spans (:meth:`~repro.core.cluster.GekkoFSCluster
    .resize_live` handles that).  Raises whatever broke on failure; any
    failure before the flip leaves the old placement authoritative and
    the view aborted — safe to retry after healing.
    """
    view = cluster.view
    config = cluster.config
    old_dist = view.distributor
    report = MigrationReport(
        old_nodes=old_dist.num_daemons,
        new_nodes=new_distributor.num_daemons,
    )
    rate = rate if rate is not None else config.migration_rate
    started = time.monotonic()
    epoch = view.begin_change(new_distributor)
    report.epoch = epoch
    _instant(
        cluster,
        "migration.begin",
        epoch=epoch,
        old_nodes=old_dist.num_daemons,
        new_nodes=new_distributor.num_daemons,
    )
    migrator = Migrator(cluster, report, rate=rate)
    try:
        # Pre-copy rounds: foreground writes keep landing on the old
        # owners; whatever they dirty is re-copied next round.
        for round_ in range(max(0, precopy_passes)):
            moved = migrator.copy_pass(
                new_distributor,
                source_dist=old_dist,
                count_totals=(report.passes == 0),
            )
            report.passes += 1
            _instant(cluster, "migration.pass", epoch=epoch, round=round_, bytes=moved)
            if moved == 0:
                break
        # Freeze + final delta: mutating RPCs park at the client gate;
        # the grace sleep drains mutations already past it, then the
        # frozen pass copies exactly what the last round missed and
        # propagates deletions made during pre-copy (stale new-owner
        # copies of unlinked items are dropped, not resurrected).  It
        # runs unthrottled: the freeze must stay shorter than the client
        # gate's timeout regardless of how low ``migration_rate`` is.
        view.freeze_writes()
        try:
            time.sleep(grace)
            moved = migrator.copy_pass(
                new_distributor,
                source_dist=old_dist,
                count_totals=(report.passes == 0),
                propagate_deletes=True,
                throttle=False,
            )
            report.passes += 1
            _instant(cluster, "migration.freeze", epoch=epoch, bytes=moved)
            view.commit_change()  # the flip: new placement authoritative
            cluster.distributor = new_distributor
        finally:
            view.unfreeze_writes()
    except BaseException:
        if view.state == MIGRATING:
            view.abort_change()
            _instant(cluster, "migration.abort", epoch=epoch)
            # Snapshot every live daemon's black box; one that cannot
            # answer must not mask the migration error.
            for address in cluster.live_addresses():
                try:
                    migrator.network.call(address, "gkfs_flight_dump", "migration-abort")
                except UNREACHABLE + (GekkoError,):
                    pass
        raise
    _instant(cluster, "migration.flip", epoch=epoch)
    # RELEASING: reads that resolved targets pre-flip drain against the
    # old owners (which still hold everything); new reads that miss fall
    # back through the view's old-owner targets.
    time.sleep(grace)
    migrator.release_pass(new_distributor)
    view.seal()
    for address in cluster.live_addresses():
        migrator.network.call(address, "gkfs_set_epoch", epoch)
    report.duration = time.monotonic() - started
    _instant(
        cluster,
        "migration.seal",
        epoch=epoch,
        bytes_moved=report.bytes_moved,
        duration=report.duration,
    )
    return report
