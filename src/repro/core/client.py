"""The GekkoFS client library (the interposition layer's brain).

The preloaded library in the paper intercepts file-system calls, answers
them from its own file map where possible, forwards GekkoFS paths to the
responsible daemons, and lets everything else fall through to the
node-local file system (§III-B).  This class is that library with the ELF
interposition replaced by an explicit call surface: the routing decision,
fd management, span splitting, RPC fan-out, and size-update protocol are
all faithful.

Semantics implemented (and deliberately not implemented) follow §III-A:

* strong consistency for operations on a specific file,
* eventually-consistent ``readdir`` (merged per-daemon partial listings),
* no rename/move, no links — :class:`~repro.common.errors.UnsupportedError`
  (rename has an opt-in copy-then-unlink emulation),
* every call on a path outside the mountpoint, or on a kernel descriptor,
  goes to its ``os.*`` counterpart (:func:`_routed`, the one routing rule),
* no permission enforcement, no global locks, synchronous I/O,
* cache-less by default; three opt-in client caches (size updates §IV-B,
  whole chunks §V, metadata leases) whose coherence rules are
  :meth:`GekkoFSClient._flush_size` and :meth:`GekkoFSClient._forget`.

There is one data path: every request is split into chunk spans, the spans
are coalesced per daemon and forwarded as concurrent non-blocking RPCs,
and the client waits once (§III-B).
"""

from __future__ import annotations

import errno
import functools
import os
from dataclasses import dataclass
from stat import S_ISDIR
from typing import Optional

from repro.common.errors import (
    BadFileDescriptorError,
    DaemonUnavailableError,
    ExistsError,
    IntegrityError,
    InvalidArgumentError,
    IsADirectoryError_,
    NotADirectoryError_,
    NotEmptyError,
    NotFoundError,
    UNREACHABLE,
    UnsupportedError,
)
from repro.storage.integrity import load_accelerator
from repro.core.cache import SizeUpdateCache
from repro.core import chunking
from repro.core.chunking import (
    ChunkSpan,
    check_proofs,
    fetch_chunk,
    pack_spans,
    reply_proofs,
    split_range,
    wire_digests,
)
from repro.core.datacache import ChunkCache
from repro.core.config import FSConfig
from repro.core.distributor import Distributor, replica_set
from repro.core.filemap import FD_BASE, OpenFile, OpenFileMap
from repro.core.metadata import Metadata, new_dir_metadata, new_file_metadata, record_head
from repro.metacache import ClientMetaCache, hot_replica_targets, meta_version
from repro.rpc import BulkHandle, RpcFuture, RpcNetwork
from repro.telemetry.metrics import MetricsRegistry, merge_snapshots
from repro.telemetry.spans import install_op_spans

__all__ = ["GekkoFSClient", "ClientStats"]


def _routed(local, by: str = "path"):
    """Declare one call's routing: the interception rule, written once.

    ``by`` names what routes the call — its first argument as a
    ``"path"`` (node-local when outside the mountpoint), as an ``"fd"``
    (node-local below :data:`FD_BASE`: a descriptor the kernel handed
    out), or its first two arguments as ``"paths"`` (node-local only when
    both are).  A node-local call runs ``local``, the call's ``os.*``
    counterpart, with the caller's arguments; every other call runs the
    decorated GekkoFS body.  The result is a plain function, so the call
    surface stays introspectable (``tests/test_telemetry_surface.py``).
    """

    def decorate(body):
        if by == "fd":
            def call(self, fd, *args, **kwargs):
                if fd < FD_BASE:
                    return local(fd, *args, **kwargs)
                return body(self, fd, *args, **kwargs)
        elif by == "paths":
            def call(self, first, second, *args, **kwargs):
                if not (self.is_gekkofs_path(first) or self.is_gekkofs_path(second)):
                    return local(first, second, *args, **kwargs)
                return body(self, first, second, *args, **kwargs)
        else:
            def call(self, path, *args, **kwargs):
                if not self.is_gekkofs_path(path):
                    return local(path, *args, **kwargs)
                return body(self, path, *args, **kwargs)
        return functools.wraps(body)(call)

    return decorate


# -- node-local counterparts that are not a bare ``os.*`` call -------------


def _kernel_metadata(st: os.stat_result) -> Metadata:
    """A node-local file's attributes in the shape GekkoFS answers."""
    return Metadata(
        is_dir=S_ISDIR(st.st_mode),
        size=st.st_size,
        mode=st.st_mode & 0o7777,
        ctime=st.st_ctime,
        mtime=st.st_mtime,
        atime=st.st_atime,
    )


def _kernel_listing(path: str) -> list[tuple[str, bool]]:
    with os.scandir(path) as entries:
        return sorted((entry.name, entry.is_dir()) for entry in entries)


def _kernel_listing_plus(path: str) -> list[tuple[str, Metadata]]:
    with os.scandir(path) as entries:
        return sorted(
            ((entry.name, _kernel_metadata(entry.stat())) for entry in entries),
            key=lambda item: item[0],
        )


def _kernel_dir_stream(path: str) -> OpenFile:
    return OpenFile(
        path=path, flags=os.O_RDONLY, is_dir=True, dir_entries=_kernel_listing(path)
    )


def _kernel_snapshot(path: str) -> tuple[int, int]:
    fd = os.open(path, os.O_RDONLY)
    st = os.fstat(fd)
    if S_ISDIR(st.st_mode):
        os.close(fd)
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return fd, st.st_size


@dataclass
class ClientStats:
    """Per-client operation counters."""

    opens: int = 0
    creates: int = 0
    stats_: int = 0
    removes: int = 0
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    readdirs: int = 0
    #: Widest single RPC fan-out this client has had in flight at once.
    max_fanout: int = 0
    #: Broadcasts that completed with at least one unreachable daemon.
    degraded_ops: int = 0
    #: Individual broadcast legs lost to unreachable daemons (tolerated).
    leg_failures: int = 0
    #: Read legs that failed checksum verification and fell over to
    #: another replica (integrity plane).
    integrity_failovers: int = 0
    #: Corrupt replica chunks rewritten in place from a verified copy
    #: after a successful fail-over (read-repair).
    read_repairs: int = 0
    #: Replica write legs that failed while the op still acked — the
    #: replica now holds stale data until something resyncs it.
    dirty_marks: int = 0
    #: Dirty marks dropped because the ledger hit capacity (resync
    #: coverage lost; anti-entropy must fall back to a full pass).
    dirty_overflow: int = 0


class GekkoFSClient:
    """One application process's view of a GekkoFS deployment.

    :param network: the deployment's RPC address book.
    :param distributor: placement policy (must match every other client).
    :param config: deployment configuration (must match the daemons).
    :param node_id: the node this client runs on (diagnostics only — the
        hash distribution makes placement location-independent).
    """

    def __init__(
        self,
        network: RpcNetwork,
        distributor: Distributor,
        config: FSConfig,
        node_id: int = 0,
    ):
        self.network = network
        self.distributor = distributor
        self.config = config
        self.node_id = node_id
        self.filemap = OpenFileMap()
        self.size_cache = (
            SizeUpdateCache(config.size_cache_flush_every)
            if config.size_cache_enabled
            else None
        )
        self.data_cache = (
            ChunkCache(config.data_cache_bytes, config.chunk_size)
            if config.data_cache_enabled
            else None
        )
        self.meta_cache = (
            ClientMetaCache(config.metacache_ttl, config.metacache_capacity)
            if config.metacache_enabled
            else None
        )
        self.stats = ClientStats()
        # Integrity plane: optionally ship span digests with writes.
        # Cached — the config is frozen.
        self._verify_writes = config.integrity_verify_writes
        self._grain = chunking.digest_grain(config)
        if config.integrity_enabled:
            load_accelerator()  # at set-up, not in the first read
        #: Per-op records of tolerated broadcast leg failures (telemetry):
        #: ``{"handler": ..., "failed": {address: exception class name}}``.
        self.degraded_events: list[dict] = []
        #: Chunk replicas known to have missed an acked write — keys are
        #: ``(rel, chunk_id, stale_address)``, insertion-ordered.  The
        #: consensus-free write path acks once *one* replica lands a
        #: span; the legs that failed hold stale (same-length!) data a
        #: digest comparison cannot arbitrate, so the client records the
        #: ground truth here for the self-healing plane to drain
        #: (:meth:`repro.selfheal.Supervisor.register_client`).
        self.dirty_replicas: dict = {}
        self._dirty_seq = 0
        #: Registry mirroring :class:`ClientStats` (``client.*`` gauges) —
        #: the same enumeration path as the daemon-side registries, so
        #: ``degraded_ops``/``leg_failures`` appear in metrics reports.
        self.metrics_registry = self._build_metrics_registry()
        # With telemetry enabled the cluster sets network.tracer; every
        # traced operation on this client then opens a span.
        tracer = getattr(network, "tracer", None)
        if tracer is not None:
            install_op_spans(self, tracer)

    # -- interception routing ---------------------------------------------

    def is_gekkofs_path(self, path: str) -> bool:
        """The interception test: does ``path`` live under the mountpoint?"""
        mp = self.config.mountpoint
        return path == mp or path.startswith(mp + "/")

    def _rel(self, path: str) -> str:
        """Internal (mount-relative) form of ``path``; root is ``"/"``."""
        if not self.is_gekkofs_path(path):
            raise InvalidArgumentError(f"{path!r} is not under {self.config.mountpoint!r}")
        rel = path[len(self.config.mountpoint) :]
        rel = rel.rstrip("/") or "/"
        if "//" in rel:
            raise InvalidArgumentError(f"{path!r} contains empty components")
        return rel

    # -- RPC shorthands ------------------------------------------------------

    #: Transport-level failures a replicated call may tolerate.  A tripped
    #: circuit breaker (:class:`DaemonUnavailableError`) counts: the next
    #: replica may still serve, and the breaker's whole point is to make
    #: this leg fail instantly instead of after a timeout.
    _TRANSIENT = (LookupError, ConnectionError, TimeoutError, DaemonUnavailableError)
    #: Metadata handlers that only read (replica fallback allowed).
    _META_READS = frozenset({"gkfs_stat", "gkfs_stat_lease", "gkfs_stat_if_changed"})

    def _fatal_transient(self, exc: Exception) -> Exception:
        """The exception a *fatal* transient delivery failure surfaces as.

        In degraded mode raw transport failures become ``EIO``
        (:class:`DaemonUnavailableError`) — applications get the bounded
        dead-disk contract, not a transport stack trace.  Otherwise the
        exception propagates unchanged (the paper's loud behaviour).
        """
        if self.config.degraded_mode and not isinstance(exc, DaemonUnavailableError):
            return DaemonUnavailableError(f"{type(exc).__name__}: {exc}")
        return exc

    @property
    def _tolerate_broadcast_loss(self) -> bool:
        """May a broadcast survive an unreachable daemon?

        Yes when replication can cover the gap, or when the deployment
        opted into degraded mode (partial results flagged in telemetry).
        """
        return self.config.replication > 1 or self.config.degraded_mode

    def _note_degraded(self, handler: str, failed: dict) -> None:
        """Account one broadcast that lost legs to unreachable daemons."""
        self.stats.leg_failures += len(failed)
        self.stats.degraded_ops += 1
        self.degraded_events.append(
            {
                "handler": handler,
                "failed": {
                    target: type(exc).__name__ for target, exc in failed.items()
                },
            }
        )
        tracer = getattr(self.network, "tracer", None)
        if tracer is not None:
            tracer.instant(
                "broadcast.degraded",
                "degraded",
                handler=handler,
                failed={
                    target: type(exc).__name__ for target, exc in failed.items()
                },
            )

    _DIRTY_CAPACITY = 4096

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

    def _note_dirty_replica(
        self, rel: str, chunk_id: int, target: int, seq: int
    ) -> None:
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

    def _build_metrics_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        for field in ClientStats.__dataclass_fields__:
            registry.gauge(f"client.{field}", lambda f=field: getattr(self.stats, f))
        registry.gauge("client.degraded_events", lambda: len(self.degraded_events))
        # Under QoS the network is a ClientPort carrying congestion-control
        # counters; mirror them the same way so throttle behaviour shows up
        # in every metrics report.  (getattr on the instance dict — the
        # port's __getattr__ forwarding never fabricates this attribute.)
        qos_stats = getattr(self.network, "qos_stats", None)
        if qos_stats is not None:
            registry.gauge("client.qos_throttles", lambda s=qos_stats: s.throttles)
            registry.gauge("client.qos_giveups", lambda s=qos_stats: s.giveups)
            registry.gauge(
                "client.qos_throttle_wait", lambda s=qos_stats: s.throttle_wait
            )
        # Cache effectiveness counters, mirrored like everything else so
        # ``repro metrics``/``repro top`` report them (cache.* family for
        # the pre-existing caches, metacache.* for the metadata cache).
        if self.size_cache is not None:
            for field in ("updates_buffered", "flushes", "rpcs_saved"):
                registry.gauge(
                    f"cache.size_{field}",
                    lambda f=field: getattr(self.size_cache.stats, f),
                )
        if self.data_cache is not None:
            for field in ("hits", "misses", "evictions", "invalidations", "hit_rate"):
                registry.gauge(
                    f"cache.data_{field}",
                    lambda f=field: getattr(self.data_cache.stats, f),
                )
        if self.meta_cache is not None:
            for field in list(self.meta_cache.stats.__dataclass_fields__) + ["hit_rate"]:
                registry.gauge(
                    f"metacache.{field}",
                    lambda f=field: getattr(self.meta_cache.stats, f),
                )
            registry.gauge("metacache.entries", lambda: len(self.meta_cache))
        return registry

    def _metadata_targets(self, rel: str) -> list[int]:
        """Replica set for a path's metadata (primary + successors)."""
        distributor = self.distributor
        return replica_set(
            distributor.locate_metadata(rel),
            self.config.replication,
            distributor.num_daemons,
        )

    def _chunk_targets(self, rel: str, chunk_id: int) -> list[int]:
        """Replica set for one data chunk (primary + successors)."""
        distributor = self.distributor
        return replica_set(
            distributor.locate_chunk(rel, chunk_id),
            self.config.replication,
            distributor.num_daemons,
        )

    # -- dual-epoch read fallback (elastic membership) -----------------------
    #
    # While a membership change is RELEASING — the new placement is
    # authoritative but the retiring epoch's owners still hold their
    # copies — reads extend their fail-over chain with the *old* owners.
    # A miss or failure under the new placement retries the old owner
    # until the epoch is sealed; writes never fall back (they must land
    # on the authoritative owners only).  Outside a membership change the
    # extras are empty and these collapse to the plain replica sets.

    def _metadata_read_targets(self, rel: str) -> list[int]:
        """Current metadata replicas plus the retiring epoch's owners."""
        targets = self._metadata_targets(rel)
        old = getattr(self.distributor, "old_metadata_targets", None)
        if old is not None:
            for target in old(rel, self.config.replication):
                if target not in targets:
                    targets.append(target)
        return targets

    def _chunk_read_targets(self, rel: str, chunk_id: int) -> list[int]:
        """Current chunk replicas plus the retiring epoch's owners."""
        targets = self._chunk_targets(rel, chunk_id)
        old = getattr(self.distributor, "old_chunk_targets", None)
        if old is not None:
            for target in old(rel, chunk_id, self.config.replication):
                if target not in targets:
                    targets.append(target)
        return targets

    def _mutation_gate(self) -> None:
        """Park mutations at the membership write freeze *before* they
        resolve their owners.

        The network-layer gate alone is not enough: a mutation that
        resolved its targets under the old placement and then slept
        through the freeze would land on retired owners *after* the flip
        — past the final delta pass, so never copied, and deleted by the
        release pass (a lost acknowledged write).  Gating ahead of
        resolution means a parked mutation re-resolves under whatever
        placement the flip installed; the residual window between
        resolution and delivery is bounded by in-flight RPC latency,
        which the migrator's post-freeze grace sleep drains.
        """
        gate = getattr(self.distributor, "wait_writable", None)
        if gate is not None:
            gate()

    def _gather(
        self, futures: list[RpcFuture]
    ) -> list[tuple[object, Optional[Exception]]]:
        """Collect every leg's outcome as ``(value, None)`` / ``(None, exc)``.

        Every future is awaited before any semantic decision — an
        abandoned leg could still be transferring against an exposed bulk
        buffer that the caller is about to reuse.  The widest fan-out
        gathered is recorded in ``stats.max_fanout`` (telemetry).
        """
        if len(futures) > self.stats.max_fanout:
            self.stats.max_fanout = len(futures)
        outcomes: list[tuple[object, Optional[Exception]]] = []
        for future in futures:
            try:
                outcomes.append((future.result(), None))
            except Exception as exc:
                outcomes.append((None, exc))
        return outcomes

    def _fanout(self, targets, handler: str, *args) -> list:
        """Forward ``handler`` to every target at once, then wait once.

        Returns one ``(value, None)`` / ``(None, exc)`` outcome per target,
        in target order; what a failed leg means is the caller's rule.
        """
        return self._gather(
            [self.network.call_async(target, handler, *args) for target in targets]
        )

    # -- integrity plane -----------------------------------------------------

    def _note_integrity_failover(self, rel: str, chunk_id: int, target: int) -> None:
        """Account one read leg lost to a checksum failure (telemetry)."""
        self.stats.integrity_failovers += 1
        tracer = getattr(self.network, "tracer", None)
        if tracer is not None:
            tracer.instant(
                "integrity.failover",
                "integrity",
                path=rel,
                chunk_id=chunk_id,
                daemon=target,
            )

    def _read_repair(
        self,
        rel: str,
        chunk_id: int,
        bad_targets: list[int],
        good_target: Optional[int] = None,
        data: Optional[bytes] = None,
    ) -> None:
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
        tolerated = (IntegrityError, NotFoundError, *UNREACHABLE)
        if data is None:
            try:
                data = fetch_chunk(
                    self.network.call, good_target, rel, chunk_id, self.config
                )
            except tolerated:
                return  # gone, or the "good" copy does not verify either
        inline = len(data) <= chunking.INLINE_THRESHOLD
        tracer = getattr(self.network, "tracer", None)
        for target in bad_targets:
            try:
                self.network.call(
                    target,
                    "gkfs_replace_chunk",
                    rel,
                    chunk_id,
                    data if inline else None,
                    None,  # no wire digest: the payload was verified on receipt
                    bulk=None if inline else BulkHandle(data, readonly=True),
                )
            except tolerated:
                continue
            self.stats.read_repairs += 1
            if tracer is not None:
                tracer.instant(
                    "integrity.read_repair",
                    "integrity",
                    path=rel,
                    chunk_id=chunk_id,
                    daemon=target,
                )

    def _meta_call(self, rel: str, handler: str, *args):
        """Metadata RPC with optional replication.

        Reads fall back across replicas on transport failure.  Mutations
        apply to every reachable replica concurrently; a file-system error
        (EEXIST, ENOENT, ...) propagates — it is a *result*, and with
        crash-stop failures all replicas produce the same one.  At least
        one replica must be reachable.  This is consensus-free
        replication: it tolerates crash-stop daemon loss, nothing subtler
        (documented prototype of the follow-on reliability work).
        """
        last_transient: Optional[Exception] = None
        if handler in self._META_READS:
            read_targets = self._metadata_read_targets(rel)
            # Old-epoch extras present only while an epoch is RELEASING.
            dual_epoch = len(read_targets) > min(
                self.config.replication, self.distributor.num_daemons)
            last_missing: Optional[Exception] = None
            for target in read_targets:
                try:
                    return self.network.call(target, handler, rel, *args)
                except NotFoundError as exc:
                    if not dual_epoch:
                        raise
                    # The record may still be visible only on the
                    # retiring epoch's owner — keep falling back.
                    last_missing = exc
                except self._TRANSIENT as exc:
                    last_transient = exc
            if last_transient is not None:
                # NotFound is authoritative only when every target
                # answered: an unreachable replica may be the one that
                # holds the record, and reporting ENOENT for an outage
                # would let callers act on a phantom deletion.
                raise self._fatal_transient(last_transient) from last_transient
            if last_missing is not None:
                raise last_missing
            raise LookupError(rel)  # unreachable: read_targets is never empty
        # Mutations gate on the membership write freeze *before* owner
        # resolution: a parked mutation re-resolves under whatever
        # placement the flip installed (see :meth:`_mutation_gate`).
        self._mutation_gate()
        targets = self._metadata_targets(rel)
        if len(targets) == 1:
            try:
                return self.network.call(targets[0], handler, rel, *args)
            except self._TRANSIENT as exc:
                raise self._fatal_transient(exc) from exc
        result = None
        applied = False
        for value, exc in self._fanout(targets, handler, rel, *args):
            if exc is None:
                if not applied:
                    result = value
                    applied = True
            elif isinstance(exc, self._TRANSIENT):
                last_transient = exc
            else:
                raise exc  # file-system error: a result, same on all replicas
        if not applied:
            if last_transient is not None:
                raise self._fatal_transient(last_transient) from last_transient
            raise LookupError(rel)
        return result

    def _stat_rel(self, rel: str, *, count: bool = True) -> Metadata:
        """Authoritative stat; ``count=False`` marks an internal size probe
        (data-path bookkeeping) that application stat counters skip.

        With the metadata cache enabled the record is served from a fresh
        lease when one exists, revalidated by version when the lease
        expired, and fetched (and cached) otherwise.  A locally buffered
        size update is always published first (:meth:`_flush_size`).
        """
        self._flush_size(rel)
        if count:
            self.stats.stats_ += 1
        if self.meta_cache is None:
            return Metadata.decode(self._meta_call(rel, "gkfs_stat"))
        return Metadata.decode(self._cached_attr(rel))

    def _stat_entry(self, entry: OpenFile, *, count: bool = True) -> Metadata:
        """:meth:`_stat_rel` through a descriptor: the size the owner
        reports is the descriptor's new ``size_seen``."""
        md = self._stat_rel(entry.path, count=count)
        entry.size_seen = md.size
        return md

    def _flush_size(self, rel: str) -> Optional[int]:
        """Publish ``rel``'s buffered size update, if there is one.

        The size cache's one coherence rule (§IV-B): a buffered size is
        published before any operation that reads or truncates the size
        (stat, open, append reservation) and when the file is let go
        (close, fsync).  The cached attr entry is dropped first — a
        buffered size must never read stale through a metadata lease.
        Returns the authoritative size after the publish, ``None`` when
        nothing was buffered.
        """
        if self.size_cache is None:
            return None
        pending = self.size_cache.take(rel)
        if pending is None:
            return None
        if self.meta_cache is not None:
            self.meta_cache.invalidate_attr(rel)
        return self._meta_call(rel, "gkfs_update_size", pending, False)

    def _forget(self, rel: str) -> int:
        """``rel``'s bytes are gone (unlink, truncate, rename target):
        every client cache drops what it holds for the path — the buffered
        size (stale now, it must not be published), the cached chunks, the
        metadata lease.  Returns the buffered size it dropped (0 if none):
        chunks exist up to it, and the caller's multicast must reach them."""
        pending = self.size_cache.take(rel) if self.size_cache is not None else None
        if self.data_cache is not None:
            self.data_cache.invalidate_path(rel)
        self._invalidate_meta(rel)
        return pending or 0

    def _publish_size(self, rel: str, size: int) -> Optional[int]:
        """Cache-aware size-update after a write.

        A write past the recorded size is a metadata mutation: the cached
        attr entry is dropped whether the update is published now or
        buffered, so the next stat observes the new size (via the flushed
        buffer) instead of a stale lease.  Returns the size the owner
        answered with, ``None`` when the update was only buffered.
        """
        self._invalidate_meta(rel)
        if self.size_cache is not None:
            size = self.size_cache.record(rel, size)
            if size is None:
                return None
        return self._meta_call(rel, "gkfs_update_size", size, False)

    # -- metadata cache (TTL leases + hot-key revalidation spreading) --------

    def _parent_rel(self, rel: str) -> str:
        return rel.rsplit("/", 1)[0] or "/"

    def _invalidate_meta(self, rel: str) -> None:
        """Invalidation-on-mutation: drop ``rel``'s cached metadata.

        Drops the attr entry, any cached listing pages of ``rel`` itself
        and of its parent directory (namespace/attr content changed), and
        — when the entry was known hot — broadcasts best-effort replica
        drops so sibling daemons stop serving the stale record early
        (their TTL bounds the worst case regardless).
        """
        if self.meta_cache is None:
            return
        entry = self.meta_cache.invalidate_attr(rel)
        self.meta_cache.invalidate_pages(rel)
        self.meta_cache.invalidate_pages(self._parent_rel(rel))
        if entry is not None and entry.hot_k > 0:
            self._drop_hot_replicas(rel, entry.hot_k)

    def _hot_ring(self, rel: str, k: int) -> list[int]:
        """Owner followed by the K rendezvous replica targets for ``rel``.

        Computed from the live view per call, so a membership change
        re-resolves automatically (epoch-aware by construction).
        """
        owner = self.distributor.locate_metadata(rel)
        return [owner] + hot_replica_targets(
            rel, owner, self.distributor.num_daemons, k
        )

    def _drop_hot_replicas(self, rel: str, k: int) -> None:
        """Best-effort replica invalidation after a local mutation."""
        for target in self._hot_ring(rel, k)[1:]:
            try:
                self.network.call(target, "gkfs_drop_hot_replica", rel)
            except Exception:
                continue  # TTL expiry is the backstop

    def _seed_hot_replicas(self, rel: str, record: bytes, k: int) -> None:
        """Push a freshly promoted hot record to its replica daemons.

        The owner hands the one-shot seed flag to exactly one reader per
        promotion window; that reader (us) fans the record out.  Strictly
        best-effort — a lost put heals at the next window re-arm.
        """
        targets = self._hot_ring(rel, k)[1:]
        if not targets:
            return
        self.meta_cache.stats.replica_seeds += 1
        # Every leg is drained; no outcome matters.
        self._fanout(targets, "gkfs_put_hot_replica", rel, record)
        tracer = getattr(self.network, "tracer", None)
        if tracer is not None:
            tracer.instant("metacache.seed", "metacache", path=rel, k=k)

    def _absorb_hot_state(self, rel: str, record: bytes, reply: dict) -> None:
        """React to the owner's hot-key signalling in a lease reply."""
        if reply.get("seed"):
            self._seed_hot_replicas(rel, record, int(reply.get("hot", 0)))

    def _cached_attr(self, rel: str) -> bytes:
        """The metadata record of ``rel`` through the lease cache.

        A fresh negative entry short-circuits to ``NotFoundError`` with
        zero RPCs — the ENOENT analogue of an attr hit.
        """
        entry, fresh = self.meta_cache.lookup_attr(rel)
        if entry is not None and fresh:
            return entry.record
        if entry is None and self.meta_cache.lookup_negative(rel):
            raise NotFoundError(rel)
        if entry is not None:
            return self._revalidate_attr(rel, entry)
        return self._fetch_attr(rel)

    def _fetch_attr(self, rel: str) -> bytes:
        """Cache miss: full fetch via the lease RPC, then cache.

        ``ENOENT`` is cached too (a negative entry under the same
        lease), so repeated stats of a missing path — the open-search
        storm every build system generates — stop costing one RPC each.
        """
        try:
            reply = self._meta_call(rel, "gkfs_stat_lease")
        except NotFoundError:
            self.meta_cache.put_negative(rel)
            raise
        record = reply["record"]
        self.meta_cache.put_attr(
            rel, record, meta_version(record), int(reply.get("hot", 0))
        )
        self._absorb_hot_state(rel, record, reply)
        return record

    def _revalidate_attr(self, rel: str, entry) -> bytes:
        """Lease expired: conditional read by version, lease renewed.

        For hot keys the conditional read rotates across owner plus the
        K replica daemons (per-client cursor offset by node id, so a
        million clients spread evenly); a replica that cannot answer —
        expired copy, not seeded yet, unreachable — falls back to the
        authoritative owner path, which also serves the dual-epoch
        fallback during membership changes.  ``ENOENT`` from the owner
        drops the entry and propagates: the path is gone.
        """
        self.meta_cache.stats.revalidations += 1
        if entry.hot_k > 0 and self.distributor.num_daemons > 1:
            ring = self._hot_ring(rel, entry.hot_k)
            slot = (self.node_id + entry.rotation) % len(ring)
            entry.rotation += 1
            target = ring[slot]
            if target != ring[0]:
                reply = self._replica_stat_if_changed(target, rel, entry.version)
                if reply is not None:
                    self.meta_cache.stats.replica_reads += 1
                    return self._apply_revalidation(rel, entry, reply)
        try:
            reply = self._meta_call(rel, "gkfs_stat_if_changed", entry.version)
        except NotFoundError:
            self.meta_cache.invalidate_attr(rel)
            self.meta_cache.put_negative(rel)
            raise
        return self._apply_revalidation(rel, entry, reply)

    def _replica_stat_if_changed(
        self, target: int, rel: str, version: int
    ) -> Optional[dict]:
        """One conditional read against a replica; ``None`` = fall back."""
        try:
            return self.network.call(target, "gkfs_stat_if_changed", rel, version)
        except (NotFoundError, *self._TRANSIENT):
            return None

    def _apply_revalidation(self, rel: str, entry, reply: dict) -> bytes:
        """Land a conditional-read reply: renew or replace the entry."""
        if reply.get("replica"):
            hot_k = entry.hot_k  # replicas don't track hotness; keep ours
        else:
            hot_k = int(reply.get("hot", 0))
        if not reply["changed"]:
            self.meta_cache.stats.revalidated_unchanged += 1
            self.meta_cache.renew_attr(rel, hot_k=hot_k)
            record = entry.record
        else:
            record = reply["record"]
            self.meta_cache.put_attr(rel, record, meta_version(record), hot_k)
        self._absorb_hot_state(rel, record, reply)
        return record

    def _involved_daemons(self, rel: str, size: int) -> list[int]:
        """Daemons that may hold chunks of a file of ``size`` bytes.

        For small files this is a handful of targeted addresses; beyond
        the daemon count a broadcast is cheaper than enumerating chunks.
        """
        if size == 0:
            return []
        nchunks = (size + self.config.chunk_size - 1) // self.config.chunk_size
        if nchunks * self.config.replication >= self.distributor.num_daemons:
            return list(self.distributor.locate_all())
        return sorted(
            {
                target
                for cid in range(nchunks)
                for target in self._chunk_targets(rel, cid)
            }
        )

    def _broadcast_fanout(
        self, targets, handler: str, *args, tolerate: Optional[bool] = None
    ) -> list:
        """Broadcast ``handler`` to ``targets``; one result slot per leg.

        Every leg is in flight at once and gathered afterwards.  A
        transient failure the caller's rule tolerates — by default
        :attr:`_tolerate_broadcast_loss`: replication can cover the daemon,
        or the deployment runs in degraded mode — yields ``None`` in that
        slot and is accounted in telemetry (``degraded_ops``/
        ``leg_failures``, :attr:`degraded_events`).  Otherwise the first
        failure is fatal — raised only after every leg has been drained
        (paper semantics).
        """
        targets = list(targets)
        if tolerate is None:
            tolerate = self._tolerate_broadcast_loss
        results: list = []
        failed: dict[int, Exception] = {}
        fatal: Optional[Exception] = None
        outcomes = self._fanout(targets, handler, *args)
        for target, (value, exc) in zip(targets, outcomes):
            if exc is None:
                results.append(value)
            elif isinstance(exc, self._TRANSIENT) and tolerate:
                results.append(None)
                failed[target] = exc
            elif fatal is None:
                fatal = exc
        if fatal is not None:
            if isinstance(fatal, self._TRANSIENT):
                raise self._fatal_transient(fatal) from fatal
            raise fatal
        if failed:
            self._note_degraded(handler, failed)
        return results

    # -- open / close -----------------------------------------------------------

    @_routed(lambda path, flags=os.O_RDONLY, mode=0o644: os.open(path, flags, mode))
    def open(self, path: str, flags: int = os.O_RDONLY, mode: int = 0o644) -> int:
        """POSIX-style open; returns a GekkoFS descriptor (>= ``FD_BASE``).

        ``O_CREAT``/``O_EXCL``/``O_TRUNC``/``O_APPEND`` and the access
        modes are honoured; there are no permission checks (§III-A).
        """
        return self._open_gkfs(path, flags, mode)

    def _open_gkfs(self, path: str, flags: int, mode: int) -> int:
        """Open a GekkoFS path.  The size the open observed stays on the
        descriptor as ``size_seen`` — reads plan their spans from it, and
        :meth:`read_bytes`/:meth:`copy` take it as their snapshot."""
        rel = self._rel(path)
        self.stats.opens += 1
        if flags & os.O_CREAT:
            record = new_file_metadata(mode, maintain_times=self.config.maintain_mtime)
            stored = self._meta_call(
                rel, "gkfs_create", record.encode(), bool(flags & os.O_EXCL)
            )
            is_dir, size = record_head(stored)
            self.stats.creates += 1
            if self.meta_cache is not None:
                # The namespace changed under the parent; the returned
                # record itself is authoritative — cache it (zero-RPC
                # read-your-writes for the stat that usually follows).
                self.meta_cache.invalidate_pages(self._parent_rel(rel))
                self.meta_cache.put_attr(rel, stored, meta_version(stored))
            # The file may be one this client already wrote through another
            # descriptor: its buffered size is part of what this open
            # observes (or O_TRUNC below sees size 0, skips the truncate,
            # and the stale size is published over it at close).
            published = self._flush_size(rel)
            if published is not None:
                size = published
        else:
            md = self._stat_rel(rel)
            is_dir, size = md.is_dir, md.size
        accmode = flags & os.O_ACCMODE
        writable = accmode in (os.O_WRONLY, os.O_RDWR)
        if is_dir and writable:
            raise IsADirectoryError_(path)
        if is_dir and flags & os.O_CREAT:
            raise IsADirectoryError_(path)
        if flags & os.O_TRUNC and writable and size > 0:
            self._truncate_rel(rel, 0)
            size = 0
        return self.filemap.add(OpenFile(path=rel, flags=flags, is_dir=is_dir, size_seen=size))

    def creat(self, path: str, mode: int = 0o644) -> int:
        """``creat(2)``: open with ``O_WRONLY | O_CREAT | O_TRUNC``."""
        return self.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, mode)

    @_routed(os.close, by="fd")
    def close(self, fd: int) -> None:
        """Release a descriptor, publishing any buffered size update."""
        entry = self.filemap.remove(fd)
        if not entry.is_dir:
            self._flush_size(entry.path)

    # -- data path ----------------------------------------------------------------

    @_routed(os.pwrite, by="fd")
    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        """Positional write: split into chunk spans, fan out, publish size."""
        if offset < 0:
            raise InvalidArgumentError(f"negative offset {offset}")
        entry = self.filemap.get(fd)
        written = self._pwrite_data(entry, data, offset)
        published = self._publish_size(entry.path, offset + written)
        if published is not None:
            entry.size_seen = published
        return written

    def _pwrite_data(self, entry: OpenFile, data: bytes, offset: int) -> int:
        """The data half of a write: chunk fan-out, no size publication."""
        if entry.is_dir:
            raise IsADirectoryError_(entry.path)
        if not entry.writable:
            raise BadFileDescriptorError(f"fd for {entry.path} is not open for writing")
        view = memoryview(data)
        spans = list(split_range(offset, len(data), self.config.chunk_size))
        # Gate before resolving chunk owners, for the same reason as
        # metadata mutations (see _mutation_gate).
        self._mutation_gate()
        self._write_spans(entry, view, spans)
        if self.data_cache is not None:
            for span in spans:
                piece = view[span.buffer_offset : span.buffer_offset + span.length]
                self.data_cache.update(
                    entry.path, span.chunk_id, span.offset, bytes(piece)
                )
        self.stats.writes += 1
        self.stats.bytes_written += len(data)
        return len(data)

    def _write_spans(self, entry: OpenFile, view: memoryview, spans: list) -> None:
        """The write fan-out: coalesce per daemon, one RPC each.

        Every span is routed to each daemon in its replica set; the spans
        a daemon owns are coalesced into one ``gkfs_write_chunks`` forward.
        All group RPCs are in flight at once — replicas included — and
        gathered afterwards.  A span is durable if at least one of its
        replicas took it; with replication off any loss is fatal.
        """
        groups: dict[int, list] = {}
        for span in spans:
            for target in self._chunk_targets(entry.path, span.chunk_id):
                groups.setdefault(target, []).append(span)
        order = list(groups)
        futures = [
            self._issue_write_group(target, entry.path, view, groups[target])
            for target in order
        ]
        failed: dict[int, Exception] = {}
        for target, (_value, exc) in zip(order, self._gather(futures)):
            if exc is None:
                continue
            if not isinstance(exc, self._TRANSIENT):
                raise exc
            failed[target] = exc
        if not failed:
            return
        if self.config.replication == 1:
            first = next(iter(failed.values()))
            raise self._fatal_transient(first) from first
        for span in spans:
            targets = self._chunk_targets(entry.path, span.chunk_id)
            if all(target in failed for target in targets):
                # No replica took this span.
                raise self._fatal_transient(failed[targets[0]]) from failed[targets[0]]
        for span in spans:
            span_seq = None
            for target in self._chunk_targets(entry.path, span.chunk_id):
                if target in failed:
                    if span_seq is None:
                        span_seq = self._next_dirty_seq()
                    self._note_dirty_replica(
                        entry.path, span.chunk_id, target, span_seq
                    )

    def _issue_write_group(
        self, target: int, rel: str, view: memoryview, group: list
    ) -> RpcFuture:
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
        # One exposure per group: handles are not shared across concurrent
        # pullers, so transfer accounting stays race-free.
        return self.network.call_async(
            target,
            "gkfs_write_chunks",
            rel,
            table,
            bytes(region) if inline else None,
            crcs,
            bulk=None if inline else BulkHandle(region, readonly=True),
        )

    @_routed(os.write, by="fd")
    def write(self, fd: int, data: bytes) -> int:
        """Write at the descriptor position (or EOF under ``O_APPEND``).

        Appends *reserve* their region first: an append-mode size-update
        RPC atomically advances the recorded size on the metadata owner
        and returns the old end as this write's offset, so concurrent
        appenders from any node get disjoint regions.  (The region is
        reserved before the data lands — a concurrent reader may briefly
        see zeros in it, the documented relaxed-consistency trade-off.)
        """
        entry = self.filemap.get(fd)
        if entry.append:
            offset = self._reserve_append_region(entry.path, len(data))
            written = self._pwrite_data(entry, data, offset)
            entry.size_seen = offset + len(data)  # the end the owner reserved
        else:
            offset = entry.position
            written = self.pwrite(fd, data, offset)
        entry.position = offset + written
        return written

    def _reserve_append_region(self, rel: str, length: int) -> int:
        """Atomically claim ``[end, end + length)`` of the file.

        Any size buffered in the local cache must be published first, or
        the owner would hand out a region before this client's own
        earlier writes.
        """
        self._invalidate_meta(rel)
        self._flush_size(rel)
        new_end = self._meta_call(rel, "gkfs_update_size", length, True)
        return new_end - length

    @_routed(os.pread, by="fd")
    def pread(self, fd: int, count: int, offset: int) -> bytes:
        """Positional read: fan out, zero-fill holes, clamp at the file size.

        One round trip per daemon when every span inside the descriptor's
        ``size_seen`` comes back full; the owner is asked for the size
        only when one does not (:meth:`_pread_entry`).
        """
        if offset < 0 or count < 0:
            raise InvalidArgumentError(f"negative offset/count: {offset}/{count}")
        return self._pread_entry(self.filemap.get(fd), count, offset)

    def _pread_entry(
        self,
        entry: OpenFile,
        count: int,
        offset: int,
        size: Optional[int] = None,
    ) -> bytes:
        """Read against an open entry.

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
            size = self._stat_entry(entry, count=False).size
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
        if self.data_cache is None:
            return self._fetch_units(rel, buf_view, spans, None)
        full = True
        wanted: dict[int, list] = {}  # missing chunk -> the spans waiting for it
        for span in spans:
            chunk = self.data_cache.get(rel, span.chunk_id)
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

    def _fetch_units(
        self, rel: str, buf_view: memoryview, units: list, wanted: Optional[dict]
    ) -> bool:
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
                    targets = self._chunk_read_targets(rel, unit.chunk_id)
                    chains[unit.chunk_id] = targets
                if round_ >= len(targets):
                    exhausted.append(unit)
                else:
                    groups.setdefault(targets[round_], []).append(unit)
            futures = [
                self._issue_read_group(target, rel, buf_view, group, wanted)
                for target, group in groups.items()
            ]
            pending = []
            for (target, group), (value, exc) in zip(
                groups.items(), self._gather(futures)
            ):
                if exc is None:
                    outcomes = self._land_read_group(
                        rel, buf_view, group, value, wanted
                    )
                    full = full and self._landed_full(group, value, wanted)
                elif isinstance(exc, IntegrityError) and len(group) > 1:
                    # A coalesced group fails as a unit server-side and the
                    # error does not say which chunk tripped the checksum:
                    # re-read unit by unit against the same daemon — clean
                    # units land, corrupt ones fail over.  (How much
                    # of each landed is not kept: not full.)
                    full = False
                    outcomes = [
                        self._read_unit_at(target, rel, buf_view, unit, wanted)
                        for unit in group
                    ]
                elif isinstance(exc, (IntegrityError, *self._TRANSIENT)):
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
                        self._note_integrity_failover(rel, chunk_id, target)
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

    def _issue_read_group(
        self, target: int, rel: str, buf_view: memoryview, group: list, wanted
    ) -> RpcFuture:
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
        return self.network.call_async(
            target,
            "gkfs_read_chunks",
            rel,
            pack_spans(group),
            bulk=None if inline else BulkHandle(buf_view),
        )

    def _land_read_group(
        self, rel: str, buf_view: memoryview, group: list, value: tuple, wanted
    ) -> list:
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
                self.data_cache.put(rel, unit.chunk_id, payload)
                for span in wanted[unit.chunk_id]:
                    piece = payload[span.offset : span.offset + span.length]
                    end = span.buffer_offset + len(piece)
                    buf_view[span.buffer_offset : end] = piece
            outcomes.append((unit, None, payload))
        return outcomes

    def _read_unit_at(
        self, target: int, rel: str, buf_view: memoryview, unit, wanted
    ) -> tuple:
        """One blocking single-unit read against one specific replica;
        same outcome triple as :meth:`_land_read_group`."""
        try:
            value = self._issue_read_group(
                target, rel, buf_view, [unit], wanted
            ).result()
        except (IntegrityError, *self._TRANSIENT) as exc:
            return unit, exc, None
        return self._land_read_group(rel, buf_view, [unit], value, wanted)[0]

    @_routed(os.read, by="fd")
    def read(self, fd: int, count: int) -> bytes:
        """Read at the descriptor position, advancing it."""
        entry = self.filemap.get(fd)
        data = self.pread(fd, count, entry.position)
        entry.position += len(data)
        return data

    @_routed(lambda fd, offset, whence=os.SEEK_SET: os.lseek(fd, offset, whence), by="fd")
    def lseek(self, fd: int, offset: int, whence: int = os.SEEK_SET) -> int:
        """Reposition the user-space file offset."""
        entry = self.filemap.get(fd)
        if whence == os.SEEK_SET:
            new = offset
        elif whence == os.SEEK_CUR:
            new = entry.position + offset
        elif whence == os.SEEK_END:
            new = self._stat_entry(entry).size + offset
        else:
            raise InvalidArgumentError(f"bad whence {whence}")
        if new < 0:
            raise InvalidArgumentError(f"resulting offset {new} is negative")
        entry.position = new
        return new

    @_routed(os.fsync, by="fd")
    def fsync(self, fd: int) -> None:
        """Publish buffered size updates; data is already synchronous."""
        self._flush_size(self.filemap.get(fd).path)

    # -- metadata operations ------------------------------------------------------

    @_routed(lambda path: _kernel_metadata(os.stat(path)))
    def stat(self, path: str) -> Metadata:
        """Attributes of ``path`` (strongly consistent for the record itself)."""
        return self._stat_rel(self._rel(path))

    @_routed(lambda fd: _kernel_metadata(os.fstat(fd)), by="fd")
    def fstat(self, fd: int) -> Metadata:
        return self._stat_entry(self.filemap.get(fd))

    def exists(self, path: str) -> bool:
        """Convenience existence probe (one stat RPC)."""
        try:
            self.stat(path)
            return True
        except (NotFoundError, FileNotFoundError):
            return False

    @_routed(os.unlink)
    def unlink(self, path: str) -> None:
        """Remove a file: metadata first, then the owners of its chunks.

        One RPC to the record's owner refuses a directory (``EISDIR``) or
        removes the record — the linearisation point; chunk removal is a
        targeted multicast to the daemons the distributor implicates.
        """
        rel = self._rel(path)
        pending = self._forget(rel)
        _, size = record_head(self._meta_call(rel, "gkfs_remove_metadata", False))
        self._broadcast_fanout(
            self._involved_daemons(rel, max(size, pending)),
            "gkfs_remove_chunks",
            rel,
        )
        self.stats.removes += 1

    @_routed(lambda path, mode=0o755: os.mkdir(path, mode))
    def mkdir(self, path: str, mode: int = 0o755) -> None:
        """Create a directory record (no parent traversal — flat namespace)."""
        rel = self._rel(path)
        if rel == "/":
            raise ExistsError(path)
        record = new_dir_metadata(mode, maintain_times=self.config.maintain_mtime)
        stored = self._meta_call(rel, "gkfs_create", record.encode(), True)
        self.stats.creates += 1
        if self.meta_cache is not None:
            self.meta_cache.invalidate_pages(self._parent_rel(rel))
            self.meta_cache.put_attr(rel, stored, meta_version(stored))

    @_routed(os.rmdir)
    def rmdir(self, path: str) -> None:
        """Remove an *empty* directory.

        Emptiness is checked with a readdir sweep — eventually consistent
        like every indirect operation, so a racing create may survive a
        concurrent rmdir; the paper accepts exactly this relaxation.  A
        file is refused (``ENOTDIR``) by the sweep, and again by the owner
        under its lock should one have replaced the directory since.
        """
        rel = self._rel(path)
        if rel == "/":
            raise InvalidArgumentError("cannot remove the file system root")
        if self.listdir(path):
            raise NotEmptyError(path)
        self._invalidate_meta(rel)
        self._meta_call(rel, "gkfs_remove_metadata", True)
        self.stats.removes += 1

    @_routed(os.truncate)
    def truncate(self, path: str, new_size: int) -> None:
        """Set the file size, dropping chunk data beyond it: one RPC to
        the owner refuses a directory (``EISDIR``) or resizes the record
        and returns the old size; only a shrink costs a chunk multicast."""
        if new_size < 0:
            raise InvalidArgumentError(f"negative size {new_size}")
        self._truncate_rel(self._rel(path), new_size)

    @_routed(os.ftruncate, by="fd")
    def ftruncate(self, fd: int, new_size: int) -> None:
        if new_size < 0:
            raise InvalidArgumentError(f"negative size {new_size}")
        entry = self.filemap.get(fd)
        if entry.is_dir:
            raise IsADirectoryError_(entry.path)
        if not entry.writable:
            raise BadFileDescriptorError(f"fd {fd} is not open for writing")
        self._truncate_rel(entry.path, new_size)
        entry.size_seen = new_size

    def _truncate_rel(self, rel: str, new_size: int) -> None:
        pending = self._forget(rel)
        old_size = max(pending, self._meta_call(rel, "gkfs_truncate_metadata", new_size))
        if new_size < old_size:
            self._broadcast_fanout(
                self._involved_daemons(rel, old_size),
                "gkfs_truncate_chunks",
                rel,
                new_size,
            )

    # -- directory listing -----------------------------------------------------------

    @_routed(_kernel_listing)
    def listdir(self, path: str) -> list[tuple[str, bool]]:
        """Merged ``(name, is_dir)`` listing of a directory.

        Gathers each daemon's partial listing and merges — the paper's
        eventually-consistent ``readdir``: concurrent creates/removes may
        or may not appear (§III-A).
        """
        rel = self._rel(path)
        md = self._stat_rel(rel)
        if not md.is_dir:
            raise NotADirectoryError_(path)
        if self.meta_cache is not None:
            page = self.meta_cache.lookup_page("readdir", rel)
            if page is not None:
                self.stats.readdirs += 1
                return list(page)
        entries: set[tuple[str, bool]] = set()
        for partial in self._broadcast_fanout(
            self.distributor.locate_all(), "gkfs_readdir", rel
        ):
            if partial is not None:
                entries.update(tuple(item) for item in partial)
        self.stats.readdirs += 1
        result = sorted(entries)
        if self.meta_cache is not None:
            self.meta_cache.put_page("readdir", rel, result)
        return result

    @_routed(_kernel_listing_plus)
    def listdir_plus(self, path: str) -> list[tuple[str, Metadata]]:
        """Listing with attributes — the ``ls -l`` path, batched.

        One ``gkfs_readdir_plus`` RPC per daemon returns each entry's full
        metadata record alongside its name, instead of a stat RPC per
        entry.  Eventually consistent like :meth:`listdir` (§III-A).
        """
        rel = self._rel(path)
        md = self._stat_rel(rel)
        if not md.is_dir:
            raise NotADirectoryError_(path)
        if self.meta_cache is not None:
            page = self.meta_cache.lookup_page("readdir_plus", rel)
            if page is not None:
                self.stats.readdirs += 1
                return list(page)
        by_name: dict[str, Metadata] = {}
        for partial in self._broadcast_fanout(
            self.distributor.locate_all(), "gkfs_readdir_plus", rel
        ):
            if partial is None:
                continue
            for name, record in partial:
                by_name.setdefault(name, Metadata.decode(record))
        self.stats.readdirs += 1
        result = sorted(by_name.items(), key=lambda item: item[0])
        if self.meta_cache is not None:
            self.meta_cache.put_page("readdir_plus", rel, result)
        return result

    def opendir(self, path: str) -> int:
        """Open a directory stream; the listing is snapshotted now.

        The stream is client-side state, like libc's ``DIR``, in both
        namespaces: a node-local directory's stream holds the kernel's
        listing (:meth:`_dir_stream`) and :meth:`readdir` walks it.
        """
        return self.filemap.add(self._dir_stream(path))

    @_routed(_kernel_dir_stream)
    def _dir_stream(self, path: str) -> OpenFile:
        entries = self.listdir(path)
        return OpenFile(
            path=self._rel(path), flags=os.O_RDONLY, is_dir=True, dir_entries=entries
        )

    def readdir(self, fd: int) -> Optional[tuple[str, bool]]:
        """Next entry of an open directory stream, ``None`` at the end."""
        entry = self.filemap.get(fd)
        if not entry.is_dir or entry.dir_entries is None:
            raise NotADirectoryError_(entry.path)
        if entry.dir_cursor >= len(entry.dir_entries):
            return None
        item = entry.dir_entries[entry.dir_cursor]
        entry.dir_cursor += 1
        return item

    def walk(self, path: str):
        """Yield ``(dirpath, dirnames, files)`` like :func:`os.walk`.

        ``files`` pairs each name with its :class:`Metadata` (one batched
        readdir-plus per directory per daemon, not a stat per file).
        Eventually consistent like every listing (§III-A).  Top-down;
        mutate ``dirnames`` in place to prune, as with ``os.walk``.
        """
        entries = self.listdir_plus(path)
        dirnames = [name for name, md in entries if md.is_dir]
        files = [(name, md) for name, md in entries if not md.is_dir]
        yield path, dirnames, files
        for name in dirnames:
            yield from self.walk(f"{path}/{name}")

    def disk_usage(self, path: str) -> dict:
        """Recursive ``du``: files, directories, and summed logical bytes."""
        md = self.stat(path)
        if not md.is_dir:
            return {"files": 1, "directories": 0, "bytes": md.size}
        totals = {"files": 0, "directories": 0, "bytes": 0}
        for _dirpath, dirnames, files in self.walk(path):
            totals["directories"] += len(dirnames)
            totals["files"] += len(files)
            totals["bytes"] += sum(entry.size for _name, entry in files)
        return totals

    @_routed(_kernel_snapshot)
    def _open_snapshot(self, path: str) -> tuple[int, int]:
        """Open a file for a whole-file read: ``(fd, size)``, the size
        being the one the open observed (no stat of its own)."""
        fd = self._open_gkfs(path, os.O_RDONLY, 0o644)
        entry = self.filemap.get(fd)
        if entry.is_dir:
            self.close(fd)
            raise IsADirectoryError_(path)
        return fd, entry.size_seen

    @_routed(lambda fd, count, offset, size: os.pread(fd, count, offset), by="fd")
    def _pread_snapshot(self, fd: int, count: int, offset: int, size: int) -> bytes:
        """:meth:`pread` clamped at an :meth:`_open_snapshot` size."""
        return self._pread_entry(self.filemap.get(fd), count, offset, size=size)

    def read_bytes(self, path: str) -> bytes:
        """Whole-file read convenience (open/read/close in one call).

        The stat made at open supplies the size — one metadata
        round-trip before the data fan-out, not three.
        """
        fd, size = self._open_snapshot(path)
        try:
            return self._pread_snapshot(fd, size, 0, size)
        finally:
            self.close(fd)

    def write_bytes(self, path: str, data: bytes) -> int:
        """Whole-file write convenience (create/truncate/write/close)."""
        fd = self.open(path, os.O_CREAT | os.O_WRONLY | os.O_TRUNC)
        try:
            return self.pwrite(fd, data, 0)
        finally:
            self.close(fd)

    def copy(self, src: str, dst: str, *, buffer_size: int = 4 * 1024 * 1024) -> int:
        """Copy a file's contents to a new path; returns bytes copied.

        GekkoFS has no rename (§III-A); the sanctioned substitute for the
        rare application that needs one is copy-then-unlink, which this
        utility provides the expensive half of.  The copy streams through
        the client in ``buffer_size`` pieces — it is a data movement, not
        a metadata trick, and costs accordingly.
        """
        if buffer_size <= 0:
            raise InvalidArgumentError(f"buffer_size must be > 0, got {buffer_size}")
        src_fd, size = self._open_snapshot(src)  # reused per piece
        try:
            dst_fd = self.open(dst, os.O_CREAT | os.O_WRONLY | os.O_TRUNC)
            try:
                offset = 0
                while offset < size:
                    piece = self._pread_snapshot(
                        src_fd, min(buffer_size, size - offset), offset, size
                    )
                    if not piece:
                        break
                    self.pwrite(dst_fd, piece, offset)
                    offset += len(piece)
                if offset < size:
                    # A concurrent truncate shrank the source mid-copy;
                    # pad to the size this copy observed at open.
                    self.ftruncate(dst_fd, size)
                    offset = size
            finally:
                self.close(dst_fd)
        finally:
            self.close(src_fd)
        return offset

    @_routed(os.rename, by="paths")
    def rename(self, old: str, new: str) -> None:
        """Rename — unsupported by default (§III-A), opt-in emulation.

        Two node-local paths are the kernel's rename whatever the setting;
        a GekkoFS path on one side only is ``EINVAL``.  With ``rename_emulation`` the sanctioned copy-then-unlink
        substitute runs under the hood.  Crucially, *every* client cache
        drops its destination-path state first: the destination may have
        been removed and recreated by other clients since this client
        last touched it, and a cached chunk surviving into the renamed
        file would serve stale bytes where the daemons hold holes (the
        cross-client staleness hole ``unlink``/``truncate`` already
        close for their own paths).  Not atomic — a data movement, with
        the documented relaxed-consistency window while it runs.
        """
        if not self.config.rename_emulation:
            raise UnsupportedError(
                f"rename({old!r}, {new!r}): GekkoFS has no rename support"
            )
        dst_rel = self._rel(new)
        src_rel = self._rel(old)
        self._forget(dst_rel)
        self.copy(old, new)
        self.unlink(old)
        self._invalidate_meta(src_rel)

    # -- deliberately unsupported (§III-A) ----------------------------------------------

    @_routed(os.link, by="paths")
    def link(self, target: str, name: str) -> None:
        """GekkoFS does not support hard links."""
        raise UnsupportedError(f"link({target!r}, {name!r}): GekkoFS has no link support")

    @_routed(os.symlink, by="paths")
    def symlink(self, target: str, name: str) -> None:
        """GekkoFS does not support symbolic links."""
        raise UnsupportedError(
            f"symlink({target!r}, {name!r}): GekkoFS has no symlink support"
        )

    @_routed(os.chmod)
    def chmod(self, path: str, mode: int) -> None:
        """Access permissions are not maintained (§III-A)."""
        raise UnsupportedError(f"chmod({path!r}): GekkoFS does not manage permissions")

    # -- introspection ---------------------------------------------------------------------

    def _ask_every_daemon(self, handler: str) -> tuple[dict, dict]:
        """Broadcast an introspection ``handler``; ``({address: reply}, flags)``.

        Strict by default: an unreachable daemon is an error even under
        replication (no replica answers *for* it), raised after every leg
        has drained.  In degraded mode the reachable daemons' replies come
        back with ``flags`` labelling the truth as partial —
        ``"degraded"`` and the unreachable addresses in
        ``"missing_daemons"``.
        """
        targets = list(self.distributor.locate_all())
        degraded = self.config.degraded_mode
        replies = self._broadcast_fanout(targets, handler, tolerate=degraded)
        answered = {
            target: reply
            for target, reply in zip(targets, replies)
            if reply is not None
        }
        if not degraded:
            return answered, {}
        missing = sorted(target for target in targets if target not in answered)
        return answered, {"degraded": bool(missing), "missing_daemons": missing}

    def statfs(self) -> dict:
        """Aggregated deployment usage across all daemons (broadcast
        semantics and degraded-mode flags: :meth:`_ask_every_daemon`)."""
        answered, flags = self._ask_every_daemon("gkfs_statfs")
        return {
            "daemons": self.distributor.num_daemons,
            "used_bytes": sum(s["used_bytes"] for s in answered.values()),
            "metadata_records": sum(s["metadata_records"] for s in answered.values()),
            **flags,
        }

    def metrics(self) -> dict:
        """Cluster-wide metrics: every daemon's registry plus this client's.

        Same broadcast as :meth:`statfs` (an unreachable daemon's metrics
        are simply absent from a degraded aggregate).  Returns::

            {
              "daemons":    total daemon count,
              "per_daemon": {address: registry snapshot},
              "cluster":    merged snapshot (counters/gauges summed,
                            latency histograms merged, as summaries),
              "client":     this client's mirror registry snapshot,
            }
        """
        per_daemon, flags = self._ask_every_daemon("gkfs_metrics")
        return {
            "daemons": self.distributor.num_daemons,
            "per_daemon": per_daemon,
            "cluster": merge_snapshots(per_daemon),
            "client": self.metrics_registry.snapshot(),
            **flags,
        }
