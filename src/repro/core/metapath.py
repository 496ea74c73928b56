"""The client's metadata path: every RPC about a record (§III-B).

The forwarding layer's metadata half: one record RPC to its owner
(:meth:`MetadataPath.call`, with the read rule under replication and
membership change), the merged directory listing, and the two caches that
answer for an owner — the size-update cache (§IV-B) and the metadata lease
cache with its hot-record replicas.  Both caches hear this client's
mutations through :class:`~repro.core.cache.Mutations`; the metadata path
only fetches, revalidates and publishes.  :class:`Forwarding` is the
fan-out both paths share.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.common.errors import (
    DaemonUnavailableError, NotADirectoryError_, NotFoundError, UNREACHABLE,
)
from repro.core.cache import SizeUpdateCache
from repro.core.distributor import replica_set
from repro.core.metadata import Metadata
from repro.metacache.placement import hot_replica_targets, meta_version
from repro.rpc.future import RpcFuture

if TYPE_CHECKING:  # pragma: no cover
    from repro.metacache.client import ClientMetaCache

__all__ = ["Forwarding", "MetadataPath"]


class Forwarding:
    """RPC fan-out over the client's network, as both paths use it.

    The client's ``network`` and ``distributor`` are read through the
    client on every call, never copied: a deployment may replace either
    after construction (a tracing proxy, a placement wrapper).
    """

    def __init__(self, client):
        self.client = client
        self.config = client.config
        self.stats = client.stats
        self.mutations = client.mutations

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

    def _mutation_gate(self) -> bool:
        """Park mutations at the membership write freeze *before* they
        resolve their owners — the deployment's one freeze gate.

        A mutation that resolved its targets under the old placement and
        then slept through the freeze would land on retired owners
        *after* the flip — past the final delta pass, so never copied,
        and deleted by the release pass (a lost acknowledged write).
        Gating ahead of resolution means a parked mutation re-resolves
        under whatever placement the flip installed; the residual window
        between resolution and delivery is bounded by in-flight RPC
        latency, which the migrator's post-freeze grace sleep drains.
        Unfrozen, the gate is one attribute read.  Returns whether it parked.
        """
        view = self.client.distributor
        if view.frozen:
            view.wait_writable()
            return True
        return False

    def _gather(self, futures: list[RpcFuture]) -> list[tuple[object, Optional[Exception]]]:
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
        network = self.client.network
        return self._gather([network.call_async(t, handler, *args) for t in targets])

    def broadcast(self, targets, handler: str, *args, tolerate: Optional[bool] = None) -> list:
        """Broadcast ``handler`` to ``targets``; one result slot per leg.

        Every leg is in flight at once and gathered afterwards.  A
        transient failure the caller's rule tolerates — by default when
        replication can cover the daemon or the deployment runs in
        degraded mode — yields ``None`` in that slot and is accounted in
        telemetry (``degraded_ops``/``leg_failures``, the client's
        ``degraded_events``).  Otherwise the first failure is fatal —
        raised only after every leg has been drained (paper semantics).
        """
        targets = list(targets)
        if tolerate is None:
            tolerate = self.config.replication > 1 or self.config.degraded_mode
        results: list = []
        failed: dict[int, Exception] = {}
        fatal: Optional[Exception] = None
        for target, (value, exc) in zip(targets, self._fanout(targets, handler, *args)):
            if exc is None:
                results.append(value)
            elif isinstance(exc, UNREACHABLE) and tolerate:
                results.append(None)
                failed[target] = exc
            elif fatal is None:
                fatal = exc
        if fatal is not None:
            if isinstance(fatal, UNREACHABLE):
                raise self._fatal_transient(fatal) from fatal
            raise fatal
        if failed:  # account the broadcast that lost legs to unreachable daemons
            self.stats.leg_failures += len(failed)
            self.stats.degraded_ops += 1
            names = {target: type(exc).__name__ for target, exc in failed.items()}
            self.client.degraded_events.append({"handler": handler, "failed": names})
            self._instant("broadcast.degraded", "degraded", handler=handler, failed=names)
        return results

    def _instant(self, name: str, category: str, **fields) -> None:
        """A point event on the deployment's tracer, when telemetry is on."""
        tracer = getattr(self.client.network, "tracer", None)
        if tracer is not None:
            tracer.instant(name, category, **fields)


class MetadataPath(Forwarding):
    """Record RPCs, listings, and the size-update and lease caches."""

    #: Metadata handlers that only read (replica fallback allowed).
    _READS = frozenset({"gkfs_stat", "gkfs_stat_lease", "gkfs_stat_if_changed"})

    def __init__(self, client):
        super().__init__(client)
        config = client.config
        registry = client.metrics_registry
        if config.size_cache_enabled:
            self.mutations.subscribe(SizeUpdateCache(config.size_cache_flush_every), registry)
        #: The lease cache (``None`` unless ``metacache_enabled``).
        self.leases: Optional[ClientMetaCache] = None
        if config.metacache_enabled:
            from repro.metacache.client import ClientMetaCache

            self.leases = ClientMetaCache(config.metacache_ttl, config.metacache_capacity,
                                          on_hot_change=self._drop_hot_replicas)
            self.mutations.subscribe(self.leases, registry)

    def _targets(self, rel: str, owner: Optional[int] = None) -> list[int]:
        """Replica set for a path's metadata (primary ``owner`` + successors)."""
        distributor = self.client.distributor
        if owner is None:
            owner = distributor.locate_metadata(rel)
        return replica_set(owner, self.config.replication, distributor.num_daemons)

    def call(self, rel: str, handler: str, *args, owner: Optional[int] = None):
        """Metadata RPC with optional replication.

        Reads fall back across replicas on transport failure.  Mutations
        apply to every reachable replica concurrently; a file-system error
        (EEXIST, ENOENT, ...) propagates — it is a *result*, and with
        crash-stop failures all replicas produce the same one.  At least
        one replica must be reachable.  This is consensus-free
        replication: it tolerates crash-stop daemon loss, nothing subtler
        (documented prototype of the follow-on reliability work).

        A mutation's ``owner``, resolved by its caller, stands unless the
        freeze gate parks the call: a parked mutation resolves it again.
        """
        network = self.client.network
        last_transient: Optional[Exception] = None
        if handler in self._READS:
            # While a membership change is RELEASING — the new placement is
            # authoritative but the retiring epoch's owners still hold their
            # copies — reads extend their fail-over chain with the *old*
            # owners until the epoch is sealed; writes never fall back (they
            # must land on the authoritative owners only).
            read_targets = self._targets(rel)
            view = self.client.distributor
            dual_epoch = False  # old-epoch extras, only while an epoch is RELEASING
            if view.previous is not None:
                for target in view.old_metadata_targets(rel, self.config.replication):
                    if target not in read_targets:
                        read_targets.append(target)
                        dual_epoch = True
            last_missing: Optional[Exception] = None
            for target in read_targets:
                try:
                    return network.call_async(target, handler, rel, *args).result()
                except NotFoundError as exc:
                    if not dual_epoch:
                        raise
                    # The record may still be visible only on the
                    # retiring epoch's owner — keep falling back.
                    last_missing = exc
                except UNREACHABLE as exc:
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
        targets = self._targets(rel, None if self._mutation_gate() else owner)
        if len(targets) == 1:
            try:
                return network.call_async(targets[0], handler, rel, *args).result()
            except UNREACHABLE as exc:
                raise self._fatal_transient(exc) from exc
        result = None
        applied = False
        for value, exc in self._fanout(targets, handler, rel, *args):
            if exc is None:
                if not applied:
                    result = value
                    applied = True
            elif isinstance(exc, UNREACHABLE):
                last_transient = exc
            else:
                raise exc  # file-system error: a result, same on all replicas
        if not applied:
            if last_transient is not None:
                raise self._fatal_transient(last_transient) from last_transient
            raise LookupError(rel)
        return result

    def flush(self, rel: str) -> Optional[int]:
        """Publish a size update a cache held back for ``rel``, if any.

        The size cache's one coherence rule (§IV-B): a held size is
        published before any operation that reads or reserves the size
        (stat, open, append reservation) and when the file is let go
        (close, fsync).  Returns the authoritative size after the publish,
        ``None`` when nothing was held.
        """
        owed = self.mutations.flush(rel)
        if owed is None:
            return None
        return self.call(rel, "gkfs_update_size", owed, False)

    def stat(self, rel: str, count: bool = True) -> Metadata:
        """The authoritative record of ``rel``, after any held size update;
        ``count=False`` marks an internal size probe (data-path
        bookkeeping) that application stat counters skip.

        With the lease cache the record is served from a fresh lease when
        one exists, revalidated by version when the lease expired, and
        fetched (and cached) otherwise.
        """
        if self.mutations.hooks:  # only a subscribed cache holds a size back
            self.flush(rel)
        if count:
            self.stats.stats_ += 1
        if self.leases is None:
            return Metadata.decode(self.call(rel, "gkfs_stat"))
        return Metadata.decode(self._cached_attr(rel))

    def listing(self, rel: str, plus: bool) -> list:
        """Merged listing of directory ``rel`` — ``(name, is_dir)`` pairs,
        or ``(name, Metadata)`` with ``plus`` — after the stat that refuses
        a file (``ENOTDIR``).

        Gathers each daemon's partial listing and merges: the paper's
        eventually-consistent ``readdir`` (§III-A).  A listing page is
        served from the lease cache while its lease is fresh.
        """
        if not self.stat(rel).is_dir:
            raise NotADirectoryError_(rel)
        kind = "readdir_plus" if plus else "readdir"
        if self.leases is not None:
            page = self.leases.lookup_page(kind, rel)
            if page is not None:
                self.stats.readdirs += 1
                return list(page)
        legs = self.broadcast(self.client.distributor.locate_all(), "gkfs_" + kind, rel)
        partials = [partial for partial in legs if partial is not None]
        if plus:
            by_name: dict[str, Metadata] = {}
            for name, record in (item for partial in partials for item in partial):
                by_name.setdefault(name, Metadata.decode(record))
            result = sorted(by_name.items(), key=lambda item: item[0])
        else:
            result = sorted({tuple(item) for partial in partials for item in partial})
        if self.leases is not None:
            self.leases.put_page(kind, rel, result)
        self.stats.readdirs += 1
        return result

    # -- lease cache (TTL leases + hot-key revalidation spreading) ------------

    def _hot_ring(self, rel: str, k: int) -> list[int]:
        """Owner followed by the K rendezvous replica targets for ``rel``.

        Computed from the live view per call, so a membership change
        re-resolves automatically (epoch-aware by construction).
        """
        distributor = self.client.distributor
        owner = distributor.locate_metadata(rel)
        return [owner] + hot_replica_targets(rel, owner, distributor.num_daemons, k)

    def _drop_hot_replicas(self, rel: str, k: int) -> None:
        """Best-effort replica invalidation after a local mutation."""
        for target in self._hot_ring(rel, k)[1:]:
            try:
                self.client.network.call(target, "gkfs_drop_hot_replica", rel)
            except UNREACHABLE:
                continue  # TTL expiry is the backstop

    def _seed_hot_replicas(self, rel: str, record: bytes, reply: dict) -> None:
        """Push a freshly promoted hot record to its replica daemons.

        The owner hands the one-shot seed flag (``reply["seed"]``) to
        exactly one reader per promotion window; that reader (us) fans the
        record out.  Strictly best-effort — a lost put heals at the next
        window re-arm.
        """
        k = int(reply.get("hot", 0))
        targets = self._hot_ring(rel, k)[1:] if reply.get("seed") else ()
        if not targets:
            return
        self.leases.stats.replica_seeds += 1
        # Every leg is drained; no outcome matters.
        self._fanout(targets, "gkfs_put_hot_replica", rel, record)
        self._instant("metacache.seed", "metacache", path=rel, k=k)

    def _cached_attr(self, rel: str) -> bytes:
        """The metadata record of ``rel`` through the lease cache.

        A fresh negative entry short-circuits to ``NotFoundError`` with
        zero RPCs — the ENOENT analogue of an attr hit.
        """
        entry, fresh = self.leases.lookup_attr(rel)
        if entry is not None and fresh:
            return entry.record
        if entry is None and self.leases.lookup_negative(rel):
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
            reply = self.call(rel, "gkfs_stat_lease")
        except NotFoundError:
            self.leases.put_negative(rel)
            raise
        record = reply["record"]
        self.leases.put_attr(rel, record, meta_version(record), int(reply.get("hot", 0)))
        self._seed_hot_replicas(rel, record, reply)
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
        self.leases.stats.revalidations += 1
        if entry.hot_k > 0 and self.client.distributor.num_daemons > 1:
            ring = self._hot_ring(rel, entry.hot_k)
            slot = (self.client.node_id + entry.rotation) % len(ring)
            entry.rotation += 1
            target = ring[slot]
            if target != ring[0]:
                try:
                    reply = self.client.network.call(
                        target, "gkfs_stat_if_changed", rel, entry.version)
                except (NotFoundError, *UNREACHABLE):
                    pass  # the replica cannot answer: fall back to the owner
                else:
                    self.leases.stats.replica_reads += 1
                    return self._apply_revalidation(rel, entry, reply)
        try:
            reply = self.call(rel, "gkfs_stat_if_changed", entry.version)
        except NotFoundError:
            self.leases.invalidate_attr(rel)
            self.leases.put_negative(rel)
            raise
        return self._apply_revalidation(rel, entry, reply)

    def _apply_revalidation(self, rel: str, entry, reply: dict) -> bytes:
        """Land a conditional-read reply: renew or replace the entry."""
        if reply.get("replica"):
            hot_k = entry.hot_k  # replicas don't track hotness; keep ours
        else:
            hot_k = int(reply.get("hot", 0))
        if not reply["changed"]:
            self.leases.stats.revalidated_unchanged += 1
            self.leases.renew_attr(rel, hot_k=hot_k)
            record = entry.record
        else:
            record = reply["record"]
            self.leases.put_attr(rel, record, meta_version(record), hot_k)
        self._seed_hot_replicas(rel, record, reply)
        return record
