"""Client plane: the per-client metadata/dentry cache under TTL leases.

One bounded LRU holds two entry kinds:

* **attr** — the encoded metadata record of one path plus its content
  version stamp and the owner's hot-replication fan-out (0 = not hot).
* **page** — a merged readdir/readdir_plus result for one directory.
* **neg** — a negative (ENOENT) entry: the owner said the path does not
  exist.  Lives under the same TTL lease and LRU budget; a fresh one
  answers stat/open with a zero-RPC ``NotFoundError``.  Any local
  create/mutation of the path drops it (invalidation-on-create), so
  read-your-writes holds; cross-client creates are visible within one
  lease, the same staleness bound positive entries carry.

Freshness is a pure TTL lease: an entry younger than the lease answers
locally; an older one must revalidate (the client sends the version to
``gkfs_stat_if_changed`` and only a changed record travels back).  The
cache itself never talks to the network — the client's metadata path
drives fetches and revalidations, local mutations arrive as
:class:`~repro.core.cache.CacheHooks` events, and the cache just
remembers and expires.  All methods are thread-safe.
"""

from __future__ import annotations

import posixpath
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.cache import CacheHooks
from repro.metacache.placement import meta_version

__all__ = ["ClientMetaCache", "MetaCacheStats", "AttrEntry"]


@dataclass
class MetaCacheStats:
    """Effectiveness counters, mirrored as ``metacache.*`` metrics."""

    attr_hits: int = 0
    attr_misses: int = 0
    negative_hits: int = 0
    negative_puts: int = 0
    readdir_hits: int = 0
    readdir_misses: int = 0
    revalidations: int = 0
    revalidated_unchanged: int = 0
    invalidations: int = 0
    expirations: int = 0
    evictions: int = 0
    replica_reads: int = 0
    replica_seeds: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of attr lookups served without any RPC."""
        total = self.attr_hits + self.attr_misses + self.revalidations
        return self.attr_hits / total if total else 0.0


@dataclass
class AttrEntry:
    """One cached getattr result under a lease."""

    record: bytes
    version: int
    fetched_at: float
    hot_k: int = 0
    #: revalidation rotation cursor — spreads this client's conditional
    #: reads of a hot key across owner + replicas round-robin.
    rotation: int = field(default=0, repr=False)

    def fresh(self, now: float, ttl: float) -> bool:
        return now - self.fetched_at < ttl


class ClientMetaCache(CacheHooks):
    """Bounded LRU of attr records and readdir pages with TTL leases.

    :param ttl: lease duration in seconds.
    :param capacity: max entries (attr + pages combined), LRU-evicted.
    :param clock: injectable monotonic clock for tests.
    :param on_hot_change: ``(rel, k)`` called when a local mutation drops
        an entry the owner had marked hot (its K replicas serve it).
    """

    def __init__(
        self,
        ttl: float,
        capacity: int,
        clock: Callable[[], float] = time.monotonic,
        on_hot_change: Optional[Callable[[str, int], None]] = None,
    ):
        if ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.ttl = ttl
        self.capacity = capacity
        self.clock = clock
        self.on_hot_change = on_hot_change
        self.stats = MetaCacheStats()
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, object] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- attr records -------------------------------------------------

    def lookup_attr(self, rel: str) -> tuple[Optional[AttrEntry], bool]:
        """Return ``(entry, fresh)``; counts a hit only when fresh.

        A stale entry is returned (not dropped) so the caller can
        revalidate it cheaply by version; the caller counts the
        revalidation via :meth:`note_revalidation`.
        """
        key = ("attr", rel)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.attr_misses += 1
                return None, False
            self._entries.move_to_end(key)
            if entry.fresh(self.clock(), self.ttl):
                self.stats.attr_hits += 1
                return entry, True
            self.stats.expirations += 1
            return entry, False

    def put_attr(self, rel: str, record: bytes, version: int, hot_k: int = 0) -> AttrEntry:
        """Cache (or replace) the attr record for ``rel`` with a fresh lease.

        Also drops any negative entry for the path — the
        invalidation-on-create rule: once this client has seen (or made)
        the path exist, a stale ENOENT must never answer again.
        """
        entry = AttrEntry(record, version, self.clock(), hot_k)
        with self._lock:
            old = self._entries.get(("attr", rel))
            if old is not None:
                entry.rotation = old.rotation
            self._entries.pop(("neg", rel), None)
            self._entries[("attr", rel)] = entry
            self._entries.move_to_end(("attr", rel))
            self._evict_locked()
        return entry

    def renew_attr(self, rel: str, hot_k: Optional[int] = None) -> None:
        """Renew the lease of an unchanged entry after revalidation."""
        with self._lock:
            entry = self._entries.get(("attr", rel))
            if entry is not None:
                entry.fetched_at = self.clock()
                if hot_k is not None:
                    entry.hot_k = hot_k

    # -- negative (ENOENT) entries ------------------------------------

    def lookup_negative(self, rel: str) -> bool:
        """True when a *fresh* negative entry covers ``rel``.

        A fresh hit answers stat/open with a zero-RPC ``NotFoundError``
        on the caller's side.  A stale entry is dropped (the lease
        expired — the path may exist by now) and reads as a miss; the
        caller's normal fetch path then re-learns the truth.
        """
        key = ("neg", rel)
        with self._lock:
            stamp = self._entries.get(key)
            if stamp is None:
                return False
            if self.clock() - stamp < self.ttl:
                self._entries.move_to_end(key)
                self.stats.negative_hits += 1
                return True
            self.stats.expirations += 1
            del self._entries[key]
            return False

    def put_negative(self, rel: str) -> None:
        """Cache "``rel`` does not exist" under a fresh lease.

        Any positive entry for the path is dropped — the owner just
        contradicted it.
        """
        with self._lock:
            self._entries.pop(("attr", rel), None)
            self._entries[("neg", rel)] = self.clock()
            self._entries.move_to_end(("neg", rel))
            self.stats.negative_puts += 1
            self._evict_locked()

    # -- readdir pages ------------------------------------------------

    def lookup_page(self, kind: str, rel: str):
        """Return the cached readdir page or ``None``; counts hit/miss."""
        key = (kind, rel)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                value, fetched_at = entry
                if self.clock() - fetched_at < self.ttl:
                    self.stats.readdir_hits += 1
                    return value
                self.stats.expirations += 1
                del self._entries[key]
            self.stats.readdir_misses += 1
            return None

    def put_page(self, kind: str, rel: str, value) -> None:
        with self._lock:
            self._entries[(kind, rel)] = (value, self.clock())
            self._entries.move_to_end((kind, rel))
            self._evict_locked()

    # -- invalidation -------------------------------------------------

    def invalidate_attr(self, rel: str) -> Optional[AttrEntry]:
        """Drop the attr entry for ``rel`` (mutation / read-your-writes).

        Returns the dropped entry — :meth:`changed` uses its ``hot_k`` to
        decide whether replica drops are worth broadcasting.  Negative
        entries fall with the positive one: a local mutation (create or
        unlink) makes either cached answer suspect, and the next lookup
        re-learns whichever is true.
        """
        with self._lock:
            entry = self._entries.pop(("attr", rel), None)
            if entry is not None:
                self.stats.invalidations += 1
            if self._entries.pop(("neg", rel), None) is not None:
                self.stats.invalidations += 1
            return entry

    def invalidate_pages(self, rel: str) -> None:
        """Drop cached directory pages for ``rel`` (namespace mutated)."""
        with self._lock:
            for kind in ("readdir", "readdir_plus"):
                if self._entries.pop((kind, rel), None) is not None:
                    self.stats.invalidations += 1

    def clear(self) -> None:
        with self._lock:
            self.stats.invalidations += len(self._entries)
            self._entries.clear()

    # -- CacheHooks: invalidation-on-mutation ----------------------------

    def changed(self, rel: str) -> None:
        """Drop ``rel``'s attr entry and the listing pages of ``rel`` and
        of its parent (namespace and attributes changed); a hot entry's
        replicas are dropped too, so siblings stop serving the stale
        record early (their TTL bounds the worst case regardless)."""
        entry = self.invalidate_attr(rel)
        self.invalidate_pages(rel)
        self.invalidate_pages(posixpath.dirname(rel))
        if entry is not None and entry.hot_k > 0 and self.on_hot_change is not None:
            self.on_hot_change(rel, entry.hot_k)

    def created(self, rel: str, record: bytes) -> None:
        """The parent's listing changed; the owner's answer is the record
        (zero-RPC read-your-writes for the stat that usually follows)."""
        self.invalidate_pages(posixpath.dirname(rel))
        self.put_attr(rel, record, meta_version(record))

    def register_gauges(self, registry) -> None:
        registry.mirror("metacache.", lambda: self.stats,
                        [*MetaCacheStats.__dataclass_fields__, "hit_rate"])
        registry.gauge("metacache.entries", lambda: len(self))

    # -- internals ----------------------------------------------------

    def _evict_locked(self) -> None:
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
