"""Client caches: the one notification point, and the size-update cache.

:class:`Mutations` is how every mutation this client makes reaches its
caches — the size-update cache below, the chunk cache
(:mod:`repro.core.datacache`) and the metadata lease cache
(:mod:`repro.metacache`).  A cache subscribes by implementing
:class:`CacheHooks`; the client's paths announce what happened to a path
and never ask which caches exist.  With none configured every event is
one call over an empty tuple.

The size-update write-back cache (§IV-B extension): without it, every
write RPC is followed by a size-update RPC to the one daemon owning the
shared file's metadata — the paper measured that hotspot capping
shared-file writes at ~150 K ops/s.  The cache buffers the running
maximum locally and publishes it every ``flush_every`` writes and on
close/fsync/stat, after which shared-file throughput matches
file-per-process.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

__all__ = ["CacheHooks", "Mutations", "SizeUpdateCache", "CacheStats"]


class CacheHooks:
    """What a client cache hears: one hook per :class:`Mutations` event,
    each optional.  By default a write or a removal is heard as a change
    of the record, and nothing is held back."""

    #: Whether :meth:`wrote` may hold a write's size update back; a write
    #: publishes its size with its bytes only when no subscriber does.
    holds_sizes = False

    def flushing(self, rel: str) -> Optional[int]:
        return None

    def wrote(self, rel: str, spans: list, view, end: Optional[int]) -> Optional[int]:
        # A write past the recorded size changes the record whether its size
        # update is published now or held: no stat may read a stale lease.
        self.changed(rel)
        return end

    def changed(self, rel: str) -> None:
        pass

    def gone(self, rel: str) -> int:
        self.changed(rel)
        return 0

    def created(self, rel: str, record: bytes) -> None:
        pass

    def register_gauges(self, registry) -> None:
        """Mirror this cache's counters into the client's registry, so
        ``repro metrics`` / ``repro top`` report them."""


class Mutations:
    """The one point every mutation of this client reaches its caches;
    ``rel`` is the mount-relative path.  Subscribers hear each event in
    subscription order."""

    def __init__(self):
        self.hooks: tuple = ()  # the subscribed caches
        self.holds_sizes = False  # some subscriber may hold a size back

    def subscribe(self, hooks: CacheHooks, registry) -> None:
        self.hooks += (hooks,)
        self.holds_sizes |= hooks.holds_sizes
        hooks.register_gauges(registry)

    def flush(self, rel: str) -> Optional[int]:
        """``rel``'s size is about to be read, reserved or let go (stat,
        open, append, close, fsync).  Returns a size update a cache held
        back, owed to the owner now; ``None`` when none was held."""
        owed = None
        for hooks in self.hooks:
            size = hooks.flushing(rel)
            if size is not None:
                owed = size
        if owed is not None:  # a held size must never read stale through a lease
            for hooks in self.hooks:
                hooks.changed(rel)
        return owed

    def wrote(self, rel: str, spans: list, view, end: Optional[int]) -> Optional[int]:
        """This client's bytes landed: ``spans`` of ``view``.  ``end`` is
        the size update the write owes (``None``: none, the region was
        reserved); returns what is owed now — a cache may hold it back."""
        for hooks in self.hooks:
            end = hooks.wrote(rel, spans, view, end)
        return end

    def gone(self, rel: str) -> int:
        """``rel`` or its bytes are gone (unlink, rmdir, truncate,
        ``O_TRUNC``, rename target).  Returns a held size that was dropped
        (0 if none): chunks exist up to it, and the caller's multicast
        must reach them."""
        pending = 0
        for hooks in self.hooks:
            pending = max(pending, hooks.gone(rel))
        return pending

    def created(self, rel: str, record: bytes) -> None:
        """The owner created ``rel`` and answered with its ``record``."""
        for hooks in self.hooks:
            hooks.created(rel, record)


@dataclass
class CacheStats:
    """Effectiveness counters: how many RPCs the cache absorbed."""

    updates_buffered: int = 0
    flushes: int = 0

    @property
    def rpcs_saved(self) -> int:
        """Size-update RPCs avoided versus the cache-less protocol."""
        return self.updates_buffered - self.flushes


class SizeUpdateCache(CacheHooks):
    """Per-path buffered ``max(size)`` with a count-based flush policy.

    :param flush_every: publish after this many buffered updates per path.
    """

    holds_sizes = True

    def __init__(self, flush_every: int = 64):
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.flush_every = flush_every
        self._lock = threading.Lock()
        self._pending: dict[str, tuple[int, int]] = {}  # path -> (max_size, count)
        self.stats = CacheStats()

    def record(self, path: str, size: int) -> Optional[int]:
        """Buffer one size observation.

        Returns the size to publish *now* if the flush policy fired,
        else ``None`` (the update stays buffered).
        """
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        with self._lock:
            self.stats.updates_buffered += 1
            max_size, count = self._pending.get(path, (0, 0))
            max_size = max(max_size, size)
            count += 1
            if count >= self.flush_every:
                self._pending.pop(path, None)
                self.stats.flushes += 1
                return max_size
            self._pending[path] = (max_size, count)
            return None

    def take(self, path: str) -> Optional[int]:
        """Remove and return the pending size for ``path`` (close/fsync/stat)."""
        with self._lock:
            entry = self._pending.pop(path, None)
            if entry is None:
                return None
            self.stats.flushes += 1
            return entry[0]

    def take_all(self) -> dict[str, int]:
        """Drain everything (client shutdown)."""
        with self._lock:
            drained = {path: size for path, (size, _) in self._pending.items()}
            self.stats.flushes += len(drained)
            self._pending.clear()
            return drained

    def pending_paths(self) -> list[str]:
        with self._lock:
            return sorted(self._pending)

    # -- CacheHooks: a held size is owed before the size is read; a write
    # owes its end unless the flush policy holds it; removed bytes drop it.

    def flushing(self, rel: str) -> Optional[int]:
        return self.take(rel)

    def wrote(self, rel: str, spans: list, view, end: Optional[int]) -> Optional[int]:
        return None if end is None else self.record(rel, end)

    def gone(self, rel: str) -> int:
        return self.take(rel) or 0

    def register_gauges(self, registry) -> None:
        registry.mirror("cache.size_", lambda: self.stats,
                        ("updates_buffered", "flushes", "rpcs_saved"))
