"""Metadata caching subsystem: client TTL-lease cache + hot-key replication.

Two cooperating planes around the metadata path (ROADMAP item 2; the
hotspot MIDAS absorbs with proxies and BuffetFS removes with client-side
checks):

* **Client plane** (:class:`ClientMetaCache`) — a per-client bounded LRU
  of getattr records and readdir pages under TTL leases.  Fresh entries
  answer stat/open/listdir with zero RPCs; expired ones revalidate via a
  version-stamped conditional RPC (``gkfs_stat_if_changed``) that ships
  the record only when it changed.  Every local mutation invalidates its
  own entries, so one client always reads its own writes.
* **Daemon plane** (:class:`HotMetaPlane`) — the metadata owner counts
  per-key reads in sliding windows (:class:`HotKeyTracker`); a key
  crossing the promotion threshold is flagged *hot* and its record is
  replicated — client-assisted, daemons never talk to each other — to K
  rendezvous-chosen siblings (:func:`hot_replica_targets`), which serve
  lease revalidations from a TTL-bounded side table
  (:class:`HotReplicaStore`).  Writes go through the owner as always and
  invalidate replicas (broadcast drops from aware clients; the replica
  TTL is the backstop for mutations by unaware ones).

Version stamps are content hashes (:func:`meta_version`) of the encoded
record — no metadata layout change, exact change detection, and stamps
survive daemon restarts.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "client": ["ClientMetaCache", "MetaCacheStats"],
    "hotkeys": ["HotKeyTracker", "HotMetaPlane", "HotReplicaStore"],
    "placement": ["hot_replica_targets", "meta_version"],
})
