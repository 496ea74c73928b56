"""Daemon restart recovery: what brings a replacement daemon up to date.

The paper's GekkoFS has no recovery story — a daemon that dies takes its
shard with it (§I).  This module is the extension's answer, run by
``Deployment.restart_daemon`` after the replacement daemon has reopened
the node's local state — over the wire, on every node substrate:

1. **Local replay** happens implicitly at construction: the LSM store
   replays its un-truncated WAL over the sealed SSTables, and
   disk-backed chunk storage rediscovers every chunk file by directory
   rescan.  :func:`recover_daemon` accounts what that recovered.
2. **Replica restore**: with replication > 1, one
   :class:`~repro.selfheal.repair.WireRepairer` pass — the restore path
   crash-replace and the supervisor use too — brings back every record
   and chunk the restarted daemon is missing.  It restores what is
   missing and raises understated sizes; it never overwrites a present,
   healthy copy, so WAL-replayed state newer than a replica's survives.
3. **Root recreation**: the cluster's idempotent root create
   (``cluster.format``) brings "/" back if the restarted daemon is one
   of its replicas and lost it (in-memory KV), so the namespace stays
   mountable.
4. **Cluster-wide fsck repair** reconciles whatever the crash left
   behind — orphaned chunks of records that died with an unreplicated
   daemon, understated sizes from lost size updates — using the same
   :mod:`repro.core.fsck` logic that audits retained campaigns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.common.errors import NotFoundError
from repro.core import fsck
from repro.core.daemon import read_chunks, read_records
from repro.selfheal.repair import WireRepairer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import Deployment

__all__ = ["RecoveryReport", "recover_daemon"]


@dataclass
class RecoveryReport:
    """What one daemon restart recovered, and how."""

    address: int
    #: Metadata records present after reopening local state (WAL replay).
    records_recovered: int = 0
    #: Chunk files rediscovered by the storage rescan.
    chunks_rescanned: int = 0
    #: Records restored or sizes raised from surviving replicas.
    records_resynced: int = 0
    #: Chunks restored from surviving replicas.
    chunks_resynced: int = 0
    #: Whether the root directory record had to be recreated.
    root_recreated: bool = False
    #: Post-recovery cluster-wide consistency scan (after repair).
    fsck: "fsck.FsckReport" = field(default_factory=fsck.FsckReport)

    def __str__(self) -> str:
        return (
            f"recovery(daemon {self.address}): "
            f"{self.records_recovered} records + {self.chunks_rescanned} chunks "
            f"from local state, {self.records_resynced} records + "
            f"{self.chunks_resynced} chunks resynced from replicas, "
            f"root_recreated={self.root_recreated}, fsck={self.fsck}"
        )


def recover_daemon(cluster: "Deployment", address: int) -> RecoveryReport:
    """Reconcile a freshly restarted daemon with the deployment, over RPC.

    Assumes the daemon at ``address`` has already been restarted on the
    node's ``kv_dir``/``data_dir`` (the local WAL replay and chunk rescan
    have happened); its counts and the root check are read through
    ``gkfs_inventory`` and ``gkfs_stat``, so this runs on every node
    substrate.  Returns a :class:`RecoveryReport`; the embedded fsck
    report reflects the state *after* repair — a non-clean report means
    data was genuinely unrecoverable (e.g. an unreplicated in-memory
    daemon lost its shard).
    """
    report = RecoveryReport(address=address)
    fetch = functools.partial(cluster.network.call, address, "gkfs_inventory")
    report.records_recovered = sum(1 for _ in read_records(fetch))
    report.chunks_rescanned = sum(1 for _ in read_chunks(fetch))

    if cluster.config.replication > 1:
        restored = WireRepairer(cluster).repair()
        report.records_resynced = restored.records_restored + restored.sizes_raised
        report.chunks_resynced = restored.chunks_restored

    root_missing = not _holds_root(cluster, address)
    cluster.format()
    report.root_recreated = root_missing and _holds_root(cluster, address)

    report.fsck = fsck.repair(cluster)
    return report


def _holds_root(cluster: "Deployment", address: int) -> bool:
    try:
        cluster.network.call(address, "gkfs_stat", "/")
    except NotFoundError:
        return False
    return True
