"""Daemon restart recovery: what brings a replacement daemon up to date.

The paper's GekkoFS has no recovery story — a daemon that dies takes its
shard with it (§I).  This module is the extension's answer, run by
``cluster.restart_daemon`` after the replacement daemon has reopened the
node's local state:

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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core import fsck
from repro.core.daemon import read_chunks
from repro.selfheal.repair import WireRepairer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import GekkoFSCluster

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


def recover_daemon(cluster: "GekkoFSCluster", address: int) -> RecoveryReport:
    """Reconcile a freshly restarted daemon with the deployment.

    Assumes ``cluster.daemons[address]`` has already been replaced by a
    live daemon that reopened the node's ``kv_dir``/``data_dir`` (the
    local WAL replay and chunk rescan have happened).  Returns a
    :class:`RecoveryReport`; the embedded fsck report reflects the state
    *after* repair — a non-clean report means data was genuinely
    unrecoverable (e.g. an unreplicated in-memory daemon lost its shard).
    """
    daemon = cluster.daemons[address]
    report = RecoveryReport(address=address)
    report.records_recovered = len(daemon.kv)
    report.chunks_rescanned = sum(1 for _ in read_chunks(daemon.inventory))

    if cluster.config.replication > 1:
        restored = WireRepairer(cluster, view=cluster.view).repair()
        report.records_resynced = restored.records_restored + restored.sizes_raised
        report.chunks_resynced = restored.chunks_restored

    root_missing = daemon.kv.get(b"/") is None
    cluster.format()
    report.root_recreated = root_missing and daemon.kv.get(b"/") is not None

    report.fsck = fsck.repair(cluster)
    return report
