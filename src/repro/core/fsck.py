"""Consistency checker (fsck) for a GekkoFS deployment.

GekkoFS trades crash-consistency machinery for speed: there is no
journal spanning metadata and data, so a client dying mid-operation can
leave the deployment in states a later job wants to detect before
trusting a retained campaign:

* **orphaned chunks** — data written before its metadata record was
  created/after it was removed (the client fans out writes and publishes
  the size separately, §III-B);
* **size overrun** — a metadata size smaller than the highest stored
  chunk (a size update that never arrived);
* **phantom directories** — children whose parent path has no record
  (legal in the flat namespace, reported as informational);
* **corrupt chunks** — payloads failing digest verification (integrity
  plane only), including chunks the scrubber quarantined as
  unrepairable.

``check()`` scans every daemon; ``repair()`` applies the safe fixes:
dropping orphaned chunks and raising understated sizes (data wins over
metadata — the bytes exist).  Corruption is *reported* here but
*repaired* by the scrubber (:mod:`repro.faults.scrub`), which holds the
replica anti-entropy machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.distributor import replica_set
from repro.core.metadata import Metadata, prefer_record

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import GekkoFSCluster

__all__ = ["FsckReport", "check", "repair"]


@dataclass
class FsckReport:
    """Findings of one consistency scan."""

    files_checked: int = 0
    chunks_checked: int = 0
    #: (path, daemon, chunk_id) of chunks with no metadata record.
    orphaned_chunks: list[tuple[str, int, int]] = field(default_factory=list)
    #: (path, recorded_size, observed_size) where data extends past the record.
    size_overruns: list[tuple[str, int, int]] = field(default_factory=list)
    #: paths whose parent directory has no record (informational).
    phantom_parents: list[str] = field(default_factory=list)
    #: (path, daemon, chunk_id) failing digest verification (integrity
    #: plane only) — includes any quarantined chunks, whose payloads are
    #: still corrupt in place.
    corrupt_chunks: list[tuple[str, int, int]] = field(default_factory=list)
    #: (path, daemon, chunk_id) quarantined by the scrubber as
    #: unrepairable — verified reads of these fail with ``EIO``.
    quarantined_chunks: list[tuple[str, int, int]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No findings that affect data addressing or data trustworthiness
        (phantoms are legal)."""
        return (
            not self.orphaned_chunks
            and not self.size_overruns
            and not self.corrupt_chunks
        )

    def __str__(self) -> str:
        status = "clean" if self.clean else "INCONSISTENT"
        return (
            f"fsck: {status} — {self.files_checked} files, "
            f"{self.chunks_checked} chunks, "
            f"{len(self.orphaned_chunks)} orphaned chunks, "
            f"{len(self.size_overruns)} size overruns, "
            f"{len(self.phantom_parents)} phantom parents, "
            f"{len(self.corrupt_chunks)} corrupt chunks "
            f"({len(self.quarantined_chunks)} quarantined)"
        )


def _live_daemons(cluster: "GekkoFSCluster"):
    """Daemons fsck may touch — crash-stopped ones are skipped entirely
    (their stores are closed; their durable state is examined after
    restart, which is exactly when recovery runs fsck)."""
    live = getattr(cluster, "live_daemons", None)
    return list(live()) if callable(live) else list(cluster.daemons)


def _daemon_alive(cluster: "GekkoFSCluster", address: int) -> bool:
    alive = getattr(cluster, "daemon_alive", None)
    return bool(alive(address)) if callable(alive) else True


def _collect_metadata(cluster: "GekkoFSCluster") -> dict[str, Metadata]:
    """Merged view of every live daemon's records; where replicas
    disagree (one missed a size update before a crash) the
    :func:`~repro.core.metadata.prefer_record` rule picks the copy."""
    records: dict[bytes, bytes] = {}
    for daemon in _live_daemons(cluster):
        for key, value in daemon.kv.range_iter():
            records[key] = prefer_record(records.get(key), value)
    return {
        key.decode("utf-8"): Metadata.decode(value) for key, value in records.items()
    }


def check(cluster: "GekkoFSCluster") -> FsckReport:
    """Scan every live daemon and cross-check data against metadata."""
    report = FsckReport()
    records = _collect_metadata(cluster)
    report.files_checked = len(records)
    chunk_size = cluster.config.chunk_size

    # Observed data extent per path.
    observed: dict[str, int] = {}
    for daemon in _live_daemons(cluster):
        integrity = daemon.storage.integrity
        for path in daemon.storage.paths():
            for chunk_id in daemon.storage.chunk_ids(path):
                report.chunks_checked += 1
                if integrity and not daemon.storage.verify_chunk(path, chunk_id):
                    report.corrupt_chunks.append((path, daemon.address, chunk_id))
                if path not in records:
                    report.orphaned_chunks.append((path, daemon.address, chunk_id))
                    continue
                data = daemon.storage.read_chunk(path, chunk_id, 0, chunk_size)
                extent = chunk_id * chunk_size + len(data)
                observed[path] = max(observed.get(path, 0), extent)
        if integrity:
            report.quarantined_chunks.extend(
                (path, daemon.address, chunk_id)
                for path, chunk_id in daemon.storage.quarantined
            )

    for path, extent in sorted(observed.items()):
        md = records[path]
        if not md.is_dir and extent > md.size:
            report.size_overruns.append((path, md.size, extent))

    for path in sorted(records):
        if path == "/":
            continue
        parent = path.rsplit("/", 1)[0] or "/"
        if parent not in records:
            report.phantom_parents.append(path)

    return report


def repair(cluster: "GekkoFSCluster", report: FsckReport | None = None) -> FsckReport:
    """Apply the safe fixes and return a fresh post-repair scan.

    * Orphaned chunks are removed (their path is not addressable).
    * Understated sizes are raised to the observed extent (the data is
      there; a lost size update must not hide it).

    Phantom parents are left alone — they are valid flat-namespace state.
    """
    findings = report if report is not None else check(cluster)
    for path, daemon_addr, chunk_id in findings.orphaned_chunks:
        if not _daemon_alive(cluster, daemon_addr):
            continue  # crashed since the scan; its restart re-runs fsck
        cluster.daemons[daemon_addr].storage.truncate_chunk(path, chunk_id, 0)
    for daemon in _live_daemons(cluster):  # drop emptied path containers
        for path in list(daemon.storage.paths()):
            if not list(daemon.storage.chunk_ids(path)):
                daemon.storage.remove_chunks(path)
    for path, _recorded, observed_extent in findings.size_overruns:
        # Raise the size on every live replica that holds the record —
        # repairing only the primary would leave stale replicas to win a
        # later fail-over read.
        dist = cluster.distributor
        key = path.encode("utf-8")
        for address in replica_set(
            dist.locate_metadata(path), cluster.config.replication, dist.num_daemons
        ):
            if not _daemon_alive(cluster, address):
                continue
            daemon = cluster.daemons[address]
            if daemon.kv.get(key) is not None:
                daemon.update_size(path, observed_extent)
    return check(cluster)
