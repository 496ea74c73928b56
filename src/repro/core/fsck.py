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

``check()`` lists every reachable daemon's records and chunks through
its paged ``gkfs_inventory`` — over RPC, so it runs on any deployment a
client can mount (``network.call``, ``distributor``, ``config``,
``num_nodes``), in-process or a separate OS process.  A chunk's extent
is its listed length; corruption is what ``gkfs_chunk_digest`` refuses
to vouch for (one batch of digests, awaited together).  While any
daemon cannot list its holdings in full, no chunk is called orphaned:
the missing record may be on that daemon.  ``repair()`` applies the
safe fixes, over the same handlers a client uses: it garbage-collects
orphaned chunks (``gkfs_remove_chunks`` on the daemon holding them) and
raises understated sizes (max-mode ``gkfs_update_size`` — data wins
over metadata, the bytes exist).  Orphan collection is safe on a quiesced
deployment only: a write in flight has its chunks before its record
(docs/semantics.md, "orphan chunk").  Corruption is *reported* here but
*repaired* by the scrubber (:mod:`repro.faults.scrub`), which holds the
replica anti-entropy machinery.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.common.errors import UNREACHABLE, NotFoundError
from repro.core.chunking import chunk_digests
from repro.core.daemon import read_chunks, read_records
from repro.core.distributor import replica_set
from repro.core.metadata import prefer_record, record_head

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
    #: daemons whose listing failed or was cut short (crashed,
    #: partitioned, a page lost); while any is listed, orphans go unjudged.
    unreachable: list[int] = field(default_factory=list)

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
            f"({len(self.quarantined_chunks)} quarantined), "
            f"{len(self.unreachable)} daemons unreachable"
        )


def _inventories(deployment) -> tuple[dict, list, list]:
    """Every reachable daemon's holdings: the merged records (where
    replicas disagree — one missed a size update before a crash — the
    :func:`~repro.core.metadata.prefer_record` rule picks the copy),
    every chunk as ``(address, path, chunk_id, length, quarantined)``,
    and the addresses whose listing failed or was cut short."""
    records: dict[str, bytes] = {}
    chunks: list[tuple] = []
    unreachable: list[int] = []
    for address in range(deployment.num_nodes):
        fetch = functools.partial(deployment.network.call, address, "gkfs_inventory")
        try:
            for rel, record in read_records(fetch):
                records[rel] = prefer_record(records.get(rel), record)
            for entry in read_chunks(fetch):
                chunks.append((address, *entry))
        except UNREACHABLE:
            unreachable.append(address)
    return records, chunks, unreachable


def check(deployment) -> FsckReport:
    """Cross-check every reachable daemon's data against the metadata."""
    report = FsckReport()
    records, chunks, report.unreachable = _inventories(deployment)
    report.files_checked = len(records)
    chunk_size = deployment.config.chunk_size
    corrupt = set()
    if deployment.config.integrity_enabled:
        digests = chunk_digests(
            deployment.network.call_async,
            [entry[:3] for entry in chunks],
            tolerate=UNREACHABLE,
        )
        corrupt = {key for key, digest in digests.items() if digest is None}

    # Observed data extent per path.
    observed: dict[str, int] = {}
    for address, path, chunk_id, length, quarantined in chunks:
        report.chunks_checked += 1
        finding = (path, address, chunk_id)
        if quarantined:
            report.quarantined_chunks.append(finding)
        if (address, path, chunk_id) in corrupt:
            report.corrupt_chunks.append(finding)
        if path not in records:
            if not report.unreachable:
                report.orphaned_chunks.append(finding)
            continue
        extent = chunk_id * chunk_size + length
        observed[path] = max(observed.get(path, 0), extent)

    for path, extent in sorted(observed.items()):
        is_dir, size = record_head(records[path])
        if not is_dir and extent > size:
            report.size_overruns.append((path, size, extent))

    for path in sorted(records):
        if path == "/":
            continue
        parent = path.rsplit("/", 1)[0] or "/"
        if parent not in records:
            report.phantom_parents.append(path)

    return report


def repair(deployment, report: FsckReport | None = None) -> FsckReport:
    """Apply the safe fixes and return a fresh post-repair scan.

    * Orphaned chunks are removed (their path is not addressable).
    * Understated sizes are raised to the observed extent (the data is
      there; a lost size update must not hide it) on every owner that
      holds the record — repairing only the primary would leave stale
      replicas to win a later fail-over read.

    Phantom parents are left alone — they are valid flat-namespace state.
    """
    findings = report if report is not None else check(deployment)
    call = deployment.network.call
    for path, address in sorted({(p, a) for p, a, _ in findings.orphaned_chunks}):
        try:
            call(address, "gkfs_remove_chunks", path)
        except UNREACHABLE:
            continue  # down since the scan; its restart re-runs fsck
    dist = deployment.distributor
    for path, _recorded, observed_extent in findings.size_overruns:
        for address in replica_set(
            dist.locate_metadata(path), deployment.config.replication, dist.num_daemons
        ):
            try:
                call(address, "gkfs_update_size", path, observed_extent, False)
            except (NotFoundError,) + UNREACHABLE:
                continue  # this owner holds no record to raise, or is down
    return check(deployment)
