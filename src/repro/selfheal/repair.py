"""Redundancy repair over plain RPCs: rebuild a blank daemon from replicas.

:class:`WireRepairer` is the one replica-restore path.  A restarted
daemon (``Deployment.restart_daemon``), a crash-replaced one
(``Deployment.replace_daemon``) and the supervisor's repairs on every
node substrate all run it.  It is pure client-side, driving only
existing daemon handlers (``gkfs_inventory`` / ``gkfs_stat`` /
``gkfs_create`` / ``gkfs_update_size`` / ``gkfs_read_chunks`` /
``gkfs_replace_chunk`` / ``gkfs_chunk_digest``), so it runs against any
deployment a client can mount — in-process or a separate OS process.

Algorithm, per pass:

1. snapshot the deployment view's epoch — if it moves while we copy, a
   membership change ran concurrently and the pass result is
   untrustworthy: raise, let the supervisor retry under the new epoch
   (every call carries the epoch the network stamps, so a daemon sealed
   past it rejects the repair instead of accepting stale placement);
2. list every reachable daemon's records through its paged
   ``gkfs_inventory`` and merge them — flat, like the namespace (§III-A):
   a file under a parent that was never created is found like any
   other; where copies of a record disagree,
   :func:`~repro.core.metadata.prefer_record` picks the one to restore —
   a file's largest size;
3. for every path, re-create missing metadata records on each desired
   replica owner (``gkfs_create`` without ``O_EXCL`` is idempotent — an
   existing record always wins, so concurrent foreground writes are
   never clobbered) and raise an understated size with a max-mode
   ``gkfs_update_size`` (never lowered);
4. for every file chunk, compare ``gkfs_chunk_digest`` across the
   desired owners: an owner with no payload, a shorter payload, or one
   whose integrity verification fails (bitrot) is restored from the
   longest healthy copy via ``read_chunks`` → ``replace_chunk``
   (whole-payload CRC checked by the target before storing) and
   digest-verified after — guarded by a CAS-style re-read of the
   target's digest immediately before the replace, so a foreground
   write that lands after the snapshot is never rolled back by the
   stale payload.

The repairer restores *redundancy*, deliberately not *consensus*: two
healthy same-length divergent copies (a write raced the crash) are left
for the integrity plane's read-repair to settle — overwriting either
from here could lose an acked write.

What it tolerates is named: a daemon that fails with one of
:data:`~repro.common.errors.UNREACHABLE` (transport loss, crash, tripped
breaker) is listed in ``unreachable``; any other error — a programming
error included — propagates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import UNREACHABLE, IntegrityError, NotFoundError
from repro.core.chunking import fetch_chunk
from repro.core.daemon import read_records
from repro.core.distributor import replica_set
from repro.core.metadata import prefer_record, record_head
from repro.storage.integrity import chunk_checksum

__all__ = ["WireRepairer", "RepairReport", "EpochMovedError"]


class EpochMovedError(RuntimeError):
    """The membership epoch advanced mid-repair; the pass must rerun."""


def _digest_unchanged(before: Optional[dict], after: Optional[dict]) -> bool:
    """Same copy state across two digest reads (``None`` = rotted)."""
    if before is None or after is None:
        return before is None and after is None
    return (
        before["length"] == after["length"]
        and before["digest"] == after["digest"]
    )


@dataclass
class RepairReport:
    """What one repair pass did."""

    paths_seen: int = 0
    records_restored: int = 0
    sizes_raised: int = 0
    chunks_checked: int = 0
    chunks_restored: int = 0
    chunks_skipped_racing: int = 0
    bytes_restored: int = 0
    unreachable: list = field(default_factory=list)
    epoch: int = 0

    def as_dict(self) -> dict:
        return {
            "paths_seen": self.paths_seen,
            "records_restored": self.records_restored,
            "sizes_raised": self.sizes_raised,
            "chunks_checked": self.chunks_checked,
            "chunks_restored": self.chunks_restored,
            "chunks_skipped_racing": self.chunks_skipped_racing,
            "bytes_restored": self.bytes_restored,
            "unreachable": sorted(set(self.unreachable)),
            "epoch": self.epoch,
        }


class WireRepairer:
    """Restore full replication over plain RPCs.

    :param deployment: the :class:`~repro.core.cluster.Deployment` to
        repair — its ``network``, ``view``, ``config`` and ``num_nodes``.
    """

    def __init__(self, deployment):
        self.deployment = deployment

    # -- plumbing -------------------------------------------------------------

    @property
    def _n(self) -> int:
        return self.deployment.num_nodes

    def _call(self, target: int, handler: str, *args):
        return self.deployment.network.call(target, handler, *args)

    def _meta_owners(self, rel: str) -> list:
        view = self.deployment.view
        return replica_set(view.locate_metadata(rel), self.deployment.config.replication,
                           view.num_daemons)

    def _chunk_owners(self, rel: str, cid: int) -> list:
        view = self.deployment.view
        return replica_set(view.locate_chunk(rel, cid), self.deployment.config.replication,
                           view.num_daemons)

    # -- inventory ------------------------------------------------------------

    def _records(self, report: RepairReport) -> dict:
        """path → record over every reachable daemon (``prefer_record``)."""
        records: dict[str, bytes] = {}
        for address in range(self._n):
            fetch = functools.partial(self._call, address, "gkfs_inventory")
            try:
                for rel, record in read_records(fetch):
                    records[rel] = prefer_record(records.get(rel), record)
            except UNREACHABLE:
                report.unreachable.append(address)
        return records

    # -- repair passes --------------------------------------------------------

    def _ensure_record(self, rel: str, record: bytes, report: RepairReport):
        """Create ``record`` where it is missing; raise an understated
        size to ``record``'s (max-mode, so a racing write is kept)."""
        for owner in self._meta_owners(rel):
            try:
                held = self._call(owner, "gkfs_stat", rel)
            except NotFoundError:
                held = None
            except UNREACHABLE:
                report.unreachable.append(owner)
                continue
            if held is not None and prefer_record(held, record) is held:
                continue
            try:
                if held is None:
                    self._call(owner, "gkfs_create", rel, record, False)
                    report.records_restored += 1
                else:
                    size = record_head(record)[1]
                    self._call(owner, "gkfs_update_size", rel, size, False)
                    report.sizes_raised += 1
            except NotFoundError:
                continue  # unlinked since the stat: nothing to raise
            except UNREACHABLE:
                report.unreachable.append(owner)

    def _chunk_payload(self, source: int, rel: str, cid: int) -> bytes:
        """The source's whole chunk, proofs re-checked on receipt: a copy
        that rotted or was mangled on the way raises ``IntegrityError``
        instead of being restored over a healthy-but-stale owner."""
        return fetch_chunk(self._call, source, rel, cid, self.deployment.config)

    def _ensure_chunk(self, rel: str, cid: int, report: RepairReport) -> None:
        report.chunks_checked += 1
        digests: dict[int, Optional[dict]] = {}
        for owner in self._chunk_owners(rel, cid):
            try:
                digests[owner] = self._call(owner, "gkfs_chunk_digest", rel, cid)
            except IntegrityError:
                digests[owner] = None  # present but rotted: needs restore
            except UNREACHABLE:
                report.unreachable.append(owner)
        healthy = {
            owner: d for owner, d in digests.items()
            if d is not None and d["length"] > 0
        }
        if not healthy:
            return  # sparse chunk (or no surviving copy to restore from)
        source = max(healthy, key=lambda o: healthy[o]["length"])
        want = healthy[source]
        payload = None
        crc = None
        for owner, digest in digests.items():
            missing = digest is None or digest["length"] == 0
            shorter = (
                digest is not None and 0 < digest["length"] < want["length"]
            )
            if not missing and not shorter:
                continue  # healthy, or divergent-at-same-length (leave it)
            if payload is None:
                try:
                    payload = self._chunk_payload(source, rel, cid)
                except UNREACHABLE:
                    report.unreachable.append(source)
                    return  # no source this pass; the next one retries
                crc = chunk_checksum(
                    payload, 0, self.deployment.config.integrity_algorithm
                )
            # CAS guard: re-read the copy immediately before replacing.
            # The snapshot above is stale by now — a foreground write
            # landing on this owner in between makes the copy *newer*
            # than the source payload, and overwriting it would roll an
            # acked write back undetectably (the post-restore check
            # compares against the source digest, which the rollback
            # matches by construction).  Any change since the snapshot
            # skips this owner; the next pass re-evaluates.
            try:
                current = self._call(owner, "gkfs_chunk_digest", rel, cid)
            except IntegrityError:
                current = None
            except UNREACHABLE:
                report.unreachable.append(owner)
                continue
            if not _digest_unchanged(digest, current):
                report.chunks_skipped_racing += 1
                continue
            try:
                self._call(owner, "gkfs_replace_chunk", rel, cid, payload, crc)
                check = self._call(owner, "gkfs_chunk_digest", rel, cid)
            except UNREACHABLE:
                report.unreachable.append(owner)
                continue
            if check["digest"] != want["digest"]:
                raise IntegrityError(
                    f"restored chunk {cid} of {rel!r} on daemon {owner} "
                    f"fails digest verification"
                )
            report.chunks_restored += 1
            report.bytes_restored += len(payload)

    def resync_chunk(
        self, rel: str, cid: int, stale: int, attempts: int = 3, exclude=()
    ) -> str:
        """Push the authoritative copy of one chunk over a stale replica.

        Redundancy repair (:meth:`repair`) cannot arbitrate two healthy
        same-length copies — digests carry no order.  The *client* can:
        when a replicated write acks with one leg failed, the surviving
        leg is authoritative by construction and the failed leg is dirty.
        This method settles exactly that case: copy the chunk from the
        healthiest surviving owner onto ``stale``, digest-guarded, with
        bounded retries against racing foreground writes.

        Returns one of ``"converged"`` (copies already agree),
        ``"resynced"``, ``"gone"`` (file or chunk no longer exists),
        ``"no-source"`` (no surviving healthy copy to push),
        ``"unreachable"`` (the stale daemon is down — retry later), or
        ``"racing"`` (foreground writes kept moving the chunk; the
        caller should requeue).

        ``exclude`` removes further owners from source consideration —
        the other legs the same write lost, when replication > 2.
        """
        sources = [
            o for o in self._chunk_owners(rel, cid)
            if o != stale and o not in exclude
        ]
        if not sources:
            return "no-source"
        for _ in range(max(1, attempts)):
            try:
                mine = self._call(stale, "gkfs_chunk_digest", rel, cid)
            except NotFoundError:
                return "gone"
            except IntegrityError:
                mine = None  # rotted: any healthy source wins
            except UNREACHABLE:
                return "unreachable"
            healthy: dict[int, dict] = {}
            for owner in sources:
                try:
                    digest = self._call(owner, "gkfs_chunk_digest", rel, cid)
                except NotFoundError:
                    return "gone"
                except (IntegrityError,) + UNREACHABLE:
                    continue  # rotted or down: not a source
                if digest is not None and digest["length"] > 0:
                    healthy[owner] = digest
            if not healthy:
                return "no-source"
            source = max(healthy, key=lambda o: healthy[o]["length"])
            want = healthy[source]
            if mine is not None and mine["digest"] == want["digest"]:
                return "converged"
            try:
                payload = self._chunk_payload(source, rel, cid)
                crc = chunk_checksum(
                    payload, 0, self.deployment.config.integrity_algorithm
                )
                self._call(stale, "gkfs_replace_chunk", rel, cid, payload, crc)
                check = self._call(stale, "gkfs_chunk_digest", rel, cid)
            except NotFoundError:
                return "gone"
            except (IntegrityError,) + UNREACHABLE:
                # The source rotted or was mangled on the way, or a
                # daemon dropped out: nothing was installed; retry later.
                return "unreachable"
            if check["digest"] == want["digest"]:
                return "resynced"
            # A foreground write landed between copy and verify; loop.
        return "racing"

    def repair(self) -> RepairReport:
        """One full restore-redundancy pass over the namespace.

        Raises :class:`EpochMovedError` when a membership change commits
        underneath the pass — the caller (the supervisor) re-runs under
        the new placement.  Safe to run concurrently with foreground
        traffic: every restore is either create-if-absent or a
        whole-chunk replace CAS-guarded against the target having
        changed since the digest snapshot (a changed copy took a
        foreground write and is skipped, never overwritten).
        """
        report = RepairReport()
        report.epoch = before = self.deployment.view.epoch
        chunk_size = self.deployment.config.chunk_size
        for rel, record in sorted(self._records(report).items()):
            report.paths_seen += 1
            self._ensure_record(rel, record, report)
            is_dir, size = record_head(record)
            if is_dir:
                continue
            for cid in range(math.ceil(size / chunk_size)):
                self._ensure_chunk(rel, cid, report)
        after = self.deployment.view.epoch
        if after != before:
            raise EpochMovedError(
                f"membership epoch moved {before} -> {after} during repair"
            )
        return report
