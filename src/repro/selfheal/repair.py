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
4. for every file chunk, snapshot ``gkfs_chunk_digest`` across the
   desired owners at once (:func:`~repro.core.chunking.chunk_digests`):
   an owner with no payload, a shorter payload, or one whose integrity
   verification fails (bitrot) is restored from the longest healthy
   copy by :func:`~repro.core.chunking.copy_chunk` — ``read_chunks``
   from the source, then one ``replace_chunk`` that carries the
   snapshot digest, which the target compares, replaces and reads back
   under one store lock hold, so a foreground write that lands after
   the snapshot is never rolled back by the stale payload.  That step,
   :meth:`WireRepairer.restore_copy`, is how the repairer and the
   scrubber restore a bad replica.

The repairer restores *redundancy*, deliberately not *consensus*: two
healthy same-length divergent copies (a write raced the crash) are left
for the integrity plane's read-repair to settle — overwriting either
from here could lose an acked write.

What it tolerates is named: a daemon that fails with one of
:data:`~repro.common.errors.UNREACHABLE` (transport loss, crash, tripped
breaker) is listed in ``unreachable``; a source payload that fails its
proofs on the way is not restored this pass; any other error — a
programming error included — propagates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import UNREACHABLE, NotFoundError
from repro.core.chunking import chunk_digests, copy_chunk
from repro.core.daemon import read_records
from repro.core.distributor import replica_set
from repro.core.metadata import prefer_record, record_head

__all__ = ["WireRepairer", "RepairReport", "EpochMovedError"]


class EpochMovedError(RuntimeError):
    """The membership epoch advanced mid-repair; the pass must rerun."""


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

    def _call(self, target: int, handler: str, *args, **kwargs):
        return self.deployment.network.call(target, handler, *args, **kwargs)

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

    def _digests(self, rel: str, cid: int, owners, report: RepairReport) -> dict:
        """A digest snapshot of the reachable ``owners``' copies: owner →
        ``gkfs_chunk_digest`` reply, ``None`` when its copy fails
        verification (bitrot); an owner that cannot answer is listed
        unreachable."""
        got = chunk_digests(self.deployment.network.call_async,
                            [(owner, rel, cid) for owner in owners], tolerate=UNREACHABLE)
        digests = {key[0]: digest for key, digest in got.items()}
        report.unreachable += [owner for owner in owners if owner not in digests]
        return digests

    def _ensure_chunk(self, rel: str, cid: int, report: RepairReport) -> None:
        report.chunks_checked += 1
        digests = self._digests(rel, cid, self._chunk_owners(rel, cid), report)
        want = max((d["length"] for d in digests.values() if d is not None), default=0)
        if not want:
            return  # sparse chunk (or no surviving copy to restore from)
        for owner, digest in digests.items():
            # Missing, rotted or shorter: restore.  Healthy, or divergent
            # at the same length: leave it.
            if digest is None or digest["length"] < want:
                self.restore_copy(rel, cid, owner, digest, report, digests)

    def restore_copy(
        self,
        rel: str,
        cid: int,
        owner: int,
        seen: Optional[dict],
        report: RepairReport,
        digests: Optional[dict] = None,
    ) -> str:
        """Restore ``owner``'s copy of one chunk with the one chunk copy
        (:func:`~repro.core.chunking.copy_chunk`).

        ``seen`` is the owner's digest when its copy was judged (``None``:
        it failed verification); the source is the longest verified copy
        among the other owners (``digests``: the caller's snapshot of
        them, else one taken here).  Returns ``"restored"``, ``"racing"``
        (the copy took a write since ``seen``: nothing was installed),
        ``"no-source"`` or ``"unreachable"`` (a daemon dropped out, or the
        payload failed its proofs on the way; nothing was installed).
        """
        if digests is None:
            others = [o for o in self._chunk_owners(rel, cid) if o != owner]
            digests = self._digests(rel, cid, others, report)
        healthy = {
            o: d for o, d in digests.items()
            if o != owner and d is not None and d["length"] > 0
        }
        if not healthy:
            return "no-source"
        source = max(healthy, key=lambda o: healthy[o]["length"])
        copy = copy_chunk(self._call, owner, rel, cid, seen, self.deployment.config,
                          sources=(source,))
        if copy.outcome == "unreachable":
            if copy.source is not None:
                report.unreachable.append(owner)
            elif isinstance(copy.error, UNREACHABLE):
                report.unreachable.append(source)
        elif copy.outcome == "racing":
            report.chunks_skipped_racing += 1
        else:
            report.chunks_restored += 1
            report.bytes_restored += copy.size
        return copy.outcome

    def resync_chunk(
        self, rel: str, cid: int, stale: int, attempts: int = 3, exclude=()
    ) -> str:
        """Push the authoritative copy of one chunk over a stale replica.

        Redundancy repair (:meth:`repair`) cannot arbitrate two healthy
        same-length copies — digests carry no order.  The *client* can:
        when a replicated write acks with one leg failed, the surviving
        leg is authoritative by construction and the failed leg is dirty.
        This method settles exactly that case: copy the chunk from the
        healthiest surviving owner onto ``stale`` (:meth:`restore_copy`),
        with bounded retries against racing foreground writes.

        Returns one of ``"converged"`` (copies already agree),
        ``"resynced"``, ``"gone"`` (file or chunk no longer exists),
        ``"no-source"`` (no surviving healthy copy to push),
        ``"unreachable"`` (a daemon is down, or the source's payload
        failed its proofs on the way — retry later), or
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
        report = RepairReport()
        try:
            for _ in range(max(1, attempts)):
                digests = self._digests(rel, cid, [stale, *sources], report)
                if stale not in digests:
                    return "unreachable"
                mine = digests.pop(stale)
                healthy = [d for d in digests.values() if d is not None and d["length"] > 0]
                if not healthy:
                    return "no-source"
                want = max(healthy, key=lambda d: d["length"])
                if mine is not None and mine["digest"] == want["digest"]:
                    return "converged"
                outcome = self.restore_copy(rel, cid, stale, mine, report, digests)
                if outcome != "racing":  # else a foreground write moved it: loop
                    return "resynced" if outcome == "restored" else outcome
        except NotFoundError:
            return "gone"
        return "racing"

    def repair(self) -> RepairReport:
        """One full restore-redundancy pass over the namespace.

        Raises :class:`EpochMovedError` when a membership change commits
        underneath the pass — the caller (the supervisor) re-runs under
        the new placement.  Safe to run concurrently with foreground
        traffic: every restore is either create-if-absent or a
        whole-chunk replace the target refuses when its copy changed
        since the digest snapshot (a changed copy took a foreground
        write and is skipped, never overwritten).
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
