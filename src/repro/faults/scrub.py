"""Background scrubbing: find silent corruption before a read does.

Checksums only protect the data an application happens to read; cold
chunks rot undetected until the campaign that needs them.  The scrubber
closes that window: it lists every live daemon's chunks through the
daemon's own inventory (the listing ``gkfs_inventory`` serves, called
in process), re-verifies each at a bounded rate against its stored
digests, and repairs what fails from a verified surviving replica in
the chunk's successor replica set.  A corrupt chunk with no verified
replica anywhere is *quarantined*: the storage layer fails subsequent
verified reads for it loudly (``EIO``) instead of serving plausible
garbage, and :mod:`repro.core.fsck` surfaces it in the damage report.

Verification, repair and quarantine run on the management plane
(direct daemon access), not over client RPC — a deployment maintenance
task, the software analogue of the patrol reads an enterprise RAID
controller schedules.  One :meth:`Scrubber.run` call is one full pass;
the :meth:`Scrubber.start`/:meth:`Scrubber.stop` pair runs passes on an
interval from a background thread, rate-limited so a scrub never
competes seriously with foreground I/O.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.daemon import read_chunks
from repro.core.distributor import replica_set

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import GekkoFSCluster
    from repro.core.daemon import GekkoDaemon

__all__ = ["ScrubReport", "Scrubber"]


@dataclass
class ScrubReport:
    """Findings and actions of one full scrub pass."""

    #: Chunks whose digests were re-verified this pass.
    chunks_scanned: int = 0
    #: Chunks that failed verification (rot, torn write, lost sidecar).
    corrupt_found: int = 0
    #: Corrupt chunks rewritten in place from a verified replica.
    repaired: int = 0
    #: Corrupt chunks with no verified replica anywhere.
    unrepairable: int = 0
    #: ``(daemon, path, chunk_id)`` newly quarantined this pass.
    quarantined: list[tuple[int, str, int]] = field(default_factory=list)
    #: Per-daemon breakdown: ``{address: {"scanned": n, "corrupt": n,
    #: "repaired": n, "unrepairable": n}}``.
    per_daemon: dict[int, dict[str, int]] = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        """Did this pass leave no known-corrupt, repairable chunk behind?"""
        return self.repaired == self.corrupt_found and self.unrepairable == 0

    def as_dict(self) -> dict:
        """Plain-JSON damage report (CI artifact / ``repro scrub``)."""
        return {
            "chunks_scanned": self.chunks_scanned,
            "corrupt_found": self.corrupt_found,
            "repaired": self.repaired,
            "unrepairable": self.unrepairable,
            "quarantined": [list(entry) for entry in self.quarantined],
            "per_daemon": {str(k): dict(v) for k, v in self.per_daemon.items()},
        }

    def __str__(self) -> str:
        status = "converged" if self.converged else "DAMAGED"
        return (
            f"scrub: {status} — {self.chunks_scanned} chunks scanned, "
            f"{self.corrupt_found} corrupt, {self.repaired} repaired, "
            f"{self.unrepairable} unrepairable "
            f"({len(self.quarantined)} quarantined)"
        )


class Scrubber:
    """Rate-limited verify-and-repair walker over a deployment.

    :param cluster: the live deployment to patrol.
    :param rate_limit: maximum chunks verified per second across the
        pass; ``None`` scrubs flat out.
    :param sleep: pacing hook — injectable so tests can run a "slow"
        scrub in zero wall-clock time.
    """

    def __init__(
        self,
        cluster: "GekkoFSCluster",
        rate_limit: Optional[float] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if rate_limit is not None and rate_limit <= 0:
            raise ValueError(f"rate_limit must be > 0, got {rate_limit}")
        self.cluster = cluster
        self.rate_limit = rate_limit
        self._sleep = sleep
        self.last_report: Optional[ScrubReport] = None
        self.passes = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- one pass ----------------------------------------------------------

    def run(self) -> ScrubReport:
        """One full pass over every live, integrity-enabled daemon."""
        report = ScrubReport()
        for daemon in self.cluster.live_daemons():
            if daemon.storage.integrity:
                self.scrub_daemon(daemon.address, report)
        self.passes += 1
        self.last_report = report
        return report

    def scrub_daemon(
        self, address: int, report: Optional[ScrubReport] = None
    ) -> ScrubReport:
        """Verify every chunk one daemon holds, repairing failures.

        The chunk listing is snapshotted up front; chunks written or
        removed mid-scrub are the next pass's problem (patrol reads are
        eventually-complete, not atomic).
        """
        report = report if report is not None else ScrubReport()
        daemon = self.cluster.daemons[address]
        stats = report.per_daemon.setdefault(
            address, {"scanned": 0, "corrupt": 0, "repaired": 0, "unrepairable": 0}
        )
        targets = [entry[:2] for entry in read_chunks(daemon.inventory)]
        for path, chunk_id in targets:
            self._pace()
            report.chunks_scanned += 1
            stats["scanned"] += 1
            daemon.metrics.inc("integrity.scrub.chunks_scanned")
            if daemon.storage.verify_chunk(path, chunk_id):
                continue
            report.corrupt_found += 1
            stats["corrupt"] += 1
            daemon.metrics.inc("integrity.scrub.corrupt_found")
            if self._repair(daemon, path, chunk_id):
                report.repaired += 1
                stats["repaired"] += 1
                daemon.metrics.inc("integrity.scrub.repaired")
            else:
                report.unrepairable += 1
                stats["unrepairable"] += 1
                daemon.metrics.inc("integrity.scrub.unrepairable")
                daemon.storage.quarantine_chunk(path, chunk_id)
                report.quarantined.append((address, path, chunk_id))
                self._note(
                    "integrity.scrub.quarantine",
                    daemon=address,
                    path=path,
                    chunk_id=chunk_id,
                )
                if daemon.flight_recorder is not None:
                    # Quarantine is a terminal-enough event to warrant a
                    # black-box snapshot of what led up to it.
                    try:
                        daemon.flight_recorder.dump(
                            "quarantine", path=path, chunk_id=chunk_id
                        )
                    except OSError:
                        pass
        return report

    # -- internals ---------------------------------------------------------

    def _repair(self, daemon: "GekkoDaemon", path: str, chunk_id: int) -> bool:
        """Rewrite one corrupt chunk from a verified replica, if any.

        Walks the chunk's successor replica set (minus the damaged
        holder) and takes the first copy that verifies against *its*
        stored digests — a corrupt replica must never be the repair
        source.  ``replace_chunk`` re-checksums and lifts quarantine.
        """
        cluster = self.cluster
        primary = cluster.distributor.locate_chunk(path, chunk_id)
        for peer_address in replica_set(
            primary, cluster.config.replication, cluster.num_nodes
        ):
            if peer_address == daemon.address:
                continue
            if not cluster.daemon_alive(peer_address):
                continue
            peer = cluster.daemons[peer_address]
            if not peer.storage.integrity:
                continue
            data = peer.storage.verified_payload(path, chunk_id)
            if not data:
                continue
            daemon.storage.replace_chunk(path, chunk_id, data)
            self._note(
                "integrity.scrub.repair",
                daemon=daemon.address,
                source=peer_address,
                path=path,
                chunk_id=chunk_id,
            )
            return True
        return False

    def _pace(self) -> None:
        if self.rate_limit is not None:
            self._sleep(1.0 / self.rate_limit)

    def _note(self, name: str, **fields) -> None:
        collector = self.cluster.trace_collector
        if collector is not None:
            collector.instant(name, "integrity", **fields)

    # -- background operation ----------------------------------------------

    def start(self, interval: float) -> None:
        """Run a pass every ``interval`` seconds on a background thread."""
        if self._thread is not None:
            raise RuntimeError("scrubber already running")
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                self.run()
                self._stop.wait(interval)

        self._thread = threading.Thread(target=loop, name="gkfs-scrubber", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the background loop, waiting for the in-flight pass."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
