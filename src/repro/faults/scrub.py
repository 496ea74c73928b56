"""Background scrubbing: find silent corruption before a read does.

Checksums only protect the data an application happens to read; cold
chunks rot undetected until the campaign that needs them.  The scrubber
closes that window — the software analogue of the patrol reads an
enterprise RAID controller schedules — as a pure wire client, so it
patrols any deployment a client can mount.  It lists each live daemon's
chunks through ``gkfs_inventory`` (skipping a daemon it cannot reach),
verifies each at a bounded rate with one ``gkfs_chunk_digest``
(``IntegrityError``: rot, torn write, lost sidecar), and restores a
corrupt copy through the repairer
(:meth:`~repro.selfheal.repair.WireRepairer.restore_copy`, the one chunk
copy); a copy a foreground write healed since it was judged is refused
by its daemon and left as it is.  A copy with no
verified source anywhere is *quarantined* by ``gkfs_quarantine_chunk``,
which fences it only if it still fails verification: verified reads of
it then fail loudly (``EIO``) instead of serving plausible garbage, and
:mod:`repro.core.fsck` surfaces it in the damage report.  What each
daemon saw is its own ``integrity.*`` metrics.

One :meth:`Scrubber.run` call is one full pass; the
:meth:`Scrubber.start`/:meth:`Scrubber.stop` pair runs passes on an
interval from a background thread, rate-limited so a scrub never
competes seriously with foreground I/O.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.common.errors import UNREACHABLE, IntegrityError
from repro.core.daemon import read_chunks
from repro.selfheal.repair import RepairReport, WireRepairer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import Deployment

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

    :param deployment: the live deployment to patrol — its ``network``,
        ``view``, ``config`` and live addresses.
    :param rate_limit: maximum chunks verified per second across the
        pass; ``None`` scrubs flat out.
    :param sleep: pacing hook — injectable so tests can run a "slow"
        scrub in zero wall-clock time.
    """

    def __init__(
        self,
        deployment: "Deployment",
        rate_limit: Optional[float] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if rate_limit is not None and rate_limit <= 0:
            raise ValueError(f"rate_limit must be > 0, got {rate_limit}")
        self.deployment = deployment
        self.repairer = WireRepairer(deployment)
        self.rate_limit = rate_limit
        self._sleep = sleep
        self.last_report: Optional[ScrubReport] = None
        self.passes = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- one pass ----------------------------------------------------------

    def run(self) -> ScrubReport:
        """One full pass over every live daemon (none without integrity)."""
        report = ScrubReport()
        if self.deployment.config.integrity_enabled:
            for address in self.deployment.live_addresses():
                self.scrub_daemon(address, report)
        self.passes += 1
        self.last_report = report
        return report

    def scrub_daemon(
        self, address: int, report: Optional[ScrubReport] = None
    ) -> ScrubReport:
        """Verify every chunk one daemon holds, repairing failures.

        The chunk listing is snapshotted up front; chunks written or
        removed mid-scrub are the next pass's problem (patrol reads are
        eventually-complete, not atomic).  A daemon that drops out ends
        its part of the pass.
        """
        report = report if report is not None else ScrubReport()
        stats = report.per_daemon.setdefault(
            address, {"scanned": 0, "corrupt": 0, "repaired": 0, "unrepairable": 0}
        )
        call = self.deployment.network.call
        try:
            fetch = functools.partial(call, address, "gkfs_inventory")
            targets = [entry[:2] for entry in read_chunks(fetch)]
            for path, chunk_id in targets:
                self._pace()
                report.chunks_scanned += 1
                stats["scanned"] += 1
                try:
                    call(address, "gkfs_chunk_digest", path, chunk_id)
                    continue  # verified
                except IntegrityError:
                    report.corrupt_found += 1
                    stats["corrupt"] += 1
                outcome = self.repairer.restore_copy(
                    path, chunk_id, address, None, RepairReport()
                )
                if outcome == "restored":
                    report.repaired += 1
                    stats["repaired"] += 1
                    self._note("integrity.scrub.repair", address, path, chunk_id)
                elif outcome == "no-source" and call(
                    address, "gkfs_quarantine_chunk", path, chunk_id
                ):
                    report.unrepairable += 1
                    stats["unrepairable"] += 1
                    report.quarantined.append((address, path, chunk_id))
                    self._note("integrity.scrub.quarantine", address, path, chunk_id)
        except UNREACHABLE:
            pass  # down: its copies wait for the next pass
        return report

    # -- internals ---------------------------------------------------------

    def _pace(self) -> None:
        if self.rate_limit is not None:
            self._sleep(1.0 / self.rate_limit)

    def _note(self, name: str, address: int, path: str, chunk_id: int) -> None:
        collector = self.deployment.trace_collector
        if collector is not None:
            collector.instant(name, "integrity", daemon=address, path=path,
                              chunk_id=chunk_id)

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
