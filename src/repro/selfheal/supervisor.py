"""The repair supervisor: detector verdicts in, hands-free repairs out.

Subscribes to three evidence streams —

* :class:`~repro.selfheal.detector.PhiAccrualDetector` transitions (the
  authoritative condemn signal),
* pushed SLO page-alerts (:meth:`~repro.telemetry.slo.SloEngine.add_sink`),
* flight-recorder terminal stamps on disk (a crashed daemon's black box
  names its end even when no probe was looking) —

and drives a **restart-first escalation ladder** over the cluster:

1. **restart** — ``restart_daemon(address, recover=False)``: respawn the
   dead daemon under the same identity (same dirs: a durable KV replays
   its WAL), then one wire repair pass restores whatever redundancy died
   with the volatile state (no fsck garbage collection: clients are
   still writing);
2. **replace** — after ``max_restarts`` condemnations inside
   ``flap_window`` seconds (flap damping: a daemon that keeps dying is
   not worth restarting), ``replace_daemon(address)``: wipe its node
   dirs, respawn blank, restore everything from replicas in its one
   repair pass.

The supervisor drives the deployment only through those verbs,
``crash_daemon`` (a hung daemon is force-killed before it respawns),
``daemon_alive`` and the wire, so it runs the same on every node
substrate.

Safety rails, because an over-eager repairer is worse than none:

* **single-concurrent-repair interlock** — one repair at a time,
  cluster-wide; with replication R the deployment survives R-1 losses,
  so repairing serially never drops below the survivable floor on its
  own initiative;
* **cooldown ledger** — per-daemon exponential backoff between repair
  attempts (``backoff_base * 2^attempts``, capped), so a repair loop
  cannot hammer a node that dies on arrival;
* **epoch safety** — repairs run through :class:`WireRepairer`, which
  verifies the membership epoch did not move mid-pass and re-runs once
  under the new placement when it did (the abort path of a concurrent
  live migration keeps its bumped epoch; stamping the *current* view
  epoch keeps the repair from racing it).

Every decision is journaled (:attr:`journal`, plain dicts with
timestamps), counted as ``selfheal.*`` metrics, and — when a trace
collector is attached — emitted as ``selfheal.*`` instant events.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import deque
from typing import Callable, List, Optional

from repro.selfheal.detector import CONDEMNED, PhiAccrualDetector
from repro.selfheal.repair import EpochMovedError, WireRepairer
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["Supervisor"]

#: Flight-dump reasons that do not indicate daemon death.
_BENIGN_STAMPS = frozenset({"periodic", "shutdown"})


class Supervisor:
    """Autonomous crash repair over a live cluster.

    :param cluster: the :class:`~repro.core.cluster.Deployment` to keep
        whole.
    :param detector: the detector to subscribe to; the supervisor owns
        its poll cadence when run as a thread (:meth:`start`).
    :param max_restarts: condemnations within ``flap_window`` before the
        ladder escalates from restart to wipe-and-replace.
    :param flap_window: seconds of condemnation history that count
        toward flap damping.
    :param backoff_base: first inter-repair cooldown; doubles per
        attempt up to ``backoff_max``.
    :param repairer: override the redundancy restorer (tests).
    :param collector: optional trace collector for ``selfheal.*``
        instants.
    :param clock: injectable monotonic clock.
    """

    def __init__(
        self,
        cluster,
        detector: PhiAccrualDetector,
        *,
        max_restarts: int = 2,
        flap_window: float = 60.0,
        backoff_base: float = 0.25,
        backoff_max: float = 8.0,
        repairer: Optional[WireRepairer] = None,
        collector=None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.cluster = cluster
        self.detector = detector
        self.max_restarts = max_restarts
        self.flap_window = flap_window
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.repairer = repairer or WireRepairer(cluster)
        self.collector = collector
        self.clock = clock
        self.metrics = MetricsRegistry()
        self.journal: List[dict] = []
        self._journal_lock = threading.Lock()
        self._repair_lock = threading.Lock()  # the single-repair interlock
        self._pending: deque = deque()
        self._pending_lock = threading.Lock()
        self._ledger: dict[int, dict] = {}
        self._clients: List = []
        self._resync_backlog: dict = {}
        self._seen_stamps: set = set()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        detector.add_listener(self._on_transition)

    # -- evidence intake ------------------------------------------------------

    def _journal_event(self, event: str, **fields) -> dict:
        entry = {"t": self.clock(), "event": event, **fields}
        with self._journal_lock:
            self.journal.append(entry)
        if self.collector is not None:
            self.collector.instant(f"selfheal.{event}", "selfheal", **{
                k: v for k, v in fields.items()
                if isinstance(v, (str, int, float, bool, type(None)))
            })
        return entry

    def _on_transition(self, address, old, new, evidence) -> None:
        self.metrics.inc(f"selfheal.transitions.{new}")
        self._journal_event(
            "transition", address=address, old=old, new=new,
            classification=evidence.get("classification"),
            phi=evidence.get("phi"),
        )
        if new == CONDEMNED:
            self.metrics.inc("selfheal.condemned")
            with self._pending_lock:
                if address not in [a for a, _ in self._pending]:
                    self._pending.append((address, self.clock()))

    def on_slo_alert(self, alert: dict) -> None:
        """Push-mode SLO sink: journal the page and sharpen attention.

        Burn alerts are *advisory* here — a paging SLO means the cluster
        is hurting, so the run loop polls immediately instead of waiting
        out its interval, but only the detector (with corroboration) may
        condemn.
        """
        self.metrics.inc("selfheal.slo_alerts")
        self._journal_event(
            "slo_alert",
            slo=alert.get("slo"),
            severity=alert.get("severity"),
            daemon=alert.get("daemon_id"),
        )

    def scan_flight_stamps(self) -> int:
        """Harvest terminal flight-recorder stamps as crash evidence."""
        directory = self.cluster.config.flight_recorder_dir
        if directory is None:
            return 0
        from repro.telemetry.flightrecorder import (
            find_flight_dumps,
            load_flight_dump,
        )

        fresh = 0
        try:
            paths = find_flight_dumps(directory)
        except OSError:
            return 0
        for path in paths:
            try:
                payload = load_flight_dump(path)
            except (OSError, ValueError):
                continue  # torn mid-write, or not a flight dump
            reason = payload.get("reason")
            key = (path, reason, payload.get("flushes"))
            if reason in _BENIGN_STAMPS or key in self._seen_stamps:
                continue
            self._seen_stamps.add(key)
            fresh += 1
            self.metrics.inc("selfheal.flight_stamps")
            self._journal_event(
                "flight_stamp",
                daemon=payload.get("daemon_id"),
                reason=reason,
            )
        return fresh

    # -- the escalation ladder ------------------------------------------------

    def _ledger_entry(self, address: int) -> dict:
        entry = self._ledger.get(address)
        if entry is None:
            entry = self._ledger[address] = {
                "attempts": 0,
                "next_allowed": 0.0,
                "condemnations": deque(maxlen=32),
            }
        return entry

    def repair(self, address: int, detected_at: Optional[float] = None) -> dict:
        """Run the ladder for one condemned daemon; returns the journal
        entry describing the outcome.  Serialised by the interlock."""
        with self._repair_lock:
            return self._repair_locked(
                address, self.clock() if detected_at is None else detected_at
            )

    def _repair_locked(self, address: int, detected_at: float) -> dict:
        now = self.clock()
        ledger = self._ledger_entry(address)
        if now < ledger["next_allowed"]:
            self.metrics.inc("selfheal.deferred")
            return self._journal_event(
                "repair_deferred", address=address,
                until=ledger["next_allowed"],
            )
        ledger["condemnations"].append(now)
        recent = [
            t for t in ledger["condemnations"] if now - t <= self.flap_window
        ]
        escalate = len(recent) > self.max_restarts
        action = "replace" if escalate else "restart"
        backoff = min(
            self.backoff_base * (2 ** ledger["attempts"]), self.backoff_max
        )
        ledger["attempts"] += 1
        ledger["next_allowed"] = now + backoff
        epoch = self.cluster.view.epoch
        self._journal_event(
            "repair_start", address=address, action=action,
            attempt=ledger["attempts"], backoff=backoff, epoch=epoch,
        )
        try:
            repair_report = self._execute(address, action)
        except Exception as exc:
            self.metrics.inc("selfheal.repairs_failed")
            return self._journal_event(
                "repair_failed", address=address, action=action,
                error=f"{type(exc).__name__}: {exc}",
            )
        self.detector.clear(address)
        self.metrics.inc("selfheal.repairs_ok")
        self.metrics.inc(f"selfheal.{action}s")
        completed = self.clock()
        return self._journal_event(
            "repair_complete", address=address, action=action,
            detected_at=detected_at, completed_at=completed,
            mttr=completed - detected_at, epoch=epoch,
            restored=repair_report,
        )

    def _execute(self, address: int, action: str) -> dict:
        """One rung: make the daemon exist again (restart or replace) and
        restore redundancy — one repair pass either way."""
        if self.cluster.daemon_alive(address):
            # Hung, not dead (SIGSTOP): a stopped process cannot drain —
            # force-kill before the respawn, which requires death.
            self.cluster.crash_daemon(address)
            self._journal_event("force_kill", address=address)
        if action == "replace":
            first = functools.partial(self.cluster.replace_daemon, address)
        else:
            self.cluster.restart_daemon(address, recover=False)
            first = self.repairer.repair
        try:
            return first().as_dict()
        except EpochMovedError:
            # A membership change committed underneath: once more under it.
            self.metrics.inc("selfheal.epoch_retries")
            self._journal_event("repair_epoch_retry")
            return self.repairer.repair().as_dict()

    # -- dirty-replica resync -------------------------------------------------

    #: Resync attempts per dirty mark before it is abandoned (attempts
    #: are only charged while the stale daemon is up — a mark held
    #: through an outage waits for the repair, it does not expire).
    RESYNC_ATTEMPTS = 50

    def register_client(self, client) -> None:
        """Drain ``client.data.dirty_replicas`` every step.

        Replicated writes ack with one surviving leg; the legs that
        failed hold stale data no digest comparison can arbitrate (two
        healthy same-length copies carry no order).  The client *knows*
        which leg missed the write, so its ledger is ground truth: the
        supervisor drains it and pushes the authoritative copy over
        each stale replica (:meth:`WireRepairer.resync_chunk`).
        """
        self._clients.append(client)

    def resync_pending(self) -> int:
        """Dirty marks not yet settled (backlog + undrained ledgers)."""
        return len(self._resync_backlog) + sum(
            len(client.data.dirty_replicas) for client in self._clients
        )

    def _resync_dirty(self) -> int:
        """Drain dirty-replica ledgers and settle divergence.

        Every target holding a mark for a chunk is dirty.  Writes can
        span *part* of a chunk, so a later write's surviving legs did
        not necessarily take an earlier write's bytes — marks are never
        superseded across targets (per target, a newer mark replaces an
        older one: a single whole-chunk resync settles both).  All dirty
        targets are excluded from source consideration for that chunk;
        if no clean leg survives, the resync reports ``no-source`` and
        retries rather than copying from a stale leg.  Unreachable or
        racing targets go back to the backlog.
        """
        marks: dict = dict(self._resync_backlog)
        self._resync_backlog = {}
        for client in self._clients:
            for key, seq in client.data.drain_dirty_replicas():
                held = marks.get(key)
                if held is None or held["seq"] < seq:
                    marks[key] = {"seq": seq, "attempts": 0}
                    if held is not None:
                        marks[key]["attempts"] = held["attempts"]
        if not marks:
            return 0
        groups: dict = {}
        for (rel, cid, target), entry in marks.items():
            groups.setdefault((rel, cid), {})[target] = entry
        settled = 0
        with self._repair_lock:
            for (rel, cid), targets in groups.items():
                dirty = set(targets)
                for target in dirty:
                    entry = targets[target]
                    down = (
                        self.detector.state(target) == CONDEMNED
                        or not self.cluster.daemon_alive(target)
                    )
                    if down:
                        # Hold without charging an attempt: the repair
                        # ladder owns bringing the daemon back first.
                        self._resync_backlog[(rel, cid, target)] = entry
                        continue
                    status = self.repairer.resync_chunk(
                        rel, cid, target, exclude=dirty - {target}
                    )
                    self.metrics.inc(f"selfheal.resyncs.{status}")
                    if status in ("unreachable", "racing", "no-source"):
                        entry["attempts"] += 1
                        if entry["attempts"] >= self.RESYNC_ATTEMPTS:
                            self.metrics.inc("selfheal.resyncs.abandoned")
                            self._journal_event(
                                "resync_abandoned", rel=rel, chunk=cid,
                                target=target, status=status,
                            )
                        else:
                            self._resync_backlog[(rel, cid, target)] = entry
                        continue
                    settled += 1
                    if status == "resynced":
                        self._journal_event(
                            "resync", rel=rel, chunk=cid, target=target,
                        )
        return settled

    def pending_repairs(self) -> int:
        with self._pending_lock:
            return len(self._pending)

    @property
    def busy(self) -> bool:
        """A repair is queued or running right now."""
        return self._repair_lock.locked() or self.pending_repairs() > 0

    # -- run loop -------------------------------------------------------------

    #: Repair outcomes that leave the daemon condemned-but-unrepaired.
    _UNSETTLED = frozenset({"repair_deferred", "repair_failed"})

    def step(self) -> int:
        """One supervision beat: poll, harvest stamps, drain repairs.

        A repair that comes back deferred (cooldown ledger) or failed
        stays in the pending queue: ``detector.poll()`` never re-emits
        a transition for an already-CONDEMNED track, so this queue is
        the only retry path — dropping the address would strand the
        daemon condemned and the cluster under-replicated forever.
        Returns the number of repairs *settled* this beat.
        """
        self.detector.poll()
        self.scan_flight_stamps()
        drained = 0
        requeue = []
        while True:
            with self._pending_lock:
                if not self._pending:
                    break
                address, detected_at = self._pending.popleft()
            outcome = self.repair(address, detected_at=detected_at)
            if outcome.get("event") in self._UNSETTLED:
                requeue.append((address, detected_at))
            else:
                drained += 1
        if requeue:
            with self._pending_lock:
                queued = {a for a, _ in self._pending}
                for address, detected_at in requeue:
                    if address not in queued:
                        self._pending.append((address, detected_at))
        self._resync_dirty()
        return drained

    def _run(self, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                self.step()
            except Exception as exc:  # survive anything; journal it
                self.metrics.inc("selfheal.loop_errors")
                self._journal_event(
                    "loop_error", error=f"{type(exc).__name__}: {exc}"
                )

    def start(self, interval: float = 0.25) -> "Supervisor":
        """Run supervision on a daemon thread every ``interval`` seconds."""
        if self._thread is not None:
            raise RuntimeError("supervisor already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, args=(interval,), daemon=True,
            name="gkfs-selfheal",
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=30.0)

    # -- reporting ------------------------------------------------------------

    def repairs(self) -> List[dict]:
        """Completed repairs, oldest first."""
        with self._journal_lock:
            return [e for e in self.journal if e["event"] == "repair_complete"]

    def report(self) -> dict:
        with self._journal_lock:
            journal = list(self.journal)
        return {
            "repairs": [e for e in journal if e["event"] == "repair_complete"],
            "failures": [e for e in journal if e["event"] == "repair_failed"],
            "condemned": self.metrics.counter("selfheal.condemned"),
            "restarts": self.metrics.counter("selfheal.restarts"),
            "replaces": self.metrics.counter("selfheal.replaces"),
            "resyncs": self.metrics.counter("selfheal.resyncs.resynced"),
            "partitions_detected": self.detector.partitions_detected,
            "journal": journal,
        }
