"""Per-daemon health tracking and circuit breaking (client side).

The paper's GekkoFS keeps no liveness state about daemons: a crashed
daemon (§I punts on fault tolerance) makes every client that addresses
it pay the full RPC timeout, again and again.  This module is the
production-hardening answer: :class:`DaemonHealthTracker` watches
delivery outcomes per daemon address and drives a classic three-state
circuit breaker, which :class:`~repro.rpc.transport.RetryingTransport`
(``tracker=``) enforces on the wire path — requests to a daemon whose
breaker is *open* fail immediately with
:class:`~repro.common.errors.DaemonUnavailableError` (``EIO``) instead of
burning the retry budget.

Breaker states per daemon::

    CLOSED ──(failure_threshold consecutive delivery failures)──▶ OPEN
    OPEN ──(cooldown elapsed; one probe request allowed)──▶ HALF_OPEN
    HALF_OPEN ──probe succeeds──▶ CLOSED      (recovery)
    HALF_OPEN ──probe fails──▶ OPEN           (cooldown restarts)

Only *transport-level* failures (connection loss, timeout, unknown
address) count against health.  GekkoFS semantic errors — ``ENOENT``
from a stat, ``EEXIST`` from a create — are successful deliveries: the
daemon answered, so they *reset* the failure streak.

The tracker is also the telemetry surface: breaker trips, fast-fails,
probes and recoveries are counted, and :meth:`DaemonHealthTracker
.snapshot` exports a per-daemon health gauge for experiment reports.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "DaemonHealthTracker",
]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class _DaemonHealth:
    """Mutable breaker state for one daemon address."""

    __slots__ = ("state", "failures", "successes", "total_failures", "opened_at")

    def __init__(self):
        self.state = CLOSED
        self.failures = 0  # consecutive failure streak
        self.successes = 0
        self.total_failures = 0
        self.opened_at = 0.0


class DaemonHealthTracker:
    """Track per-daemon delivery outcomes and gate requests.

    :param failure_threshold: consecutive delivery failures that trip the
        breaker for a daemon.
    :param cooldown: seconds an open breaker blocks traffic before one
        half-open probe is allowed through.
    :param clock: injectable monotonic clock (tests drive it manually).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        #: Per-daemon breaker state; changed under the lock, read without.
        self.daemons: Dict[int, _DaemonHealth] = {}
        self._probing: set[int] = set()
        #: True while every known daemon is CLOSED with no failure streak.
        #: Hot-path callers (the fused retry transport) read this one
        #: attribute to skip both the gate and the streak-reset work on a
        #: healthy cluster; it flips False on the first recorded failure.
        self.all_clear = True
        self.trips = 0
        self.fast_fails = 0
        self.probes = 0
        self.recoveries = 0
        #: Optional ``fn(address, old_state, new_state, reason)`` invoked
        #: after every breaker state transition (outside the tracker
        #: lock).  The observability plane hooks this to emit health
        #: events into the shared trace timeline.
        self.listener: Optional[Callable[[int, str, str, str], None]] = None
        #: SLO burn-rate alerts surfaced by the observer, newest last
        #: (bounded).  Orthogonal to the breaker: an alert never gates
        #: traffic, it only makes "the cluster is burning budget" visible
        #: wherever health is already being watched.
        self.slo_alerts: list = []
        self._slo_alert_cap = 64

    def _notify(self, transitions: list) -> None:
        """Deliver queued transitions to the listener, outside the lock."""
        listener = self.listener
        if listener is None or not transitions:
            return
        for address, old_state, new_state, reason in transitions:
            listener(address, old_state, new_state, reason)

    def _health(self, address: int) -> _DaemonHealth:
        health = self.daemons.get(address)
        if health is None:
            health = self.daemons[address] = _DaemonHealth()
        return health

    # -- gate ----------------------------------------------------------------

    def allow(self, address: int) -> bool:
        """May a request to ``address`` go on the wire right now?

        Open breakers admit exactly one probe once the cooldown has
        elapsed (moving to half-open); every other request is refused
        until the probe's outcome is recorded.
        """
        # Lock-free happy path: a closed breaker admits everything.  The
        # benign race (state flips open under our feet) lets at most one
        # extra request onto the wire — indistinguishable from it having
        # been issued a moment earlier.
        health = self.daemons.get(address)
        if health is not None and health.state == CLOSED:
            return True
        transitions: list = []
        try:
            with self._lock:
                health = self._health(address)
                if health.state == CLOSED:
                    return True
                if health.state == OPEN:
                    if (
                        self._clock() - health.opened_at >= self.cooldown
                        and address not in self._probing
                    ):
                        health.state = HALF_OPEN
                        self._probing.add(address)
                        self.probes += 1
                        transitions.append((address, OPEN, HALF_OPEN, "probe"))
                        return True
                    self.fast_fails += 1
                    return False
                # HALF_OPEN: the single probe is already in flight.
                self.fast_fails += 1
                return False
        finally:
            self._notify(transitions)

    # -- outcome reporting ---------------------------------------------------

    def record_success(self, address: int) -> None:
        """A delivery to ``address`` completed (any handler result).  The
        retry layer's settle stage counts a healthy daemon's success itself,
        unlocked (it may under-count by one), and calls this for the rest."""
        transitions: list = []
        with self._lock:
            health = self._health(address)
            health.successes += 1
            health.failures = 0
            if health.state != CLOSED:
                self.recoveries += 1
                transitions.append((address, health.state, CLOSED, "recovered"))
            health.state = CLOSED
            self._probing.discard(address)
            self._recompute_all_clear()
        self._notify(transitions)

    def _recompute_all_clear(self) -> None:
        """Caller holds the lock.  O(daemons), only on rare transitions."""
        self.all_clear = all(
            health.state == CLOSED and health.failures == 0
            for health in self.daemons.values()
        )

    def record_failure(self, address: int) -> None:
        """A delivery to ``address`` failed at the transport level."""
        transitions: list = []
        with self._lock:
            self.all_clear = False
            health = self._health(address)
            health.failures += 1
            health.total_failures += 1
            if health.state == HALF_OPEN:
                # Probe failed: reopen and restart the cooldown.
                health.state = OPEN
                health.opened_at = self._clock()
                self._probing.discard(address)
                transitions.append((address, HALF_OPEN, OPEN, "probe_failed"))
            elif health.state == CLOSED and health.failures >= self.failure_threshold:
                health.state = OPEN
                health.opened_at = self._clock()
                self.trips += 1
                transitions.append((address, CLOSED, OPEN, "tripped"))
        self._notify(transitions)

    def reset(self, address: int) -> None:
        """Forget everything about ``address`` (daemon restarted clean)."""
        transitions: list = []
        with self._lock:
            health = self.daemons.pop(address, None)
            if health is not None and health.state != CLOSED:
                transitions.append((address, health.state, CLOSED, "reset"))
            self._probing.discard(address)
            self._recompute_all_clear()
        self._notify(transitions)

    def note_slo_alert(
        self,
        slo: str,
        severity: str = "page",
        burn: float = 0.0,
        daemon: Optional[int] = None,
    ) -> None:
        """Record one fired burn-rate alert (called by the SLO engine)."""
        with self._lock:
            self.slo_alerts.append(
                {"slo": slo, "severity": severity, "burn": burn, "daemon": daemon}
            )
            if len(self.slo_alerts) > self._slo_alert_cap:
                del self.slo_alerts[: -self._slo_alert_cap]

    # -- introspection -------------------------------------------------------

    def state(self, address: int) -> str:
        with self._lock:
            health = self.daemons.get(address)
            return health.state if health is not None else CLOSED

    def healthy(self, address: int) -> bool:
        """False once the breaker for ``address`` has tripped open."""
        return self.state(address) == CLOSED

    def snapshot(self) -> Dict[int, Dict[str, object]]:
        """Per-daemon health gauge for telemetry/experiment reports."""
        with self._lock:
            return {
                address: {
                    "state": health.state,
                    "consecutive_failures": health.failures,
                    "total_failures": health.total_failures,
                    "successes": health.successes,
                }
                for address, health in self.daemons.items()
            }

    def recent_slo_alerts(self, limit: int = 10) -> list:
        """The most recent surfaced burn-rate alerts, oldest first."""
        with self._lock:
            return list(self.slo_alerts[-limit:])
