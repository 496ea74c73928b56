"""Phi-accrual failure detection with second-vantage corroboration.

The circuit breaker (PR 2) answers one question — "should I send this
daemon another request right now?" — with a binary verdict built from
*this client's* delivery failures.  Automated repair needs a stronger
statement: "this daemon is *dead*, replace it", and acting on a binary
verdict replaces healthy daemons every time the network hiccups.

:class:`PhiAccrualDetector` grades suspicion instead.  Each poll round
pings every daemon (``gkfs_ping`` through the deployment's regular
transport stack) and keeps a window of healthy inter-success gaps; the
suspicion of a silent daemon is the phi-accrual level of its current
silence against that history (:func:`repro.models.selfheal.phi` — the
live engine and the analytic twin share the same math).  States:

* **healthy** — phi below ``suspect_phi``.
* **suspect** — phi crossed ``suspect_phi``: stop trusting it, start
  corroborating.  Recovers to healthy by itself when pings resume.
* **condemned** — phi crossed ``condemn_phi`` *and* the failure is
  corroborated.  Terminal until :meth:`clear` (the supervisor repairs,
  then clears).

Condemnation requires agreement of independent vantages, which is what
disambiguates *crash* from *partition*:

1. the primary vantage (the deployment's transport stack, chaos
   splices and all) must have crossed ``condemn_phi``;
2. an **independent probe** — a fresh socket pair straight to the
   daemon's endpoint, sharing nothing with the client stack — must also
   fail.  A client-side partition or latency storm fails vantage 1 but
   not vantage 2: the daemon stays *suspect* and is never condemned;
3. when the deployment runs a breaker, the client-side
   :class:`~repro.rpc.health.DaemonHealthTracker` must hold corroborating
   evidence (a non-CLOSED breaker or a live failure streak) — real
   traffic agreeing with the prober.

A SIGKILLed or SIGSTOPped daemon fails every vantage (the stall
watchdog turns hung-but-connected calls into ``TimeoutError``s), so
crashes and hangs condemn; pure partitions cannot.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import deque
from typing import Callable, List, Optional, Tuple

from repro.common.errors import UNREACHABLE, GekkoError
from repro.models.selfheal import phi as _phi

__all__ = ["PhiAccrualDetector", "HEALTHY", "SUSPECT", "CONDEMNED"]

HEALTHY = "healthy"
SUSPECT = "suspect"
CONDEMNED = "condemned"

#: Breaker states that corroborate a failure (anything but closed).
_CLOSED = "closed"


class _DaemonTrack:
    """Per-daemon probe history and graded state."""

    __slots__ = (
        "address",
        "state",
        "gaps",
        "last_success",
        "last_rtt",
        "consecutive_failures",
        "partition_suspected",
    )

    def __init__(self, address: int):
        self.address = address
        self.state = HEALTHY
        self.gaps: deque = deque(maxlen=64)
        self.last_success: Optional[float] = None
        self.last_rtt: float = 0.0
        self.consecutive_failures = 0
        self.partition_suspected = False


class PhiAccrualDetector:
    """Graded failure detection over ``gkfs_ping`` RTT history.

    :param deployment: the :class:`~repro.core.cluster.Deployment` to
        watch — its ``network``, ``num_nodes``, ``health`` and, for the
        default second vantage, ``probe()``.
    :param suspect_phi: phi at which a daemon stops being trusted.
    :param condemn_phi: phi at which a corroborated daemon is condemned.
    :param min_std: floor on the gap standard deviation (keeps one
        perfectly regular scheduler from making any lateness infinitely
        damning).
    :param probe_timeout: deadline for each probe leg, both vantages.
    :param fallback_failures: consecutive failures standing in for the
        phi thresholds while a daemon has no gap history yet (fresh
        cluster, freshly cleared track).
    :param independent_probe: override for the second vantage —
        ``fn(address) -> bool`` (True = daemon answered).  Default is
        the deployment's own :meth:`~repro.core.cluster.Deployment.probe`
        (over sockets: a fresh connection straight to the daemon).
    :param clock: injectable monotonic clock for tests.

    Listeners registered with :meth:`add_listener` receive
    ``fn(address, old_state, new_state, evidence_dict)`` for every
    transition, after the poll round that produced it.
    """

    def __init__(
        self,
        deployment,
        *,
        suspect_phi: float = 1.0,
        condemn_phi: float = 8.0,
        min_std: float = 0.05,
        probe_timeout: float = 2.0,
        fallback_failures: int = 5,
        independent_probe: Optional[Callable[[int], bool]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if suspect_phi <= 0 or condemn_phi <= suspect_phi:
            raise ValueError(
                f"need 0 < suspect_phi < condemn_phi, "
                f"got {suspect_phi}/{condemn_phi}"
            )
        if fallback_failures < 2:
            raise ValueError(
                f"fallback_failures must be >= 2, got {fallback_failures}"
            )
        self.deployment = deployment
        self.suspect_phi = suspect_phi
        self.condemn_phi = condemn_phi
        self.min_std = min_std
        self.probe_timeout = probe_timeout
        self.fallback_failures = fallback_failures
        self.clock = clock
        self._independent_probe = independent_probe or self._default_probe
        self._tracks: dict[int, _DaemonTrack] = {}
        self._listeners: List[Callable] = []
        self._lock = threading.Lock()
        #: Condemnations averted because the second vantage answered —
        #: the partitions-never-condemn counter the soak asserts on.
        self.partitions_detected = 0

    # -- wiring ---------------------------------------------------------------

    def add_listener(self, listener: Callable) -> None:
        self._listeners.append(listener)

    def track(self, address: int) -> _DaemonTrack:
        with self._lock:
            track = self._tracks.get(address)
            if track is None:
                track = self._tracks[address] = _DaemonTrack(address)
            return track

    def state(self, address: int) -> str:
        return self.track(address).state

    def clear(self, address: int) -> None:
        """Forget a daemon's history — called after its repair completes."""
        with self._lock:
            self._tracks.pop(address, None)

    # -- probing --------------------------------------------------------------

    def _default_probe(self, address: int) -> bool:
        """Second vantage: the deployment asks the daemon itself, sharing
        nothing with the client stack a client-side fault could fail."""
        return self.deployment.probe(address, self.probe_timeout)

    def _primary_probe(self, address: int) -> Tuple[bool, float]:
        """One ping through the deployment stack; (ok, rtt).  A daemon
        that cannot be reached or answers with an error is silent."""
        start = self.clock()
        try:
            self.deployment.network.call(address, "gkfs_ping")
            return True, self.clock() - start
        except UNREACHABLE + (GekkoError,):
            return False, self.clock() - start

    # -- suspicion ------------------------------------------------------------

    def gap_stats(self, address: int) -> Optional[Tuple[float, float]]:
        """The ``(mean, std)`` of a daemon's healthy probe gaps, the std
        floored at ``min_std``; None below three gaps (no usable history).
        Phi and the analytic twin both grade silence against these."""
        gaps = list(self.track(address).gaps)
        if len(gaps) < 3:
            return None
        return statistics.fmean(gaps), max(statistics.pstdev(gaps), self.min_std)

    def _phi(self, track: _DaemonTrack, now: float) -> Optional[float]:
        """Current phi for a silent daemon; None = no usable history."""
        stats = self.gap_stats(track.address)
        if track.last_success is None or stats is None:
            return None
        return _phi(now - track.last_success, *stats)

    def _tracker_corroborates(self, address: int) -> bool:
        """Client-side health evidence: is real traffic failing too?

        Without a breaker there is no client-side evidence stream — the
        requirement is vacuous (the independent probe still gates).
        """
        health = self.deployment.health
        if health is None:
            return True
        entry = health.snapshot().get(address)
        if entry is None:
            # No recorded traffic either way; the prober's own failures
            # went through the tracker-wrapped stack, so absence means
            # the tracker never saw this daemon — do not block on it.
            return True
        return entry["state"] != _CLOSED or entry["consecutive_failures"] > 0

    def poll(self) -> List[Tuple[int, str, str, dict]]:
        """Probe every daemon once and advance the grades.

        Returns (and delivers to listeners) the list of transitions
        ``(address, old, new, evidence)`` this round produced.
        """
        transitions = []
        for address in range(self.deployment.num_nodes):
            track = self.track(address)
            if track.state == CONDEMNED:
                continue  # terminal until the supervisor clears us
            ok, rtt = self._primary_probe(address)
            now = self.clock()
            if ok:
                if track.last_success is not None:
                    track.gaps.append(now - track.last_success)
                track.last_success = now
                track.last_rtt = rtt
                track.consecutive_failures = 0
                track.partition_suspected = False
                if track.state != HEALTHY:
                    transitions.append(
                        (address, track.state, HEALTHY, {"reason": "recovered"})
                    )
                    track.state = HEALTHY
                continue
            track.consecutive_failures += 1
            level = self._phi(track, now)
            if level is None:
                # No history: grade on the failure streak alone.
                suspect = track.consecutive_failures >= 2
                condemnable = (
                    track.consecutive_failures >= self.fallback_failures
                )
            else:
                suspect = level >= self.suspect_phi
                condemnable = level >= self.condemn_phi
            evidence = {
                "phi": level,
                "consecutive_failures": track.consecutive_failures,
                "silence": (
                    now - track.last_success
                    if track.last_success is not None
                    else None
                ),
            }
            if condemnable:
                if self._independent_probe(address):
                    # The daemon answered a fresh connection: the fault
                    # is on *our* path.  Partition, not crash — hold at
                    # suspect forever if need be.
                    if not track.partition_suspected:
                        self.partitions_detected += 1
                        track.partition_suspected = True
                    evidence["classification"] = "partition"
                    condemnable = False
                elif not self._tracker_corroborates(address):
                    evidence["classification"] = "uncorroborated"
                    condemnable = False
                else:
                    evidence["classification"] = "crash"
            if condemnable:
                if track.state != CONDEMNED:
                    transitions.append(
                        (address, track.state, CONDEMNED, evidence)
                    )
                    track.state = CONDEMNED
            elif suspect and track.state == HEALTHY:
                transitions.append((address, HEALTHY, SUSPECT, evidence))
                track.state = SUSPECT
        for transition in transitions:
            for listener in tuple(self._listeners):
                listener(*transition)
        return transitions
