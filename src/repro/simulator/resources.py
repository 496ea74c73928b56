"""Queued resources for the discrete-event engine.

A :class:`Resource` with capacity ``c`` models anything that serves at
most ``c`` requests at once: a daemon's Margo handler pool, an SSD's
internal parallelism, a Lustre MDS service thread pool.  Waiters queue
FIFO; utilisation and queue-length statistics are tracked so experiments
can report *where* time went, not just how much.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.simulator.engine import Event, Simulator

__all__ = ["Resource"]


class Resource:
    """FIFO resource with fixed capacity.

    Usage inside a process::

        yield resource.acquire()
        yield sim.timeout(service_time)
        resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: list[Event] = []
        # Statistics
        self.total_acquisitions = 0
        self.busy_time = 0.0  # integral of in_use over time
        self.wait_time = 0.0  # total time requests spent queued
        self._last_change = 0.0

    def _account(self) -> None:
        dt = self.sim.now - self._last_change
        self.busy_time += self.in_use * dt
        self._last_change = self.sim.now

    def acquire(self) -> Event:
        """Event that triggers once a slot is held by the caller."""
        self._account()
        event = self.sim.event()
        if self.in_use < self.capacity:
            self.in_use += 1
            self.total_acquisitions += 1
            event.succeed(self.sim.now)  # value: acquisition time (wait = 0)
        else:
            event.value = self.sim.now  # stash request time for wait stats
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Free one slot; hands it to the oldest waiter if any."""
        if self.in_use <= 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        self._account()
        if self._waiters:
            waiter = self._waiters.pop(0)
            requested_at = waiter.value
            self.wait_time += self.sim.now - requested_at
            self.total_acquisitions += 1
            waiter.value = None
            waiter.succeed(self.sim.now)
        else:
            self.in_use -= 1

    def use(self, service_time: float) -> Generator[Event, None, None]:
        """Sub-process: acquire, hold for ``service_time``, release."""
        yield self.acquire()
        yield self.sim.timeout(service_time)
        self.release()

    # -- statistics -----------------------------------------------------------

    def utilisation(self, elapsed: Optional[float] = None) -> float:
        """Mean fraction of capacity busy over ``elapsed`` (default: now)."""
        self._account()
        elapsed = self.sim.now if elapsed is None else elapsed
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.capacity)
