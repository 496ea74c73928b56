"""In-flight depth gauge for the asynchronous RPC layer.

The pipelined client keeps many RPCs in flight per operation (one per
involved daemon after coalescing); this gauge is how experiments observe
that depth — the evidence that fan-out is actually concurrent, and the
saturation signal when handler pools are the bottleneck.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque

__all__ = ["InflightGauge"]


class InflightGauge:
    """Thread-safe issued/completed/current/peak counters.

    ``launch()`` when an RPC is put in flight, ``land()`` when its future
    resolves (success or failure).  ``peak`` is the high-water mark of
    concurrent in-flight RPCs — the pipelining depth actually achieved.
    Neither takes a lock: the calls in flight are a deque's entries (atomic
    ``append`` / ``pop``), read for the peak at launch; a landing draws a
    number off a count, a reader one under the lock, less the ``_drawn``
    readers took before it.
    """

    __slots__ = ("_lock", "_flight", "_landings", "_drawn", "peak")

    def __init__(self):
        self._lock = threading.Lock()
        self._flight: deque = deque()
        self._landings = itertools.count()
        self._drawn = 0
        self.peak = 0

    def launch(self) -> None:
        flight = self._flight
        flight.append(None)
        current = len(flight)
        if current > self.peak:
            self.peak = current

    def land(self, *_outcome) -> None:
        """Also a settle stage as it stands (``(future, value, exc)`` ignored,
        the falsy return passes the outcome on)."""
        self._flight.pop()
        next(self._landings)

    @property
    def launched(self) -> int:
        return self.as_dict()["launched"]

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            self._drawn += 1
            landed = next(self._landings) - self._drawn + 1
            current = len(self._flight)
            return {
                "launched": landed + current,
                "landed": landed,
                "current": current,
                "peak": self.peak,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InflightGauge({self.as_dict()})"
