"""In-flight depth gauge for the asynchronous RPC layer.

The pipelined client keeps many RPCs in flight per operation (one per
involved daemon after coalescing); this gauge is how experiments observe
that depth — the evidence that fan-out is actually concurrent, and the
saturation signal when handler pools are the bottleneck.
"""

from __future__ import annotations

import itertools
import threading

__all__ = ["InflightGauge"]


class InflightGauge:
    """Thread-safe issued/completed/current/peak counters.

    ``launch()`` when an RPC is put in flight, ``land()`` when its future
    resolves (success or failure).  ``peak`` is the high-water mark of
    concurrent in-flight RPCs — the pipelining depth actually achieved.
    A landing takes no lock, it draws a number off a count; a reader draws
    one under the lock, less the ``_drawn`` readers took before it.
    """

    __slots__ = ("_lock", "_landings", "_drawn", "launched", "peak")

    def __init__(self):
        self._lock = threading.Lock()
        self._landings = itertools.count()
        self._drawn = 0
        self.launched = 0
        self.peak = 0

    def launch(self) -> None:
        with self._lock:
            self.launched += 1
            self._drawn += 1
            current = self.launched - next(self._landings) + self._drawn - 1
            if current > self.peak:
                self.peak = current

    def land(self, *_outcome) -> None:
        """Also a settle hook as it stands (``(future, value, exc)`` ignored,
        the falsy return passes the outcome on)."""
        next(self._landings)

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            self._drawn += 1
            landed = next(self._landings) - self._drawn + 1
            return {
                "launched": self.launched,
                "landed": landed,
                "current": self.launched - landed,
                "peak": self.peak,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InflightGauge({self.as_dict()})"
