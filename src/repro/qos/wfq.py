"""Weighted fair queueing — start-time fair queueing (SFQ) over clients.

The daemon's execution lanes must not serve clients in raw arrival
order: a greedy client keeping hundreds of requests queued would then
own the lane in proportion to its queue depth, which is exactly the
noisy-neighbour starvation the QoS plane exists to prevent.  SFQ
(Goyal/Vin/Cheng) gives each *backlogged* client service proportional
to its weight regardless of how deep its backlog is:

* every request gets a **start tag** ``max(vtime, last_finish[client])``
  and a **finish tag** ``start + cost / weight``;
* the queue always releases the request with the smallest finish tag;
* virtual time advances to the start tag of the request in service.

Continuously backlogged clients with equal weights therefore alternate
one-for-one even when one has 500 requests queued and the other 4 —
the property the EXT-OVERLOAD experiment measures.

The queue itself is *not* thread-safe: the owning lane serialises
``push``/``pop`` under its own lock, which also keeps the tag state and
the heap consistent with the lane's depth accounting.
"""

from __future__ import annotations

import heapq
from typing import Any, Hashable, Mapping, Optional

__all__ = ["WeightedFairQueue"]


class WeightedFairQueue:
    """SFQ dispatch queue: ``push(client, cost, item)`` / ``pop()``.

    :param default_weight: share weight for clients not named in
        ``weights`` (all clients equal by default).
    :param weights: optional per-client weight map; a weight of 2 gets
        twice the service of a weight-1 client while both are backlogged.
    """

    def __init__(
        self,
        default_weight: float = 1.0,
        weights: Optional[Mapping[Hashable, float]] = None,
    ):
        if default_weight <= 0:
            raise ValueError(f"default_weight must be > 0, got {default_weight}")
        self.default_weight = float(default_weight)
        self.weights: dict[Hashable, float] = {}
        for client, weight in (weights or {}).items():
            self.set_weight(client, weight)
        # Heap entries: (finish_tag, seq, start_tag, client, item).  The
        # seq breaks finish-tag ties FIFO, keeping pops deterministic.
        self._heap: list[tuple[float, int, float, Hashable, Any]] = []
        self._vtime = 0.0
        self._last_finish: dict[Hashable, float] = {}
        self._seq = 0

    def set_weight(self, client: Hashable, weight: float) -> None:
        if weight <= 0:
            raise ValueError(f"weight for {client!r} must be > 0, got {weight}")
        self.weights[client] = float(weight)

    def weight_of(self, client: Hashable) -> float:
        return self.weights.get(client, self.default_weight)

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, client: Hashable, cost: float, item: Any) -> None:
        """Enqueue ``item`` for ``client`` with service ``cost`` (>= 0).

        Cost is in arbitrary units (the lanes use wire bytes); what
        matters for fairness is only the ratio ``cost / weight`` between
        clients.  A freshly-active client starts at the current virtual
        time, so it competes immediately rather than catching up on
        service it never asked for.
        """
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost}")
        start = max(self._vtime, self._last_finish.get(client, 0.0))
        finish = start + cost / self.weight_of(client)
        self._last_finish[client] = finish
        self._seq += 1
        heapq.heappush(self._heap, (finish, self._seq, start, client, item))

    def pop(self) -> tuple[Hashable, Any]:
        """Release the request with the smallest finish tag.

        Advances virtual time to the released request's start tag, which
        is what lets a newly-arriving client's start tag land *now*
        instead of at 0.
        """
        if not self._heap:
            raise IndexError("pop from an empty WeightedFairQueue")
        _finish, _seq, start, client, item = heapq.heappop(self._heap)
        if start > self._vtime:
            self._vtime = start
        return client, item

    def drain(self) -> list[tuple[Hashable, Any]]:
        """Pop everything, in service order (shutdown path)."""
        items = []
        while self._heap:
            items.append(self.pop())
        return items
