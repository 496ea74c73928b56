"""Daemon-side request scheduling: execution pools behind every engine.

The paper's daemons serve RPCs on dedicated Argobots execution streams
(§III-C) — a fixed set of workers per daemon, with Mercury queueing
arrivals in front of them.  The reproduction's
:class:`~repro.rpc.threaded.ThreadedTransport` has the workers but only
a FIFO in front: no fairness between clients, no admission control, no
lane separation.  This module puts an explicit scheduler in that gap.

Each daemon gets one :class:`ExecutionPool` holding two **lanes** —
``meta`` and ``data`` — mirroring GekkoFS's practice of keeping
metadata service responsive while bulk I/O saturates the data streams.
Every lane is a bounded set of execution slots in front of a
:class:`~repro.qos.wfq.WeightedFairQueue`, with admission control at
the arrival edge:

* **queue-depth limit** — a lane whose backlog is at its limit rejects
  the arrival with an EAGAIN throttle (``retry_after`` estimated from
  the lane's service-time EWMA), so overload surfaces as bounded,
  retryable pushback instead of unbounded queue growth;
* **token-bucket rate caps** — optional per-tenant ops/s ceilings
  enforced before the queue, so a capped tenant cannot displace others
  even while the lane has room.

A throttle is a *successful delivery* of an unsuccessful admission: it
is completed onto the request's future as a normal
:class:`~repro.rpc.message.RpcResponse` carrying EAGAIN, never as a
transport exception — which is what keeps the client-side circuit
breaker blind to backpressure by construction.

:class:`ScheduledTransport` is the drop-in transport hosting one pool
per daemon; it inherits :class:`~repro.rpc.threaded.ThreadedTransport`'s
lifecycle (lazy pool creation, stale-pool retirement on daemon
crash/restart, drain-then-stop shutdown).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Hashable, Mapping, Optional, TYPE_CHECKING

from repro.core.daemon import DATA_HANDLER_NAMES
from repro.qos.admission import TokenBucket
from repro.qos.wfq import WeightedFairQueue
from repro.rpc.message import RpcRequest, RpcResponse
from repro.rpc.threaded import ThreadedTransport, settle

if TYPE_CHECKING:  # pragma: no cover
    from repro.rpc.engine import RpcEngine
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.spans import TraceCollector

__all__ = [
    "META_LANE",
    "DATA_LANE",
    "MIGRATION_CLIENT_ID",
    "ExecutionPool",
    "ScheduledTransport",
]

META_LANE = "meta"
DATA_LANE = "data"

#: retry_after hints are clamped to this window: long enough that a
#: retry is not an immediate re-collision, short enough that a waiting
#: client never parks for a humanly-noticeable pause on a hiccup.
_MIN_RETRY_AFTER = 1e-4
_MAX_RETRY_AFTER = 0.05
#: Initial per-lane service-time estimate (seconds) before any request
#: has been measured; a few hundred microseconds matches an in-memory
#: handler.
_EWMA_SEED = 2e-4
#: EWMA smoothing: new = (1-a)*old + a*sample.
_EWMA_ALPHA = 0.2

#: Accounting key for requests that carry no client id (a raw network
#: user, or a deployment mixing ported and un-ported clients).
ANON = "anon"

#: Reserved client identity for migration traffic.  Negative so it can
#: never collide with a deployment's client-id counter.
MIGRATION_CLIENT_ID = -1
#: Its WFQ weight — deliberately far below the default weight of 1.0, so
#: rebalance I/O yields to foreground clients whenever both are backlogged.
MIGRATION_WEIGHT = 0.1


class _Lane:
    """One execution lane: ``workers`` execution slots in front of a
    weighted-fair backlog.

    A slot is held while one request executes.  Worker threads take one for
    the head of the backlog; a thread that offers itself (``lend``: a socket
    server's reader, for every request it reads) takes one for its own
    arrival when the backlog is empty and a slot is free: nobody is queued
    for it to be ordered against, so the hop to a worker would buy no
    fairness (docs/architecture.md §10 for what that keeps).

    A slot is its own share ledger (client -> [ops, bytes]), written only by
    the thread holding it, and the free ones are a deque (``pop`` /
    ``append``, atomic under the GIL): a lent request on an idle lane takes
    its slot and is counted without the lane lock.  ``_lock`` guards the
    backlog (the WFQ and its tag state), admission and the workers'
    wake-ups; handler execution runs outside it.
    """

    def __init__(
        self,
        name: str,
        pool: "ExecutionPool",
        workers: int,
        queue_limit: int,
        wfq: WeightedFairQueue,
    ):
        self.name = name
        self.pool = pool
        self.queue_limit = queue_limit
        self.wfq = wfq
        self._backlog = wfq._heap  # the queue's entries: empty = nobody queued
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._stopped = False
        self._slots: list[dict] = [{} for _ in range(workers)]
        self._idle = deque(self._slots)  # the slots nobody holds
        self.throttled_queue = 0
        self.throttled_rate = 0
        #: Outcomes whose reply sink raised taking them
        #: (:func:`~repro.rpc.threaded.settle`).
        self.settle_errors = 0
        self.service_ewma = _EWMA_SEED
        # Live histograms from the daemon's registry once attached.
        self.wait_hist = None
        self.depth_hist = None
        self.threads = [
            threading.Thread(
                target=self._worker,
                daemon=True,
                name=f"gkfs-qos-d{pool.engine.address}-{name}{i}",
            )
            for i in range(workers)
        ]
        self.workers = workers
        for thread in self.threads:
            thread.start()

    @property
    def depth(self) -> int:
        return len(self.wfq)

    @property
    def _free(self) -> int:
        return len(self._idle)

    @property
    def served(self) -> int:
        return sum(ops for slot in self._slots for ops, _ in list(slot.values()))

    def _retry_hint(self, depth: int) -> float:
        """Expected time for the backlog to drain past the limit."""
        hint = self.service_ewma * depth / max(1, self.workers)
        return min(_MAX_RETRY_AFTER, max(_MIN_RETRY_AFTER, hint))

    def _serve(self, slot: dict, client: Hashable, request: RpcRequest, reply,
               enqueued: Optional[float] = None) -> None:
        """Run and answer one admitted request in the held ``slot``, count it
        in the slot's ledger and give the slot back before the reply sink
        runs.  A lent arrival (no ``enqueued`` stamp) waited 0."""
        pool = self.pool
        clock = pool.clock
        started = clock()
        response = failure = None
        try:
            hist = self.wait_hist
            if hist is not None and enqueued is not None:
                hist.record(started - enqueued)
            elif hist is not None:  # a zero wait, counted without a call
                hist._buckets[0] += 1
                hist.count += 1
                hist.min = 0.0
            # ``handle`` is looked up per call: tracing wraps it per engine.
            response = pool.engine.handle(request)
        except BaseException as exc:  # transported to the caller
            failure = exc
        try:
            if response is not None:
                # Racing holders of two slots may lose one sample: an estimate.
                self.service_ewma += _EWMA_ALPHA * (clock() - started - self.service_ewma)
                if client not in slot:
                    slot[client] = [0, 0]
                    if pool._metrics is not None:
                        pool._register_share_gauges(client)
                share = slot[client]
                share[0] += 1  # bytes moved, as priced: request, reply (an inline read), bulk
                share[1] += ((request._wire_size or request.wire_size) + response.bulk_bytes
                             + (response._wire_size or response.wire_size))
        finally:
            self._idle.append(slot)  # whatever raised, the slot is back
            if self._backlog:  # a worker takes what queued behind the slot
                with self._lock:
                    self._cond.notify()
        if not settle(reply, response, failure):
            self.settle_errors += 1

    def _worker(self) -> None:
        backlog = self._backlog
        while True:
            with self._lock:
                # A lender may pop the last slot first: its return wakes us.
                while not (backlog and (slot := self._take()) is not None):
                    if self._stopped and not backlog:
                        return  # stopped and drained
                    self._cond.wait()
                client, item = self.wfq.pop()
            self._serve(slot, client, *item)

    def _take(self) -> Optional[dict]:
        """A free slot, or None."""
        try:
            return self._idle.pop()
        except IndexError:
            return None

    def stop(self) -> None:
        """Stop workers after the queued backlog is fully served."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            self._cond.notify_all()
        for thread in self.threads:
            thread.join()


class ExecutionPool:
    """Both lanes of one daemon, plus per-client share accounting.

    :param engine: the daemon's RPC engine (requests are served by
        calling ``engine.handle`` from lane workers).
    :param meta_workers: metadata-lane worker count.
    :param data_workers: data-lane worker count.
    :param queue_limit: per-lane backlog bound; arrivals beyond it are
        throttled with EAGAIN.
    :param default_weight: WFQ weight for clients without an entry in
        ``weights``.
    :param weights: optional per-client WFQ weight map.
    :param rate_limits: optional per-client ops/s caps (token buckets).
    :param clock: injectable monotonic clock for wait accounting.
    """

    def __init__(
        self,
        engine: "RpcEngine",
        *,
        meta_workers: int = 2,
        data_workers: int = 2,
        queue_limit: int = 256,
        default_weight: float = 1.0,
        weights: Optional[Mapping[Hashable, float]] = None,
        rate_limits: Optional[Mapping[Hashable, float]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if meta_workers <= 0 or data_workers <= 0:
            raise ValueError("lane worker counts must be > 0")
        if queue_limit <= 0:
            raise ValueError(f"queue_limit must be > 0, got {queue_limit}")
        self.engine = engine
        self.clock = clock
        self._buckets = {
            client: TokenBucket(rate) for client, rate in (rate_limits or {}).items()
        }
        self.lanes = {
            META_LANE: _Lane(
                META_LANE, self, meta_workers, queue_limit,
                WeightedFairQueue(default_weight, weights),
            ),
            DATA_LANE: _Lane(
                DATA_LANE, self, data_workers, queue_limit,
                WeightedFairQueue(default_weight, weights),
            ),
        }
        self._metrics: "Optional[MetricsRegistry]" = None
        self._collector: "Optional[TraceCollector]" = None

    # -- dispatch ------------------------------------------------------------

    def lane_for(self, handler: str) -> _Lane:
        return self.lanes[DATA_LANE if handler in DATA_HANDLER_NAMES else META_LANE]

    def submit(self, request: RpcRequest, reply, lend: bool = False) -> None:
        """The lanes' arrival edge: admit or throttle one arrival; never blocks
        on the queue.  A ``lend``ing caller serves its own if the lane is idle:
        with no rate cap to charge, it takes the slot without the lane lock."""
        client = request.client_id if request.client_id is not None else ANON
        # lane_for, inlined: one Python call less per request.
        lane = self.lanes[DATA_LANE if request.handler in DATA_HANDLER_NAMES else META_LANE]
        backlog = lane._backlog
        slot = None
        if lend and not (backlog or self._buckets or lane._stopped):
            try:  # the idle lane's prefix: no lock
                slot = lane._idle.pop()
            except IndexError:
                pass
        refusal = None  # (message, retry_after) of an arrival turned away
        if slot is None:
            with lane._lock:
                if lane._stopped:
                    raise RuntimeError("execution pool already stopped")
                if backlog and len(backlog) >= lane.queue_limit:
                    lane.throttled_queue += 1
                    refusal = (f"daemon {self.engine.address} {lane.name} lane at "
                               f"queue limit {lane.queue_limit}", lane._retry_hint(len(backlog)))
                elif (self._buckets and (bucket := self._buckets.get(client)) is not None
                      and (wait := bucket.try_acquire()) > 0.0):
                    lane.throttled_rate += 1
                    refusal = (f"client {client} over its rate cap on daemon "
                               f"{self.engine.address}", wait)
                elif not (lend and not backlog and (slot := lane._take()) is not None):
                    lane.wfq.push(client, float(request.wire_size), (request, reply, self.clock()))
                    if lane.depth_hist is not None:
                        lane.depth_hist.record(len(backlog))
                    lane._cond.notify()
        if refusal is not None:
            # Outside the lane lock: answer with the throttle response (a
            # delivered EAGAIN, not a failure) and let telemetry see the event.
            throttle = RpcResponse.throttled(*refusal)
            self.note_throttle(lane.name, client, throttle.error)
            if not settle(reply, throttle, None):
                lane.settle_errors += 1
        elif slot is not None:
            lane._serve(slot, client, request, reply)

    def queue_depth(self) -> int:
        return sum(lane.depth for lane in self.lanes.values())

    # -- admission helpers ---------------------------------------------------

    def note_throttle(self, lane: str, client: Hashable, error) -> None:
        if self._collector is not None:
            self._collector.instant(
                "qos.throttle",
                "qos",
                daemon=self.engine.address,
                lane=lane,
                client=client,
                retry_after=error.retry_after,
            )

    # -- accounting ----------------------------------------------------------

    def _register_share_gauges(self, client: Hashable) -> None:
        """Idempotent: whichever lane serves ``client`` first registers them."""
        for key in ("ops", "bytes"):
            self._metrics.gauge(f"qos.client_{key}.{client}",
                                lambda key=key: self.client_shares()[client][key])

    def client_shares(self) -> dict:
        """``{client: {"ops": n, "bytes": n}}`` served by this daemon: the
        lanes' slot ledgers merged."""
        shares: dict = {}
        for lane in self.lanes.values():
            for slot in lane._slots:
                for client, (ops, moved) in list(slot.items()):
                    share = shares.setdefault(client, {"ops": 0, "bytes": 0})
                    share["ops"] += ops
                    share["bytes"] += moved
        return shares

    # -- telemetry wiring ----------------------------------------------------

    def attach(
        self,
        metrics: "MetricsRegistry",
        collector: "Optional[TraceCollector]" = None,
    ) -> None:
        """Register this pool's gauges/histograms into the daemon registry.

        Gauges mirror the pool's own counters (the registry's standard
        pattern); wait/depth histograms are created in the registry so
        they ride the ``gkfs_metrics`` broadcast and merge cluster-wide.
        """
        self._collector = collector
        self._metrics = metrics  # set first: a lane adding a client later registers it
        for client in self.client_shares():
            self._register_share_gauges(client)
        for name, lane in self.lanes.items():
            lane.wait_hist = metrics.histogram_for(f"qos.wait.{name}")
            lane.depth_hist = metrics.histogram_for(f"qos.depth.{name}")
            metrics.gauge(f"qos.queue_depth.{name}", lambda l=lane: l.depth)
            metrics.gauge(f"qos.served.{name}", lambda l=lane: l.served)
            metrics.gauge(
                f"qos.throttles.{name}",
                lambda l=lane: l.throttled_queue + l.throttled_rate,
            )
            metrics.gauge(f"qos.service_ewma.{name}", lambda l=lane: l.service_ewma)

    # -- lifecycle -----------------------------------------------------------

    def stop(self) -> None:
        for lane in self.lanes.values():
            lane.stop()


class ScheduledTransport(ThreadedTransport):
    """Queue-per-daemon delivery through scheduled execution pools.

    The QoS-enabled sibling of
    :class:`~repro.rpc.threaded.ThreadedTransport`, whose lifecycle and
    ``submit``/``send_async`` it inherits — but each daemon's arrivals pass
    through WFQ dispatch and admission control instead of a bare FIFO.

    :param engines: live engine table, shared by reference with the
        :class:`~repro.rpc.engine.RpcNetwork`.
    :param pool_options: keyword arguments forwarded to every
        :class:`ExecutionPool` (worker counts, queue limit, weights,
        rate limits).
    """

    def __init__(self, engines: Mapping[int, "RpcEngine"], **pool_options):
        super().__init__(engines)
        self._pool_options = pool_options
        self._attachments: dict[int, tuple] = {}

    @classmethod
    def from_config(cls, engines: Mapping[int, "RpcEngine"], config) -> "ScheduledTransport":
        """The transport daemons under ``config`` serve through.

        The one assembly for in-process clusters and socket daemons alike,
        so the migrator's reserved identity holds its low weight in every
        pool a deployment builds.
        """
        weights = dict(config.qos_client_weights or {})
        weights.setdefault(MIGRATION_CLIENT_ID, MIGRATION_WEIGHT)
        return cls(
            engines,
            meta_workers=config.qos_meta_workers,
            data_workers=config.qos_data_workers,
            queue_limit=config.qos_queue_limit,
            weights=weights,
            rate_limits=config.qos_rate_limits,
        )

    def _new_pool(self, engine: "RpcEngine") -> ExecutionPool:
        pool = ExecutionPool(engine, **self._pool_options)
        attachment = self._attachments.get(engine.address)
        if attachment is not None:
            pool.attach(*attachment)
        return pool

    def attach(self, target: int, metrics, collector=None) -> None:
        """Wire ``target``'s pool into its daemon's metrics registry.

        Called by the cluster at daemon build time (and again on
        restart, when the daemon gets a fresh registry); the attachment
        is remembered so a pool recreated after a crash re-registers
        itself without another call.
        """
        with self._lock:
            self._attachments[target] = (metrics, collector)
        if target in self._engines:
            self._pool_for(target)

    def client_shares(self, target: int) -> dict:
        """Per-client service ledger of ``target``'s pool ({} if none)."""
        pool = self._pools.get(target)
        return pool.client_shares() if pool is not None else {}
