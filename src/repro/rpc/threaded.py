"""Threaded transport: real handler pools, the Argobots execution model.

Margo gives each GekkoFS daemon a pool of execution streams that serve
RPCs concurrently (§III-B).  :class:`ThreadedTransport` reproduces that
with real threads: each daemon address gets a bounded worker pool fed by
a FIFO queue.  ``send_async`` is the ``margo_iforward`` path — it
enqueues *without parking*, so one client thread can keep a whole fan-out
in flight across many daemon pools at once; the inherited ``send`` parks
the caller on that future, exactly like a synchronous Mercury call.
Because daemon state (LSM store, chunk storage, metadata lock) is
already thread-safe, the functional file system runs unchanged on top —
this transport exists so tests and benchmarks can exercise *true*
concurrency: racing appenders, contended merges, handler-pool
saturation, pipelined chunk fan-out.
"""

from __future__ import annotations

import queue
import threading
from typing import Mapping, TYPE_CHECKING

from repro.rpc.future import RpcFuture
from repro.rpc.message import RpcRequest
from repro.rpc.transport import Transport

if TYPE_CHECKING:  # pragma: no cover
    from repro.rpc.engine import RpcEngine

__all__ = ["ThreadedTransport", "settle"]


def settle(reply, response, failure) -> bool:
    """Hand one executed request's outcome to its reply sink, a callable
    ``reply(response, failure)``: a future's ``settle``, a server's wire
    reply.  False if it raised — a done-callback, a settle stage, an encoder:
    the worker that called must live to serve the next request."""
    try:
        reply(response, failure)
        return True
    except Exception:
        return False


class _DaemonPool:
    """Worker threads draining one daemon's request queue."""

    def __init__(self, engine: "RpcEngine", workers: int):
        self.engine = engine
        self.queue: "queue.Queue[tuple | None]" = queue.Queue()  # (request, reply)
        self._lock = threading.Lock()  # nothing joins the queue behind a stop
        self._stopped = False
        #: Outcomes whose reply sink raised taking them (see :func:`settle`).
        self.settle_errors = 0
        self.threads = [
            threading.Thread(target=self._worker, daemon=True, name=f"gkfs-d{engine.address}-h{i}")
            for i in range(workers)
        ]
        for thread in self.threads:
            thread.start()

    def submit(self, request: RpcRequest, reply, lend: bool = False) -> None:
        if lend:
            self._serve(request, reply)
            return
        with self._lock:
            if self._stopped:
                raise RuntimeError("handler pool already stopped")
            self.queue.put((request, reply))

    def queue_depth(self) -> int:
        return self.queue.qsize()

    def _serve(self, request: RpcRequest, reply) -> None:
        response = failure = None
        try:
            # ``handle`` is looked up per call: tracing wraps it per engine.
            response = self.engine.handle(request)
        except BaseException as exc:  # transported to the caller
            failure = exc
        if not settle(reply, response, failure):
            self.settle_errors += 1

    def _worker(self) -> None:
        while True:
            item = self.queue.get()
            if item is None:
                return
            self._serve(*item)

    def stop(self) -> None:
        with self._lock:
            self._stopped = True
            for _ in self.threads:
                self.queue.put(None)
        for thread in self.threads:
            thread.join()


class ThreadedTransport(Transport):
    """Queue-per-daemon delivery with a bounded handler pool each.

    Also the base of :class:`~repro.qos.pool.ScheduledTransport`, which
    swaps the pool (:meth:`_new_pool`) and keeps the lifecycle: lazy pool
    creation, stale-pool retirement on daemon crash/restart,
    drain-then-stop shutdown.

    :param engines: live engine table (shared by reference with the
        :class:`~repro.rpc.engine.RpcNetwork`); pools are created lazily
        the first time a daemon is addressed.
    :param handlers_per_daemon: pool width — the Margo xstream count.
    """

    def __init__(self, engines: Mapping[int, "RpcEngine"], handlers_per_daemon: int = 4):
        if handlers_per_daemon <= 0:
            raise ValueError(f"handlers_per_daemon must be > 0, got {handlers_per_daemon}")
        self._engines = engines
        self._handlers = handlers_per_daemon
        self._pools: dict = {}
        self._lock = threading.Lock()
        self._stopped = False

    def _new_pool(self, engine: "RpcEngine"):
        """Caller holds the lock."""
        return _DaemonPool(engine, self._handlers)

    def _pool_for(self, target: int):
        """``target``'s pool under the lock: built, or a stale one retired."""
        stale = None
        try:
            with self._lock:
                if self._stopped:
                    raise RuntimeError("transport already shut down")
                try:
                    engine = self._engines[target]
                except KeyError:
                    # Daemon gone from the live address book (crash-stop or
                    # shrink): retire any pool built while it was alive, so
                    # a later re-registration starts fresh.
                    stale = self._pools.pop(target, None)
                    raise LookupError(f"no daemon at address {target}") from None
                pool = self._pools.get(target)
                if pool is None or pool.engine is not engine:
                    stale = pool
                    pool = self._pools[target] = self._new_pool(engine)
                return pool
        finally:
            if stale is not None:
                stale.stop()

    def queue_depth(self, target: int) -> int:
        """Requests parked in ``target``'s queues right now (0 if no pool).

        Approximate by nature, which is exactly what a saturation gauge
        needs — the observability plane samples it as ``server.queue_depth``.
        """
        pool = self._pools.get(target)
        return pool.queue_depth() if pool is not None else 0

    def submit(self, request: RpcRequest, reply, lend: bool = False) -> None:
        """Hand one request to the target's pool without parking; whoever
        serves it (or the admission edge that refuses it) calls
        ``reply(response, failure)`` (:func:`settle`).  A socket server
        passes its wire reply: a pooled request costs the daemon no future.

        ``lend=True`` offers the calling thread to serve it: a socket
        server's reader, for every request.  This pool always accepts; a
        QoS lane when it is idle."""
        target = request.target
        try:
            pools, engines = self._pools, self._engines  # ``in`` and ``[]``: no call
            pool = pools[target] if target in pools else None
            if pool is None or target not in engines or pool.engine is not engines[target]:
                pool = self._pool_for(target)
            pool.submit(request, reply, lend)
        except (LookupError, RuntimeError) as exc:  # unknown daemon, stopped pool
            reply(None, exc)

    def send_async(self, request: RpcRequest) -> RpcFuture:
        """The in-process client's path onto the same queue: the reply sink
        is the future handed back.  It never lends — the issuer must get its
        future back before any handler runs."""
        future = RpcFuture(request)
        self.submit(request, future.settle)
        return future

    def shutdown(self) -> None:
        """Stop every worker; queued requests are served first."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
