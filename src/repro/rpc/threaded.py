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

__all__ = ["ThreadedTransport"]


class _DaemonPool:
    """Worker threads draining one daemon's request queue."""

    def __init__(self, engine: "RpcEngine", workers: int):
        self.engine = engine
        self.queue: "queue.Queue[tuple[RpcRequest, RpcFuture] | None]" = queue.Queue()
        self.threads = [
            threading.Thread(target=self._worker, daemon=True, name=f"gkfs-d{engine.address}-h{i}")
            for i in range(workers)
        ]
        for thread in self.threads:
            thread.start()

    def _worker(self) -> None:
        while True:
            item = self.queue.get()
            if item is None:
                return
            request, future = item
            try:
                future.set_result(self.engine.handle(request))
            except BaseException as exc:  # transported to the caller
                future.set_exception(exc)

    def stop(self) -> None:
        for _ in self.threads:
            self.queue.put(None)
        for thread in self.threads:
            thread.join()


class ThreadedTransport(Transport):
    """Queue-per-daemon delivery with a bounded handler pool each.

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
        self._pools: dict[int, _DaemonPool] = {}
        self._lock = threading.Lock()
        self._stopped = False

    def _pool_for(self, target: int) -> _DaemonPool:
        stale: _DaemonPool | None = None
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
                    pool = _DaemonPool(engine, self._handlers)
                    self._pools[target] = pool
                return pool
        finally:
            if stale is not None:
                stale.stop()

    def queue_depth(self, target: int) -> int:
        """Requests parked in ``target``'s queue right now (0 if no pool).

        Approximate by nature (``Queue.qsize``), which is exactly what a
        saturation gauge needs — the observability plane samples it as
        ``server.queue_depth``.
        """
        with self._lock:
            pool = self._pools.get(target)
        return pool.queue.qsize() if pool is not None else 0

    def send_async(self, request: RpcRequest) -> RpcFuture:
        """Enqueue on the target's pool and return without parking."""
        future = RpcFuture()
        try:
            pool = self._pool_for(request.target)
        except Exception as exc:  # dead/unknown daemon: fail the future
            future.set_exception(exc)
            return future
        pool.queue.put((request, future))
        return future

    def shutdown(self) -> None:
        """Stop every worker; in-flight requests complete first."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.stop()

    def __enter__(self) -> "ThreadedTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
