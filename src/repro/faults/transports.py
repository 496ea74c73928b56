"""Composable fault-injecting transport wrappers.

Each wrapper layers one failure mode over any inner
:class:`~repro.rpc.transport.Transport` and can be reconfigured live
while traffic flows — the :class:`~repro.faults.chaos.ChaosController`
splices a stack of them directly above the base transport (below
retries/breaker/instrumentation, where a real fabric fault would occur)
and drives them from a fault plan:

* :class:`LatencyTransport` — per-daemon slowdown (a thrashing node, a
  congested link),
* :class:`DropTransport` — seeded-random per-daemon message loss,
* :class:`PartitionTransport` — hard network partition of an address set,
* :class:`TriggerTransport` — one-shot predicate-matched faults ("crash
  the daemon when *this* RPC arrives"), the tool for deterministic
  crash-consistency scenarios.

Every wrapper keeps the ``send_async`` never-raises contract: injected
failures surface through the returned future.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Dict, Optional

from repro.rpc.future import RpcFuture, defer
from repro.rpc.message import RpcRequest
from repro.rpc.transport import Transport, deliver_async

__all__ = [
    "LatencyTransport",
    "DropTransport",
    "PartitionTransport",
    "TriggerTransport",
]


class LatencyTransport(Transport):
    """Add per-daemon delivery delay.

    The request is delivered at once and its *completion* is delayed: a
    fan-out still leaves the client at full speed and the slow daemon's
    leg lands late — what a thrashing node looks like from a pipelined
    caller.  A blocking ``send`` sees the same elapsed time.
    """

    def __init__(self, inner: Transport, sleep: Callable[[float], None] = time.sleep):
        self.inner = inner
        self._sleep = sleep
        self.delays: Dict[int, float] = {}
        self.delayed_sends = 0

    def set_delay(self, address: int, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"delay must be >= 0, got {seconds}")
        self.delays[address] = seconds

    def clear_delay(self, address: int) -> None:
        self.delays.pop(address, None)

    def send_async(self, request: RpcRequest) -> RpcFuture:
        future = deliver_async(self.inner, request)
        delay = self.delays.get(request.target, 0.0)
        if delay > 0:
            self.delayed_sends += 1

            def hold(future: RpcFuture, value, exc) -> bool:
                defer(future, delay, lambda: future.resume(value, exc), self._sleep)
                return True

            future.add_settle_hook(hold)
        return future


class DropTransport(Transport):
    """Drop a seeded-random fraction of requests per daemon.

    A dropped request raises ``ConnectionError`` — retriable by the
    client's retry layer, which is exactly the loss/retry interaction
    chaos tests need to exercise.  The RNG is seeded so a fault plan
    drops the same requests on every run.
    """

    def __init__(self, inner: Transport, seed: int = 0):
        self.inner = inner
        self.rates: Dict[int, float] = {}
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.drops = 0

    def set_drop_rate(self, address: int, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"drop rate must be in [0, 1], got {rate}")
        self.rates[address] = rate

    def clear_drop_rate(self, address: int) -> None:
        self.rates.pop(address, None)

    def _dropped(self, request: RpcRequest) -> bool:
        rate = self.rates.get(request.target, 0.0)
        if rate <= 0.0:
            return False
        with self._lock:
            hit = self._rng.random() < rate
            if hit:
                self.drops += 1
        return hit

    def _exc(self, request: RpcRequest) -> ConnectionError:
        return ConnectionError(
            f"injected drop: {request.handler} -> daemon {request.target}"
        )

    def send_async(self, request: RpcRequest) -> RpcFuture:
        if self._dropped(request):
            return RpcFuture.failed(self._exc(request))
        return deliver_async(self.inner, request)


class PartitionTransport(Transport):
    """Hard-block a set of daemon addresses (network partition).

    Every request to a blocked address fails with ``ConnectionError``
    until :meth:`heal` lifts the partition.  Unlike a crash the daemons
    keep all their state — healing restores service with no recovery.
    """

    def __init__(self, inner: Transport):
        self.inner = inner
        self.blocked: set[int] = set()
        self.blocked_sends = 0

    def partition(self, addresses) -> None:
        self.blocked.update(addresses)

    def heal(self, addresses=None) -> None:
        if addresses is None:
            self.blocked.clear()
        else:
            self.blocked.difference_update(addresses)

    def _exc(self, request: RpcRequest) -> ConnectionError:
        return ConnectionError(
            f"network partition: daemon {request.target} unreachable "
            f"({request.handler})"
        )

    def send_async(self, request: RpcRequest) -> RpcFuture:
        if request.target in self.blocked:
            self.blocked_sends += 1
            return RpcFuture.failed(self._exc(request))
        return deliver_async(self.inner, request)


class TriggerTransport(Transport):
    """Fire a one-shot callback when a matching request is observed.

    The matched request is failed (default ``ConnectionError``) *after*
    the callback runs — arm it with "crash daemon k" to reproduce, with
    perfect determinism, a daemon dying at a precise point inside a
    multi-RPC operation (e.g. mid-``pwrite`` fan-out, before the size
    update lands).  Each armed trigger fires at most once.
    """

    def __init__(self, inner: Transport):
        self.inner = inner
        self._lock = threading.Lock()
        self._triggers: list[tuple] = []
        self.fired = 0

    def arm(
        self,
        predicate: Callable[[RpcRequest], bool],
        callback: Optional[Callable[[RpcRequest], None]] = None,
        exc_factory: Optional[Callable[[RpcRequest], Exception]] = None,
    ) -> None:
        """Queue a one-shot trigger; the first matching request fires it."""
        self._triggers.append((predicate, callback, exc_factory))

    def _match(self, request: RpcRequest):
        with self._lock:
            for i, (predicate, callback, exc_factory) in enumerate(self._triggers):
                if predicate(request):
                    del self._triggers[i]
                    self.fired += 1
                    return callback, exc_factory
        return None

    def _fire(self, request: RpcRequest, hit) -> Exception:
        callback, exc_factory = hit
        if callback is not None:
            callback(request)
        if exc_factory is not None:
            return exc_factory(request)
        return ConnectionError(
            f"triggered fault: {request.handler} -> daemon {request.target}"
        )

    def send_async(self, request: RpcRequest) -> RpcFuture:
        hit = self._match(request)
        if hit is not None:
            return RpcFuture.failed(self._fire(request, hit))
        return deliver_async(self.inner, request)
